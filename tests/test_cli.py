import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from oracles import tokenize_per_line
from synth import synthetic_noisy_corpus

from bitextkit.cleaner import audit_table, clean
from bitextkit.cli import cli
from bitextkit.corpus_io import _CHUNK, read_parallel, write_parallel
from bitextkit.langid import classify, save_model
from bitextkit.tokenizer import resolve_rules

PROSE_ES = [
    "El comité aprobó la propuesta por unanimidad.",
    "La biblioteca cierra a mediodía los sábados.",
    "Los resultados fueron buenos, aunque mejorables.",
]
PROSE_CA = [
    "El comitè va aprovar la proposta per unanimitat.",
    "La biblioteca tanca al migdia els dissabtes.",
    "Els resultats van ser bons, tot i que millorables.",
]


SRC = Path(__file__).resolve().parent.parent / "src"
SEED_DIR = SRC / "bitextkit" / "data" / "seeds"


def _run_cli(args, **kwargs):
    """The CLI in a fresh interpreter, against the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "bitextkit.cli", *args], env=env, timeout=120, **kwargs)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def corpus(tmp_path):
    src = tmp_path / "corpus.es"
    tgt = tmp_path / "corpus.ca"
    src.write_text("\n".join(PROSE_ES) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(PROSE_CA) + "\n", encoding="utf-8")
    return src, tgt


@pytest.fixture
def model_path(tmp_path, fixture_model):
    path = tmp_path / "model.lidm"
    save_model(fixture_model, path)
    return path


def test_stats_json(runner, corpus):
    src, tgt = corpus
    result = runner.invoke(cli, ["stats", "--src", str(src), "--tgt", str(tgt)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["sentence_count"] == 3
    assert payload["tool_version"]
    assert 0 < payload["ttr_source"] <= 1


def test_stats_requires_input(runner):
    result = runner.invoke(cli, ["stats"])
    assert result.exit_code == 1


def test_stats_tsv_input(runner, tmp_path):
    tsv = tmp_path / "c.tsv"
    tsv.write_text("hola amigos\thello friends\nadiós\tgoodbye\n", encoding="utf-8")
    result = runner.invoke(cli, ["stats", "--tsv", str(tsv)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["sentence_count"] == 2
    assert payload["word_count_source"] == 3


@pytest.mark.parametrize("sides", [("--src",), ("--tgt",), ("--src", "--tgt")])
def test_stats_rejects_tsv_with_src_or_tgt(runner, tmp_path, corpus, sides):
    """Only one corpus is counted, so naming a second one is an error, not
    an input that is ignored while the report echoes it."""
    tsv = tmp_path / "c.tsv"
    tsv.write_text("hola amigos\thello friends\n", encoding="utf-8")
    paths = dict(zip(("--src", "--tgt"), corpus))
    args = ["stats", "--tsv", str(tsv)] + [arg for side in sides for arg in (side, str(paths[side]))]
    result = runner.invoke(cli, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")


def test_langid_train_reports_invalid_utf8_offset(runner, tmp_path, corpus):
    src, _ = corpus
    bad = tmp_path / "bad.ca"
    bad.write_bytes(b"hola amigos\n\xffmal\n")
    result = runner.invoke(cli, ["langid-train", "--seed", f"es={src}", "--seed", f"ca={bad}", "--out", str(tmp_path / "m.lidm")])
    assert result.exit_code == 1
    assert "invalid UTF-8 at byte offset 12" in result.output


def test_langid_train_rejects_an_ngram_bound_the_model_cannot_store(runner, tmp_path, corpus):
    src, tgt = corpus
    out = tmp_path / "m.lidm"
    result = runner.invoke(
        cli, ["langid-train", "--seed", f"es={src}", "--seed", f"ca={tgt}", "--out", str(out), "--ngram-max", "256"]
    )
    assert result.exit_code == 1, result.output
    assert "error: invalid ngram_range (1, 256)" in result.output
    assert isinstance(result.exception, SystemExit)  # not the model writer's struct.error
    assert not out.exists()


def test_langid_train_and_classify(runner, tmp_path, corpus):
    src, tgt = corpus
    out = tmp_path / "tiny.lidm"
    result = runner.invoke(
        cli,
        [
            "langid-train",
            "--seed", f"es={src}",
            "--seed", f"ca={tgt}",
            "--out", str(out),
            "--vocab-size", "500",
        ],
    )
    assert result.exit_code == 0, result.output
    assert out.exists()

    result = runner.invoke(cli, ["langid-classify", "--model", str(out)], input=PROSE_ES[0] + "\n")
    assert result.exit_code == 0
    text, lang, margin = result.stdout.strip().split("\t")
    assert lang == "es"
    assert float(margin) >= 0


def test_langid_train_failed_write_keeps_the_old_model(tmp_path, fixture_model):
    out = tmp_path / "m.lidm"
    save_model(fixture_model, out)
    old = out.read_bytes()
    _, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    seeds = [f"--seed={lang}={SEED_DIR / f'{lang}.txt'}" for lang in ("es", "ca")]
    result = _run_cli(
        ["langid-train", *seeds, f"--out={out}"],
        capture_output=True,
        # writes past 64 kB fail with EFBIG, well into the new model
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (64_000, hard)),
    )
    assert result.returncode == 2, result.stderr
    assert b"error: " in result.stderr
    assert out.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.lidm"]


def test_clean_command_writes_outputs_and_report(runner, tmp_path, corpus, model_path):
    src, tgt = corpus
    # add one noisy pair: target copies the source
    src.write_text(src.read_text(encoding="utf-8") + PROSE_ES[0] + "\n", encoding="utf-8")
    tgt.write_text(tgt.read_text(encoding="utf-8") + PROSE_ES[0] + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    prefix = tmp_path / "clean"
    result = runner.invoke(
        cli,
        [
            "clean",
            "--src", str(src), "--tgt", str(tgt),
            "--src-lang", "es", "--tgt-lang", "ca",
            "--model", str(model_path),
            "--mode", "both",
            "--out-prefix", str(prefix),
            "--report", str(report_path),
            "--full-report",
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total"] == 4
    assert report["kept"] == 3
    assert report["removed_by_reason"] == {"SameLanguagePredicted": 1}
    assert len(report["decisions"]) == 4
    kept_lines = (tmp_path / "clean.es").read_text(encoding="utf-8").splitlines()
    assert kept_lines == PROSE_ES


def test_clean_no_clean_passthrough(runner, tmp_path, corpus):
    src, tgt = corpus
    prefix = tmp_path / "pass"
    result = runner.invoke(
        cli,
        [
            "clean",
            "--src", str(src), "--tgt", str(tgt),
            "--src-lang", "es", "--tgt-lang", "ca",
            "--no-clean",
            "--out-prefix", str(prefix),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "pass.es").read_text(encoding="utf-8").splitlines() == PROSE_ES
    payload = json.loads(result.stdout)
    assert payload["kept"] == payload["total"] == 3


def test_clean_no_clean_reports_unwritable_text(runner, tmp_path):
    """A lone CR inside a line is kept; a CR ending a field (it would read
    back as a CRLF ending) exits 2 with a message, not a traceback."""
    src, tgt = tmp_path / "c.es", tmp_path / "c.ca"
    src.write_bytes("el gato\rnegro duerme\nla casa\r\r\n".encode("utf-8"))
    tgt.write_bytes("el gat\rnegre dorm\nla casa\n".encode("utf-8"))
    args = ["clean", "--src", str(src), "--tgt", str(tgt), "--src-lang", "es", "--tgt-lang", "ca", "--no-clean"]
    result = runner.invoke(cli, args + ["--out-prefix", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "error: pair 1: source text ends in a carriage return" in result.output
    assert not isinstance(result.exception, ValueError)
    src.write_bytes("el gato\rnegro duerme\nla casa\n".encode("utf-8"))
    result = runner.invoke(cli, args + ["--out-prefix", str(tmp_path / "p")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "p.es").read_bytes() == src.read_bytes()


def test_clean_failure_writes_neither_output(runner, tmp_path):
    """The second source line ends in a CR, which cannot be written: the
    command exits 2, creates no output, and leaves earlier outputs as they
    were."""
    src, tgt = tmp_path / "c.es", tmp_path / "c.ca"
    src.write_bytes(b"el gato\nla casa\r\r\n")
    tgt.write_bytes(b"el gat\nla casa\n")
    args = ["clean", "--src", str(src), "--tgt", str(tgt), "--src-lang", "es", "--tgt-lang", "ca", "--no-clean"]
    result = runner.invoke(cli, args + ["--out-prefix", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ca", "c.es"]
    (tmp_path / "old.es").write_bytes(b"viejo\n")
    (tmp_path / "old.ca").write_bytes(b"vell\n")
    result = runner.invoke(cli, args + ["--out-prefix", str(tmp_path / "old")])
    assert result.exit_code == 2
    assert (tmp_path / "old.es").read_bytes() == b"viejo\n"
    assert (tmp_path / "old.ca").read_bytes() == b"vell\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ca", "c.es", "old.ca", "old.es"]


def test_clean_same_langs_is_validation_error(runner, corpus, model_path, tmp_path):
    src, tgt = corpus
    result = runner.invoke(
        cli,
        [
            "clean",
            "--src", str(src), "--tgt", str(tgt),
            "--src-lang", "es", "--tgt-lang", "es",
            "--model", str(model_path),
            "--out-prefix", str(tmp_path / "x"),
        ],
    )
    assert result.exit_code == 1


def test_tokenize_detokenize_round_trip(runner):
    text = "L'aigua de l'estany és freda.\n"
    tokenized = runner.invoke(cli, ["tokenize", "--lang", "ca"], input=text)
    assert tokenized.exit_code == 0
    assert tokenized.stdout == "L' aigua de l' estany és freda .\n"
    back = runner.invoke(cli, ["detokenize", "--lang", "ca"], input=tokenized.stdout)
    assert back.stdout == text


@pytest.mark.parametrize("command", ["tokenize", "detokenize"])
@pytest.mark.parametrize("inner", ["\r", "\u2028", "\x85"])
def test_one_output_line_per_lf_terminated_input_line(runner, command, inner):
    result = runner.invoke(cli, [command, "--lang", "ca"], input=f"el gat{inner}dorm\nla casa\r\n".encode("utf-8"))
    assert result.exit_code == 0, result.output
    assert result.stdout.count("\n") == 2
    assert result.stdout.endswith("la casa\n")


def test_tokenize_reports_invalid_utf8_offset(runner):
    result = runner.invoke(cli, ["tokenize", "--lang", "ca"], input=b"la casa\nel \xff gat\n")
    assert result.exit_code == 2
    assert "invalid UTF-8 at byte offset 11" in result.output


@pytest.mark.parametrize("command", ["tokenize", "detokenize"])
def test_output_file_appears_whole_or_not_at_all(runner, tmp_path, command):
    good = tmp_path / "good.txt"
    good.write_bytes(b"la casa .\nel gat\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"la casa .\nel \xff gat\n")
    out = tmp_path / "out.txt"
    result = runner.invoke(cli, [command, "--lang", "ca", "--input", str(bad), "--output", str(out)])
    assert result.exit_code == 2
    assert "invalid UTF-8 at byte offset 13" in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "good.txt"]

    to_stdout = runner.invoke(cli, [command, "--lang", "ca", "--input", str(good)])
    assert runner.invoke(cli, [command, "--lang", "ca", "--input", str(good), "--output", str(out)]).exit_code == 0
    assert out.read_bytes() == to_stdout.stdout_bytes
    result = runner.invoke(cli, [command, "--lang", "ca", "--input", str(bad), "--output", str(out)])
    assert result.exit_code == 2
    assert out.read_bytes() == to_stdout.stdout_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "good.txt", "out.txt"]


def test_tokenize_fallback_option(runner):
    result = runner.invoke(cli, ["tokenize", "--lang", "bm", "--fallback-of", "fr"], input="C'est l'agent.\n")
    assert result.stdout == "C' est l' agent .\n"


def test_tokenize_aggressive_hyphen(runner):
    result = runner.invoke(cli, ["tokenize", "--lang", "en", "--aggressive-hyphen"], input="cost-effective\n")
    assert result.stdout == "cost @-@ effective\n"


def test_tokenize_streams_many_chunks_like_per_line_tokenization(runner, tmp_path):
    lines = [line for lang in ("es", "ca", "pt", "fr") for line in (SEED_DIR / f"{lang}.txt").read_text(encoding="utf-8").splitlines()]
    source = tmp_path / "in.txt"
    source.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    result = runner.invoke(cli, ["tokenize", "--lang", "ca", "--input", str(source)])
    assert result.exit_code == 0
    rules = resolve_rules("ca")
    assert result.stdout == "".join(" ".join(tokenize_per_line(line, rules)) + "\n" for line in lines)


def test_langid_classify_batches_like_per_line_classify(runner, tmp_path, fixture_model):
    model_file = tmp_path / "m.lidm"
    save_model(fixture_model, model_file)
    lines = [line for lang in ("es", "ca", "pt", "fr") for line in (SEED_DIR / f"{lang}.txt").read_text(encoding="utf-8").splitlines()]
    probe = tmp_path / "probe.txt"
    probe.write_text("".join(line + "\n" for line in lines + ["", "zzz"]), encoding="utf-8")
    result = runner.invoke(cli, ["langid-classify", "--model", str(model_file), "--file", str(probe)])
    assert result.exit_code == 0
    expected = ""
    for text in lines + ["", "zzz"]:
        prediction = classify(fixture_model, text)
        expected += f"{text}\t{prediction.lang}\t{prediction.margin:.6f}\n"
    assert result.stdout == expected


def test_langid_classify_from_file(runner, tmp_path, fixture_model):
    model_file = tmp_path / "m.lidm"
    save_model(fixture_model, model_file)
    probe = tmp_path / "probe.txt"
    probe.write_text("La biblioteca cierra a mediodía.\nLa biblioteca tanca al migdia.\n", encoding="utf-8")
    result = runner.invoke(cli, ["langid-classify", "--model", str(model_file), "--file", str(probe)])
    assert result.exit_code == 0
    langs = [line.split("\t")[1] for line in result.stdout.strip().splitlines()]
    assert langs == ["es", "ca"]


def test_score_command(runner, tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("\n".join(PROSE_ES) + "\n", encoding="utf-8")
    ref.write_text("\n".join(PROSE_ES) + "\n", encoding="utf-8")
    result = runner.invoke(cli, ["score", "--hyp", str(hyp), "--ref", str(ref), "--lang", "es"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["bleu"] == 100.0
    assert payload["ribes"] == 1.0
    assert payload["ter"] == 0.0
    assert payload["edits"] == {"ins": 0, "del": 0, "sub": 0, "shift": 0}


def test_score_exit_code_on_mismatch(runner, tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a\nb\n", encoding="utf-8")
    ref.write_text("a\n", encoding="utf-8")
    result = runner.invoke(cli, ["score", "--hyp", str(hyp), "--ref", str(ref), "--lang", "es"])
    assert result.exit_code == 2


def test_cognates_command_with_dump(runner, tmp_path, data_dir):
    rows = [l.split("\t") for l in (data_dir / "cognates_ca_es.tsv").read_text(encoding="utf-8").splitlines()][:10]
    src = tmp_path / "src.txt"
    ref = tmp_path / "ref.txt"
    src.write_text("\n".join(r[0] for r in rows) + "\n", encoding="utf-8")
    ref.write_text("\n".join(r[1] for r in rows) + "\n", encoding="utf-8")
    dump = tmp_path / "pairs.tsv"
    result = runner.invoke(
        cli,
        ["cognates", "--src", str(src), "--ref", str(ref), "--sys", str(ref), "--dump", str(dump)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["preservation_rate"] == 1.0
    assert payload["threshold"] == 0.3
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("sentence\t")
    assert len(lines) == payload["cognate_pairs"] + 1


def test_cognates_dump_is_the_same_for_one_and_two_workers(runner, tmp_path):
    # 420 pairs: three full chunks of 128 pairs and a ragged one
    es = (SEED_DIR / "es.txt").read_text(encoding="utf-8").splitlines()
    sources = (SEED_DIR / "ca.txt").read_text(encoding="utf-8").splitlines() + (SEED_DIR / "pt.txt").read_text(
        encoding="utf-8"
    ).splitlines()
    src = tmp_path / "src.txt"
    ref = tmp_path / "ref.txt"
    src.write_text("\n".join(sources) + "\n", encoding="utf-8")
    ref.write_text("\n".join(es + es) + "\n", encoding="utf-8")
    outputs = []
    for workers in ("1", "2"):
        dump = tmp_path / f"pairs.{workers}.tsv"
        args = ["cognates", "--src", str(src), "--ref", str(ref), "--sys", str(ref), "--dump", str(dump)]
        result = runner.invoke(cli, args + ["--workers", workers])
        assert result.exit_code == 0, result.output
        outputs.append((dump.read_bytes(), result.stdout))
    assert len(sources) == 420
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") > 1000


def test_cognates_dump_to_redirected_stdout_keeps_both_streams(tmp_path, data_dir):
    rows = [l.split("\t") for l in (data_dir / "cognates_ca_es.tsv").read_text(encoding="utf-8").splitlines()][:10]
    src = tmp_path / "src.txt"
    ref = tmp_path / "ref.txt"
    src.write_text("\n".join(r[0] for r in rows) + "\n", encoding="utf-8")
    ref.write_text("\n".join(r[1] for r in rows) + "\n", encoding="utf-8")
    args = ["cognates", "--src", str(src), "--ref", str(ref), "--dump"]
    dump = tmp_path / "pairs.tsv"
    report = _run_cli(args + [str(dump)], capture_output=True, check=True).stdout
    redirected = tmp_path / "stdout.txt"
    with redirected.open("wb") as fh:
        _run_cli(args + ["/dev/stdout"], stdout=fh, check=True)
    # as through a pipe: the dump, then the report, neither over the other
    assert redirected.read_bytes() == dump.read_bytes() + report
    assert json.loads(report)["cognate_pairs"] == dump.read_text(encoding="utf-8").count("\n") - 1


@pytest.mark.parametrize(
    "src_lines, sys_lines",
    [
        # the line missing from --sys holds no cognate
        (["una contribució financera", "la casa", "el sol"], ["una contribución financiera", "la casa"]),
        (["una contribució financera", "la casa"], ["una contribución financiera", "la casa", "el sol"]),
    ],
)
def test_cognates_system_output_line_count_must_match(runner, tmp_path, src_lines, sys_lines):
    src = tmp_path / "src.txt"
    ref = tmp_path / "ref.txt"
    system = tmp_path / "sys.txt"
    dump = tmp_path / "pairs.tsv"
    src.write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    ref.write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    system.write_text("\n".join(sys_lines) + "\n", encoding="utf-8")
    args = ["cognates", "--src", str(src), "--ref", str(ref), "--sys", str(system), "--dump", str(dump)]
    result = runner.invoke(cli, args)
    assert result.exit_code == 2, result.output
    want = f"error: {system} / {ref}: line counts differ: {len(sys_lines)} vs {len(src_lines)}"
    assert want in result.output
    assert "cognate_pairs" not in result.output
    assert not dump.exists()


def test_cognates_without_system_output(runner, tmp_path):
    src = tmp_path / "src.txt"
    ref = tmp_path / "ref.txt"
    src.write_text("una contribució financera\n", encoding="utf-8")
    ref.write_text("una contribución financiera\n", encoding="utf-8")
    result = runner.invoke(cli, ["cognates", "--src", str(src), "--ref", str(ref)])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["preserved"] is None
    assert payload["cognate_pairs"] == 2


@pytest.mark.parametrize("src_inner, ref_inner", [("\u2028", " "), (" ", "\x85"), ("\u2028", "\x85"), ("\x85", "\u2028")])
def test_cognates_keeps_unicode_line_separators_inside_lines(runner, tmp_path, src_inner, ref_inner):
    """U+2028 and U+0085 are whitespace to the word split but never end a
    line: the result is the one for a plain space, on 2 aligned pairs."""

    def run(src_sep, ref_sep, name):
        src, ref, dump = tmp_path / f"{name}.src", tmp_path / f"{name}.ref", tmp_path / f"{name}.tsv"
        src.write_text(f"una contribució{src_sep}financera\nla biblioteca pública municipal\n", encoding="utf-8")
        ref.write_text(f"una contribución financiera\nla biblioteca{ref_sep}pública municipal\n", encoding="utf-8")
        result = runner.invoke(cli, ["cognates", "--src", str(src), "--ref", str(ref), "--sys", str(ref), "--dump", str(dump)])
        assert result.exit_code == 0, result.output
        return json.loads(result.stdout), dump.read_text(encoding="utf-8")

    payload, dump = run(src_inner, ref_inner, "inner")
    plain_payload, plain_dump = run(" ", " ", "plain")
    assert [line.split("\t")[0] for line in dump.splitlines()[1:]] == ["0", "0", "1", "1", "1"]
    assert dump == plain_dump
    for key in ("pairs_examined", "cognate_pairs", "preserved"):
        assert payload[key] == plain_payload[key]


@pytest.mark.parametrize("threshold", ["0", "2", "-1"])
def test_cognates_threshold_out_of_range_is_usage_error(runner, tmp_path, threshold):
    src, ref = tmp_path / "src.txt", tmp_path / "ref.txt"
    src.write_text("una contribució\n", encoding="utf-8")
    ref.write_text("una contribución\n", encoding="utf-8")
    result = runner.invoke(cli, ["cognates", "--src", str(src), "--ref", str(ref), "--threshold", threshold])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "--threshold" in result.output
    assert not isinstance(result.exception, ValueError)


def test_help_lists_all_subcommands(runner):
    result = runner.invoke(cli, ["--help"])
    for name in ("stats", "langid-train", "langid-classify", "clean", "tokenize", "detokenize", "score", "cognates", "pipeline"):
        assert name in result.output


def _unwritable_output_args(tmp_path, src, tgt):
    missing = tmp_path / "missing"
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    return {
        "clean": ["clean", "--src", str(src), "--tgt", str(tgt), "--src-lang", "es", "--tgt-lang", "ca",
                  "--no-clean", "--out-prefix", str(missing / "x")],
        "cognates": ["cognates", "--src", str(src), "--ref", str(tgt), "--dump", str(missing / "d.tsv")],
        "langid-train": ["langid-train", "--seed", f"es={src}", "--seed", f"ca={tgt}", "--out", str(missing / "m.lidm")],
        "pipeline": ["pipeline", "--set", "task=prep", "--set", "src_lang=es", "--set", "tgt_lang=ca",
                     "--set", f"source={src}", "--set", f"target={tgt}", "--set", "clean_enabled=false",
                     "--set", f"out_dir={a_file / 'out'}"],
    }


@pytest.mark.parametrize("command", ["clean", "cognates", "langid-train", "pipeline"])
def test_unwritable_output_exits_2_with_message(runner, tmp_path, corpus, command):
    result = runner.invoke(cli, _unwritable_output_args(tmp_path, *corpus)[command])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["clean", "--workers", "0"],
        ["clean", "--workers", "-3"],
        ["cognates", "--workers", "0"],
        ["cognates", "--min-len", "0"],
    ],
)
def test_counts_below_one_are_usage_errors(runner, tmp_path, corpus, args):
    src, tgt = corpus
    command, options = args[0], args[1:]
    if command == "clean":
        inputs = ["--src", str(src), "--tgt", str(tgt), "--src-lang", "es", "--tgt-lang", "ca",
                  "--no-clean", "--out-prefix", str(tmp_path / "x")]
    else:
        inputs = ["--src", str(src), "--ref", str(tgt)]
    result = runner.invoke(cli, [command] + inputs + options)
    assert result.exit_code == 2
    assert "Usage:" in result.output and options[-2] in result.output
    assert "x>=1" in result.output


@pytest.mark.parametrize("fmt", ["tsv", "text"])
@pytest.mark.parametrize("workers", [1, 2])
def test_clean_audit_prints_the_table_of_the_removed_pairs(runner, tmp_path, fixture_model, model_path, fmt, workers):
    """Over more than one chunk of pairs, ``--audit`` prints the audit table
    of the pairs that ``clean`` removes, then the summary line."""
    pairs, _ = synthetic_noisy_corpus(n_clean=120, n_copied=20, n_wrong=20)
    src, tgt = tmp_path / "c.es", tmp_path / "c.ca"
    write_parallel(pairs, src, tgt)
    pairs = list(read_parallel(src, tgt, "es", "ca"))
    result = clean(pairs, fixture_model, keep_decisions=True)
    prefix = tmp_path / "out"
    args = ["clean", "--src", str(src), "--tgt", str(tgt), "--src-lang", "es", "--tgt-lang", "ca",
            "--out-prefix", str(prefix), "--audit", fmt, "--workers", str(workers)]
    summary = f"kept {len(result.kept)}/{len(pairs)} pairs -> {prefix}.es, {prefix}.ca\n"
    audited = runner.invoke(cli, args + ["--model", str(model_path)])
    assert audited.exit_code == 0, audited.output
    assert {d.index < _CHUNK for d in result.report.decisions if not d.keep} == {True, False}
    assert audited.stderr == audit_table(result.report.decisions, pairs, fmt=fmt) + "\n" + summary
    passed = runner.invoke(cli, args + ["--no-clean"])
    assert passed.exit_code == 0, passed.output
    assert passed.stderr == f"kept {len(pairs)}/{len(pairs)} pairs -> {prefix}.es, {prefix}.ca\n"


@pytest.mark.parametrize(
    "args, error",
    [
        (["langid-train", "--seed", "es", "--out", "m.lidm"], "--seed expects LANG=FILE, got 'es'"),
        (["pipeline", "--set", "workers"], "--set expects KEY=VALUE, got 'workers'"),
        (["clean", "--src", "{src}", "--tgt", "{tgt}", "--src-lang", "es", "--tgt-lang", "ca", "--out-prefix", "x"],
         "--model is required unless --no-clean is given"),
    ],
)
def test_usage_errors_exit_1_with_their_message(runner, tmp_path, corpus, args, error):
    src, tgt = corpus
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, [arg.format(src=src, tgt=tgt) for arg in args])
        assert result.exit_code == 1
        assert result.stderr == f"error: {error}\n"
        assert sorted(p.name for p in Path(".").iterdir()) == []


# Each bundled seed scored as a copy of the Spanish seed (``score --lang
# es``), and its cognates with it on the ``tokenize --lang es`` sides: the
# similar-language baseline of the paper's es-ca and es-pt systems, with
# French for contrast. (bleu, ribes, ter, summary line, cognate pairs,
# source words examined, cognate rate)
COPY_BASELINE = {
    "ca": (10.071568567081014, 0.753818181487321, 0.6372679045092838, "BLEU 10.07  RIBES 0.75  TER 0.64", 784, 1471, 0.5329707681849082),
    "pt": (6.160600626221472, 0.6997910162138421, 0.7082228116710876, "BLEU 6.16  RIBES 0.70  TER 0.71", 816, 1557, 0.5240847784200385),
    "fr": (0.0, 0.48310802859900104, 0.8524535809018567, "BLEU 0.00  RIBES 0.48  TER 0.85", 264, 1578, 0.16730038022813687),
}


@pytest.mark.parametrize("lang", sorted(COPY_BASELINE))
def test_copy_baseline_against_the_spanish_seed(runner, tmp_path, lang):
    bleu, ribes, ter, summary, pairs, examined, rate = COPY_BASELINE[lang]
    seed, spanish = SEED_DIR / f"{lang}.txt", SEED_DIR / "es.txt"
    scored = runner.invoke(cli, ["score", "--hyp", str(seed), "--ref", str(spanish), "--lang", "es"])
    assert scored.exit_code == 0, scored.output
    report = json.loads(scored.stdout)
    assert (report["bleu"], report["ribes"], report["ter"]) == (bleu, ribes, ter)
    assert scored.stderr == summary + "\n"

    for path in (seed, spanish):
        tokenized = runner.invoke(cli, ["tokenize", "--lang", "es", "--input", str(path), "--output", str(tmp_path / path.name)])
        assert tokenized.exit_code == 0, tokenized.output
    found = runner.invoke(cli, ["cognates", "--src", str(tmp_path / seed.name), "--ref", str(tmp_path / "es.txt")])
    assert found.exit_code == 0, found.output
    body = json.loads(found.stdout)
    assert (body["cognate_pairs"], body["pairs_examined"], body["cognate_rate"]) == (pairs, examined, rate)
