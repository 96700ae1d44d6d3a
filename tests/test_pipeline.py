import json
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from bitextkit import corpus_io, tokenizer
from bitextkit.cli import cli
from bitextkit.langid import save_model
from bitextkit.corpus_io import SentencePair
from bitextkit.pipeline import (
    ConfigParseError,
    PipelineConfig,
    StageFailure,
    dump_json,
    parse_config_file,
    run_pipeline,
    validate_config,
)

from synth import synthetic_noisy_corpus

PROSE_ES = [
    "El comité aprobó la propuesta por unanimidad.",
    "La biblioteca cierra a mediodía los sábados.",
    "Los resultados fueron buenos, aunque mejorables.",
    "El viento del norte trajo nieve a la sierra.",
]
PROSE_CA = [
    "El comitè va aprovar la proposta per unanimitat.",
    "La biblioteca tanca al migdia els dissabtes.",
    "Els resultats van ser bons, tot i que millorables.",
    "El vent del nord va portar neu a la serra.",
]


def write_corpus(tmp_path):
    src = tmp_path / "corpus.es"
    tgt = tmp_path / "corpus.ca"
    src.write_text("\n".join(PROSE_ES) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(PROSE_CA) + "\n", encoding="utf-8")
    return src, tgt


class TestConfigParsing:
    def test_key_value_lines_with_comments(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("# comment\ntask = prep\n\nsrc_lang = es   # inline\n", encoding="utf-8")
        assert parse_config_file(cfg) == {"task": "prep", "src_lang": "es"}

    def test_parse_error_carries_line_and_column(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("task = prep\n  broken line\n", encoding="utf-8")
        with pytest.raises(ConfigParseError) as err:
            parse_config_file(cfg)
        assert err.value.line == 2
        assert err.value.column == 3


class TestValidateConfig:
    def _minimal(self, tmp_path, fixture_model):
        src, tgt = write_corpus(tmp_path)
        model = tmp_path / "m.lidm"
        save_model(fixture_model, model)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "task = prep",
                    "src_lang = es",
                    "tgt_lang = ca",
                    f"source = {src}",
                    f"target = {tgt}",
                    f"model = {model}",
                    f"out_dir = {tmp_path / 'out'}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        return cfg

    def test_minimal_valid_config_fills_defaults(self, tmp_path, fixture_model):
        config, errors = validate_config(self._minimal(tmp_path, fixture_model), env={})
        assert errors == []
        assert config.clean_mode == "both"
        assert config.workers == 1

    def test_missing_path_is_one_error(self, tmp_path, fixture_model):
        cfg = self._minimal(tmp_path, fixture_model)
        config, errors = validate_config(cfg, overrides={"source": str(tmp_path / "nope.es")}, env={})
        assert config is None
        assert len(errors) == 1
        assert "source" in errors[0]

    def test_two_violations_reported_together(self, tmp_path, fixture_model):
        cfg = self._minimal(tmp_path, fixture_model)
        config, errors = validate_config(
            cfg, overrides={"tgt_lang": "es", "workers": "0"}, env={}
        )
        assert config is None
        assert len(errors) == 2

    def test_same_langs_rejected_before_any_stage(self, tmp_path, fixture_model):
        cfg = self._minimal(tmp_path, fixture_model)
        config, errors = validate_config(cfg, overrides={"tgt_lang": "es"}, env={})
        assert config is None
        assert any("must differ" in e for e in errors)

    def test_env_overrides_file_and_cli_wins(self, tmp_path, fixture_model):
        cfg = self._minimal(tmp_path, fixture_model)
        config, errors = validate_config(cfg, env={"BITEXTKIT_WORKERS": "3"})
        assert errors == []
        assert config.workers == 3
        config, errors = validate_config(cfg, overrides={"workers": "2"}, env={"BITEXTKIT_WORKERS": "3"})
        assert config.workers == 2

    def test_unknown_key_rejected(self, tmp_path, fixture_model):
        cfg = self._minimal(tmp_path, fixture_model)
        config, errors = validate_config(cfg, overrides={"no_such_key": "1"}, env={})
        assert config is None
        assert any("unknown config key" in e for e in errors)

    @pytest.mark.parametrize(
        "line, error",
        [
            (" = x", "{cfg}:8:1: empty key"),
            ("clean_enabled = maybe", "clean_enabled: expected a boolean, got 'maybe'"),
            ("workers = two", "workers: expected int, got 'two'"),
            ("task = train", "task: must be one of ('prep', 'eval'), got 'train'"),
            ("src_lang =", "src_lang: required"),
            ("tgt_lang =", "tgt_lang: required"),
            ("clean_mode = strict", "clean_mode: must be one of ('per_side', 'concat', 'both'), got 'strict'"),
            ("cognate_threshold = 0", "cognate_threshold: must be in (0, 1], got 0.0"),
            ("cognate_threshold = 1.5", "cognate_threshold: must be in (0, 1], got 1.5"),
            ("cognate_min_len = 0", "cognate_min_len: must be >= 1, got 0"),
            ("hyp =", "hyp: required for the eval task"),
            ("ref =", "ref: required for the eval task"),
            ("source =", "source: required for the eval task"),
            ("tokenize_output = false", "unknown config key 'tokenize_output'"),
            ("lang = es", "unknown config key 'lang'"),
        ],
    )
    def test_one_bad_value_gives_one_error(self, tmp_path, line, error):
        """A valid eval config with one line appended, which overrides the
        key it names."""
        paths = {key: tmp_path / f"{key}.txt" for key in ("source", "ref", "hyp")}
        for path in paths.values():
            path.write_text("el gat\n", encoding="utf-8")
        values = {"task": "eval", "src_lang": "es", "tgt_lang": "ca", **paths, "out_dir": tmp_path / "out"}
        cfg = tmp_path / "p.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        assert validate_config(cfg, env={})[1] == []
        cfg.write_text(cfg.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        try:
            config, errors = validate_config(cfg, env={})
        except ConfigParseError as exc:
            config, errors = None, [str(exc)]
        assert config is None
        assert errors == [error.format(cfg=cfg)]


class TestRunPipeline:
    def _prep_config(self, tmp_path, fixture_model, pairs=None, out_name="out"):
        from bitextkit.corpus_io import write_parallel

        if pairs is None:
            src, tgt = write_corpus(tmp_path)
        else:
            src = tmp_path / "corpus.es"
            tgt = tmp_path / "corpus.ca"
            write_parallel(pairs, src, tgt)
        model = tmp_path / "m.lidm"
        save_model(fixture_model, model)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "task = prep",
                    "src_lang = es",
                    "tgt_lang = ca",
                    f"source = {src}",
                    f"target = {tgt}",
                    f"model = {model}",
                    f"out_dir = {tmp_path / out_name}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        return cfg, tmp_path / out_name

    def test_prep_path_writes_all_artifacts(self, tmp_path, fixture_model):
        pairs, _ = synthetic_noisy_corpus(n_clean=40, n_copied=5, n_wrong=5)
        cfg, out = self._prep_config(tmp_path, fixture_model, pairs)
        config, errors = validate_config(cfg, env={})
        assert errors == []
        run_pipeline(config)
        for name in (
            "stats_before.json",
            "cleaning_report.json",
            "stats_after.json",
            "tokenize_report.json",
            "manifest.json",
            "cleaned.es",
            "cleaned.ca",
            "tokenized.es",
            "tokenized.ca",
        ):
            assert (out / name).exists(), name
        before = json.loads((out / "stats_before.json").read_text(encoding="utf-8"))
        after = json.loads((out / "stats_after.json").read_text(encoding="utf-8"))
        cleaning = json.loads((out / "cleaning_report.json").read_text(encoding="utf-8"))
        assert before["sentence_count"] == 50
        assert after["sentence_count"] == cleaning["kept"]
        assert cleaning["kept"] + sum(cleaning["removed_by_reason"].values()) == 50
        assert cleaning["tool_version"]
        assert cleaning["config_echo"]["src_lang"] == "es"
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert [s["name"] for s in manifest["stages"]] == ["stats_before", "clean", "stats_after", "tokenize"]
        for stage in manifest["stages"]:
            assert stage["inputs"] and stage["outputs"]

    def test_outputs_deterministic_modulo_manifest_timestamp(self, tmp_path, fixture_model):
        pairs, _ = synthetic_noisy_corpus(n_clean=30, n_copied=3, n_wrong=3)
        cfg, out = self._prep_config(tmp_path, fixture_model, pairs, out_name="out_a")
        config, _ = validate_config(cfg, env={})
        run_pipeline(config)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_pipeline(config)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(first) == set(second)
        for name in first:
            if name == "manifest.json":
                a = json.loads(first[name])
                b = json.loads(second[name])
                a.pop("created_unix")
                b.pop("created_unix")
                assert a == b
            else:
                assert first[name] == second[name], name

    def test_worker_count_does_not_change_artifacts(self, tmp_path, fixture_model):
        pairs, _ = synthetic_noisy_corpus(n_clean=30, n_copied=3, n_wrong=3)
        cfg, out = self._prep_config(tmp_path, fixture_model, pairs, out_name="w1")
        config, _ = validate_config(cfg, env={})
        run_pipeline(config)
        config4, _ = validate_config(cfg, overrides={"workers": "4", "out_dir": str(tmp_path / "w4")}, env={})
        run_pipeline(config4)
        for name in ("cleaned.es", "cleaned.ca", "tokenized.es", "tokenized.ca"):
            assert (out / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()

    def test_eval_path_identity_scores(self, tmp_path, fixture_model):
        src, tgt = write_corpus(tmp_path)
        # the "system output" is the tokenized reference: detokenize -> score must be perfect
        runner = CliRunner()
        tokenized = runner.invoke(cli, ["tokenize", "--lang", "ca"], input="\n".join(PROSE_CA) + "\n")
        hyp = tmp_path / "system.ca"
        hyp.write_text(tokenized.stdout, encoding="utf-8")
        cfg = tmp_path / "e.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "task = eval",
                    "src_lang = es",
                    "tgt_lang = ca",
                    f"source = {src}",
                    f"ref = {tgt}",
                    f"hyp = {hyp}",
                    f"out_dir = {tmp_path / 'eval_out'}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        config, errors = validate_config(cfg, env={})
        assert errors == []
        run_pipeline(config)
        out = tmp_path / "eval_out"
        score = json.loads((out / "score.json").read_text(encoding="utf-8"))
        assert score["bleu"] == 100.0
        assert score["ribes"] == 1.0
        assert score["ter"] == 0.0
        cognates = json.loads((out / "cognates.json").read_text(encoding="utf-8"))
        assert cognates["preservation_rate"] == 1.0
        detok = (out / "detokenized.hyp").read_text(encoding="utf-8").splitlines()
        assert detok == PROSE_CA


    def test_eval_hyp_with_lone_cr_keeps_alignment(self, tmp_path):
        src = tmp_path / "src.es"
        ref = tmp_path / "ref.ca"
        hyp = tmp_path / "hyp.ca"
        src.write_text("el gato negro duerme\nla casa\n", encoding="utf-8")
        ref.write_text("el gat negre dorm\nla casa\n", encoding="utf-8")
        hyp.write_bytes(b"el gat negre\rdorm\nla casa\n")
        out = tmp_path / "eval_out"
        overrides = {"task": "eval", "src_lang": "es", "tgt_lang": "ca", "source": src, "ref": ref, "hyp": hyp, "out_dir": out}
        config, errors = validate_config(overrides=overrides, env={})
        assert errors == []
        run_pipeline(config)
        assert (out / "detokenized.hyp").read_bytes().count(b"\n") == 2
        assert json.loads((out / "cognates.json").read_text(encoding="utf-8"))["pairs_examined"] == 4


class TestPipelineCli:
    def test_validation_error_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task = prep\nsrc_lang = es\ntgt_lang = es\n", encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(cli, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 1

    def test_parse_error_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a config\n", encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(cli, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 1

    def test_invalid_utf8_config_exit_1_with_offset(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"task = prep\n\xff\n")
        result = CliRunner().invoke(cli, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "invalid UTF-8 at byte offset 12" in result.output

    def test_prep_keeps_lone_cr_inside_a_line(self, tmp_path):
        src, tgt = tmp_path / "c.es", tmp_path / "c.ca"
        src.write_bytes("el gato\rnegro duerme\nla casa\n".encode("utf-8"))
        tgt.write_bytes("el gat\rnegre dorm\nla casa\n".encode("utf-8"))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"task = prep\nsrc_lang = es\ntgt_lang = ca\nsource = {src}\ntarget = {tgt}\n"
            f"clean_enabled = false\nout_dir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(cli, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "cleaned.es").read_bytes() == src.read_bytes()
        assert (tmp_path / "out" / "cleaned.ca").read_bytes() == tgt.read_bytes()
        stats = json.loads((tmp_path / "out" / "stats_after.json").read_text(encoding="utf-8"))
        assert stats["sentence_count"] == 2

    def test_stage_failure_exit_2(self, tmp_path, fixture_model):
        src, tgt = write_corpus(tmp_path)
        model = tmp_path / "m.lidm"
        save_model(fixture_model, model)
        # corrupt the model so the clean stage fails after validation passes
        model.write_bytes(model.read_bytes()[:10])
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "task = prep",
                    "src_lang = es",
                    "tgt_lang = ca",
                    f"source = {src}",
                    f"target = {tgt}",
                    f"model = {model}",
                    f"out_dir = {tmp_path / 'out'}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        runner = CliRunner()
        result = runner.invoke(cli, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "clean" in result.output


def test_run_pipeline_success_exit_0(tmp_path, fixture_model):
    src, tgt = write_corpus(tmp_path)
    model = tmp_path / "m.lidm"
    save_model(fixture_model, model)
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "\n".join(
            [
                "task = prep",
                "src_lang = es",
                "tgt_lang = ca",
                f"source = {src}",
                f"target = {tgt}",
                f"model = {model}",
                f"out_dir = {tmp_path / 'out'}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    runner = CliRunner()
    result = runner.invoke(cli, ["pipeline", "--config", str(cfg)])
    assert result.exit_code == 0, result.output


def test_eval_scores_with_the_rules_detokenize_resolved(tmp_path):
    """Bambara has no prefix list, so fr->bm falls back to the French rules,
    which keep "M." whole; neutral rules would split it (11 tokens)."""
    src, ref, hyp = tmp_path / "src.fr", tmp_path / "ref.bm", tmp_path / "hyp.bm"
    src.write_text("Il fait chaud, M. Diallo le sait.\n", encoding="utf-8")
    ref.write_text("Ji ka kalan, M. Diallo ko o la.\n", encoding="utf-8")
    hyp.write_text("Ji ka kalan , M. Diallo ko o la .\n", encoding="utf-8")
    out = tmp_path / "eval_out"
    overrides = {"task": "eval", "src_lang": "fr", "tgt_lang": "bm", "source": src, "ref": ref, "hyp": hyp, "out_dir": out}
    config, errors = validate_config(overrides=overrides, env={})
    assert errors == []
    run_pipeline(config)
    assert json.loads((out / "detokenize_report.json").read_text(encoding="utf-8"))["rules"] == "fr"
    score = json.loads((out / "score.json").read_text(encoding="utf-8"))
    assert score["hyp_len"] == 10
    assert score["bleu"] == 100.0


def _eval_config(tmp_path, source_lines, ref_lines, hyp_lines, **overrides):
    paths = {"source": tmp_path / "src.es", "ref": tmp_path / "ref.ca", "hyp": tmp_path / "hyp.ca"}
    for key, lines in (("source", source_lines), ("ref", ref_lines), ("hyp", hyp_lines)):
        paths[key].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    values = {"task": "eval", "src_lang": "es", "tgt_lang": "ca", "out_dir": tmp_path / "out", **paths, **overrides}
    config, errors = validate_config(overrides=values, env={})
    assert errors == []
    return config


def _record_calls(monkeypatch, original, calls: list) -> None:
    """Route every package reference to ``original`` through a wrapper that
    appends each call's first argument to ``calls``."""

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("bitextkit"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def test_eval_reads_each_input_once_and_tokenizes_each_line_once(tmp_path, monkeypatch):
    # eval streams its inputs through decode_lines, one stream per file
    hyp = [" ".join(tokenizer.tokenize(line, tokenizer.resolve_rules("ca"))) for line in PROSE_CA]
    config = _eval_config(tmp_path, PROSE_ES, PROSE_CA, hyp)
    reads, tokenized = [], []
    _record_calls(monkeypatch, corpus_io.decode_lines, reads)
    _record_calls(monkeypatch, tokenizer.tokenize_lines, tokenized)
    run_pipeline(config)
    assert sorted(stream.name for stream in reads) == sorted([config.source, config.ref, config.hyp])
    detok = (tmp_path / "out" / "detokenized.hyp").read_text(encoding="utf-8").splitlines()
    assert detok == PROSE_CA
    assert Counter(line for lines in tokenized for line in lines) == Counter(PROSE_ES + PROSE_CA + detok)


@pytest.mark.parametrize("lowercase, hyp_len", [(False, 6), (True, 5)])
def test_eval_lowercase_tokenizes_the_folded_line(tmp_path, lowercase, hyp_len):
    """The tokenizer reads case: "casa. Luego" splits the period off, and
    "casa. luego" keeps "casa." whole. Scoring folds case first."""
    line = "Vino a casa. Luego salió"
    config = _eval_config(tmp_path, [line], [line], [line], src_lang="ca", tgt_lang="es", lowercase=str(lowercase).lower())
    run_pipeline(config)
    assert json.loads((tmp_path / "out" / "score.json").read_text(encoding="utf-8"))["hyp_len"] == hyp_len


def test_eval_line_count_mismatches_fail_their_stages(tmp_path):
    config = _eval_config(tmp_path, ["el gato negro", "la casa"], ["el gat negre", "la casa"], ["el gat negre"])
    with pytest.raises(StageFailure) as failure:
        run_pipeline(config)
    detok = tmp_path / "out" / "detokenized.hyp"
    assert str(failure.value) == f"stage 'score' failed: {detok} / {config.ref}: line counts differ: 1 vs 2"
    config = _eval_config(tmp_path, ["el gato negro"], ["el gat negre", "la casa"], ["el gat negre", "la casa"])
    with pytest.raises(StageFailure) as failure:
        run_pipeline(config)
    assert str(failure.value) == f"stage 'cognates' failed: {config.source} / {config.ref}: line counts differ: 1 vs 2"


def test_a_failed_stage_still_writes_the_manifest(tmp_path):
    # the reference is one line short, so the score stage fails
    config = _eval_config(tmp_path, ["el gato negro", "la casa"], ["el gat negre"], ["el gat negre", "la casa"])
    with pytest.raises(StageFailure) as failure:
        run_pipeline(config)
    assert failure.value.stage == "score"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["failed_stage"] == "score"
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [("detokenize", "ok"), ("score", "failed")]
    detokenize, score = manifest["stages"]
    assert set(detokenize["outputs"]) == {str(tmp_path / "out" / name) for name in ("detokenized.hyp", "detokenize_report.json")}
    assert score["error"] == str(failure.value.cause)
    assert not (tmp_path / "out" / "score.json").exists()

    # a later run that succeeds replaces it
    config = _eval_config(tmp_path, ["el gato negro", "la casa"], ["el gat negre", "la casa"], ["el gat negre", "la casa"])
    run_pipeline(config)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["failed_stage"] is None
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [
        ("detokenize", "ok"), ("score", "ok"), ("cognates", "ok"),
    ]


def test_dump_json_failure_keeps_the_previous_file(tmp_path):
    path = tmp_path / "report.json"
    dump_json(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        dump_json(path, {"a": 2, "b": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_cognates_bodies_share_keys_and_rate_rule(cognates_command):
    """With and without system output the ``cognates`` report has the same
    keys and the same cognate_rate; only the preservation fields differ.
    Both bodies are pinned byte for byte, keys sorted as the command
    prints them."""
    src = ["una contribució financera important", "la biblioteca pública municipal tanca", "el vent del nord"]
    ref = ["una contribución financiera importante", "la biblioteca pública municipal cierra", "el viento del norte"]
    pairs = [SentencePair(i, s, r, "ca", "es") for i, (s, r) in enumerate(zip(src, ref))]
    system = [line.split() for line in ("una contribución importante", "la biblioteca cierra", "el viento del norte")]
    _, without = cognates_command(pairs, None, 0.3, 4, 1)
    _, with_sys = cognates_command(pairs, system, 0.3, 4, 1)
    assert list(without) == list(with_sys)
    assert without == {**with_sys, "preserved": None, "preservation_rate": None}
    assert json.dumps(without) == (
        '{"cognate_pairs": 6, "cognate_rate": 0.6666666666666666, "pairs_examined": 9,'
        ' "preservation_rate": null, "preserved": null, "threshold": 0.3}'
    )
    assert json.dumps(with_sys) == (
        '{"cognate_pairs": 6, "cognate_rate": 0.6666666666666666, "pairs_examined": 9,'
        ' "preservation_rate": 0.5, "preserved": 3, "threshold": 0.3}'
    )
    _, empty = cognates_command([], None, 0.3, 4, 1)
    assert empty == {**without, "pairs_examined": 0, "cognate_pairs": 0, "cognate_rate": 0.0}


def _lines(text: str, count: int) -> bytes:
    return "".join(f"{text} {i}\n" for i in range(count)).encode("utf-8")


def _first(data: bytes, count: int) -> bytes:
    return b"".join(data.splitlines(keepends=True)[:count])


# 200 segments are two chunks of the eval pass; each case reads past the first
_HYP, _REF, _SRC = (_lines(text, 200) for text in ("el gat negre dorm", "el gat negre dorm", "el gato negro duerme"))
_BAD_LAST_LINE = b"\xff casa\n"
# an input that is replaced by a directory once validate_config has found it a file
_DIRECTORY = None


@pytest.mark.parametrize(
    "source, ref, hyp, stage, detail, survivors",
    [
        (_SRC, _REF, _first(_HYP, 150), "score", "{detok} / {ref}: line counts differ: 150 vs 200", 2),
        (_SRC, _first(_REF, 150), _HYP, "score", "{detok} / {ref}: line counts differ: 200 vs 150", 2),
        (_first(_SRC, 150), _REF, _HYP, "cognates", "{source} / {ref}: line counts differ: 150 vs 200", 3),
        (_SRC + _lines("la casa", 50), _REF, _HYP, "cognates", "{source} / {ref}: line counts differ: 250 vs 200", 3),
        (_SRC, _REF, _HYP + _BAD_LAST_LINE, "detokenize", "{hyp}: invalid UTF-8 at byte offset {hyp_bytes} (invalid start byte)", 0),
        (_SRC, _REF + _BAD_LAST_LINE, _HYP, "score", "{ref}: invalid UTF-8 at byte offset {ref_bytes} (invalid start byte)", 2),
        (_SRC + _BAD_LAST_LINE, _REF, _HYP, "cognates", "{source}: invalid UTF-8 at byte offset {source_bytes} (invalid start byte)", 3),
        (_SRC, _REF, b"", "score", "{detok} / {ref}: line counts differ: 0 vs 200", 2),
        (b"", b"", b"", "score", "{detok} is empty", 2),
        # the stage that would fail first is reported, not the input that fails first
        (_SRC, _first(_REF, 100), _HYP + _BAD_LAST_LINE, "detokenize", "{hyp}: invalid UTF-8 at byte offset {hyp_bytes} (invalid start byte)", 0),
        (_first(_SRC, 100), _REF + _BAD_LAST_LINE, _HYP, "score", "{ref}: invalid UTF-8 at byte offset {ref_bytes} (invalid start byte)", 2),
        (_SRC, _REF, _DIRECTORY, "detokenize", "[Errno 21] Is a directory: '{hyp}'", 0),
        (_SRC, _DIRECTORY, _HYP, "score", "[Errno 21] Is a directory: '{ref}'", 2),
        (_DIRECTORY, _REF, _HYP, "cognates", "[Errno 21] Is a directory: '{source}'", 3),
    ],
    ids=[
        "hyp-shorter", "hyp-longer", "source-shorter", "source-longer", "hyp-invalid-utf8", "ref-invalid-utf8",
        "source-invalid-utf8", "hyp-empty", "all-empty", "hyp-invalid-before-short-ref", "ref-invalid-before-short-source",
        "hyp-directory", "ref-directory", "source-directory",
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_a_streamed_eval_fails_the_stage_that_would_fail_first(tmp_path, source, ref, hyp, stage, detail, survivors, workers):
    """Eval reads its inputs in one pass, a chunk at a time; a failure is
    still that of the first stage to fail had detokenize, score and
    cognates each read their inputs whole in turn, with the same artifacts
    left behind."""
    paths = {"source": tmp_path / "src.es", "ref": tmp_path / "ref.ca", "hyp": tmp_path / "hyp.ca"}
    out = tmp_path / "out"
    for key, data in (("source", _SRC), ("ref", ref), ("hyp", hyp)):
        paths[key].write_bytes(data or b"")
    overrides = {"task": "eval", "src_lang": "es", "tgt_lang": "ca", "out_dir": out, "workers": workers, **paths}
    config, errors = validate_config(overrides=overrides, env={})
    assert errors == []
    complete = {}
    if stage == "cognates":
        # the artifacts of a run whose sources are fine
        run_pipeline(config)
        complete = {name: (out / name).read_bytes() for name in ("detokenized.hyp", "score.json")}
        for path in out.iterdir():
            path.unlink()
    for key, data in (("source", source), ("ref", ref), ("hyp", hyp)):
        if data is _DIRECTORY:
            paths[key].unlink()
            paths[key].mkdir()
        else:
            paths[key].write_bytes(data)

    with pytest.raises(StageFailure) as failure:
        run_pipeline(config)
    message = detail.format(
        detok=out / "detokenized.hyp", hyp_bytes=len(_HYP), ref_bytes=len(_REF), source_bytes=len(_SRC), **paths
    )
    assert str(failure.value) == f"stage {stage!r} failed: {message}"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    stages = ["detokenize", "score", "cognates"]
    done = stages[: stages.index(stage)]
    assert manifest["failed_stage"] == stage
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [(name, "ok") for name in done] + [(stage, "failed")]
    assert manifest["stages"][-1]["error"] == message
    artifacts = ["detokenized.hyp", "detokenize_report.json", "score.json"][:survivors]
    assert sorted(path.name for path in out.iterdir()) == sorted(artifacts + ["manifest.json"])
    if done:
        # the whole hypothesis was detokenized and committed before score ran
        detok = (out / "detokenized.hyp").read_text(encoding="utf-8").splitlines()
        assert len(detok) == hyp.count(b"\n")
        assert json.loads((out / "detokenize_report.json").read_text(encoding="utf-8"))["lines"] == len(detok)
    for name, data in complete.items():
        assert (out / name).read_bytes() == data, name


def test_readme_documents_every_config_key():
    """The README's pipeline configuration table lists exactly the config
    keys, in order, with their defaults."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Pipeline configuration\n", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    documented = {key.strip().strip("`"): default.strip() for key, default in rows}
    assert list(documented) == [f.name for f in fields(PipelineConfig)]
    for f in fields(PipelineConfig):
        if f.default != "":
            assert documented[f.name] == f"`{str(f.default).lower()}`", f.name
