"""Eval as one streaming pass: it runs under the benchmark's tracer with the
same artifacts, and its peak memory, like that of the ``score`` and
``cognates`` commands, does not grow with the number of segments."""

import json

import pytest
from click.testing import CliRunner

from bitextkit.cli import cli
from bitextkit.metrics import score_report

from synth import seed_lines, spliced
from test_prep_stream import _artifacts, _peak_rss_mb, _traced, script_peak_rss_mb


def _eval_inputs(directory, count: int, src: str = "es", tgt: str = "ca") -> dict:
    """src->tgt segments: every hypothesis is its reference split on spaces,
    with one pair of adjacent words swapped in every other segment."""
    src_seeds, tgt_seeds = seed_lines(src), seed_lines(tgt)
    paths = {key: directory / f"{count}.{key}" for key in ("source", "ref", "hyp")}
    lines: dict = {key: [] for key in paths}
    for k in range(count):
        ref = spliced(tgt_seeds, k * 2 + 1, k * 5 + 2)
        hyp = ref.split()
        if k % 2:
            i = k % (len(hyp) - 1)
            hyp[i], hyp[i + 1] = hyp[i + 1], hyp[i]
        lines["source"].append(spliced(src_seeds, k, k * 3 + 1))
        lines["ref"].append(ref)
        lines["hyp"].append(" ".join(hyp))
    for key, path in paths.items():
        path.write_text("".join(line + "\n" for line in lines[key]), encoding="utf-8")
    return paths


def _eval_config(tmp_path, paths: dict, **values):
    cfg = tmp_path / "eval.cfg"
    settings = {"task": "eval", "src_lang": "es", "tgt_lang": "ca", **paths, **values}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    return cfg


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_eval_matches_an_untraced_run(tmp_path, monkeypatch, workers):
    cfg = _eval_config(tmp_path, _eval_inputs(tmp_path, 400), workers=workers)
    out = tmp_path / "out"
    args = ["pipeline", "--config", str(cfg), "--set", f"out_dir={out}"]

    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    untraced = _artifacts(out)
    for path in out.iterdir():
        path.unlink()

    with monkeypatch.context() as patch:
        spans = _traced(patch)
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 0, result.output
        recorded = json.loads(json.dumps(spans.TRACER.spans))
        layers, _ = spans.layer_metrics(recorded)
    assert _artifacts(out) == untraced
    assert sorted(untraced) == ["cognates.json", "detokenize_report.json", "detokenized.hyp", "manifest.json", "score.json"]
    names = [span[2] for span in recorded]
    assert names.count("evaluation.eval_chunk") == 4
    # one TER span per segment, as the per-layer TER figures need
    assert names.count("metrics.ter.ter") == 400
    assert layers["metrics.ter.segs_per_s"] > 0 and layers["cognates.extract_pairs_per_s"] > 0


def test_peak_memory_does_not_grow_with_the_segments(tmp_path):
    peaks = {}
    for count in (500, 3_000):
        cfg = _eval_config(tmp_path, _eval_inputs(tmp_path, count))
        peaks[count] = _peak_rss_mb(cfg, tmp_path / f"out-{count}")
    # holding every segment's lines and tokens cost about 3 MB per thousand
    assert peaks[3_000] - peaks[500] <= 1.0, peaks


_CLI_PEAK = """
import sys
from bitextkit.cli import cli
cli.main(sys.argv[1:], prog_name="bitextkit", standalone_mode=False)
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024)
"""


@pytest.mark.parametrize("command", ["score", "cognates"])
def test_cli_peak_memory_does_not_grow_with_the_segments(tmp_path, command):
    peaks = {}
    for count in (500, 3_000):
        paths = _eval_inputs(tmp_path, count)
        args = {
            "score": ["score", "--hyp", paths["hyp"], "--ref", paths["ref"], "--lang", "ca"],
            "cognates": ["cognates", "--src", paths["source"], "--ref", paths["ref"], "--sys", paths["hyp"]]
            + ["--dump", tmp_path / f"{count}.tsv"],
        }[command]
        peaks[count] = script_peak_rss_mb(_CLI_PEAK, *args)
    # reading the files whole cost about 2.5 (score) and 1.6 (cognates) MB per thousand
    assert peaks[3_000] - peaks[500] <= 1.0, peaks


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("lowercase", [False, True])
def test_eval_scores_equal_cli_score_of_its_output(tmp_path, lowercase, workers):
    """The eval pass scores the token lists that it shares with cognates;
    ``score_report`` reads the detokenized file back and tokenizes it anew.
    On a ca->es eval of three chunks, where both languages have their own
    rules, the eval's score.json is ``score_report`` of the detokenized
    output against the same reference."""
    paths = _eval_inputs(tmp_path, 300, src="ca", tgt="es")
    hyp_lines = paths["hyp"].read_text(encoding="utf-8").splitlines()
    # upper-cased segments make ``lowercase`` change the scores
    paths["hyp"].write_text("".join((line.upper() if k % 3 == 0 else line) + "\n" for k, line in enumerate(hyp_lines)), encoding="utf-8")
    cfg = _eval_config(tmp_path, paths, src_lang="ca", tgt_lang="es", lowercase=str(lowercase).lower(), workers=workers)
    out = tmp_path / "out"
    result = CliRunner().invoke(cli, ["pipeline", "--config", str(cfg), "--set", f"out_dir={out}"])
    assert result.exit_code == 0, result.output

    body = json.loads((out / "score.json").read_text(encoding="utf-8"))
    del body["tool_version"], body["config_echo"]
    assert body == score_report(out / "detokenized.hyp", paths["ref"], lang="es", lowercase=lowercase).to_dict()
