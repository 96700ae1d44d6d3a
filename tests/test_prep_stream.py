"""Prep as one streaming pass: it runs under the benchmark's tracer with
the same artifacts, failures are reported by the stage that would have
failed first had each stage run over the whole corpus in turn, and peak
memory does not grow with the corpus."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from bitextkit.cli import cli
from bitextkit.corpus_io import write_parallel
from bitextkit.langid import save_model
from bitextkit.pipeline import StageFailure, run_pipeline, validate_config

from synth import synthetic_noisy_corpus, throughput_corpus

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _prep_config(tmp_path, model, source, target, **values) -> Path:
    cfg = tmp_path / "prep.cfg"
    settings = {"task": "prep", "src_lang": "es", "tgt_lang": "ca", "source": source, "target": target, "model": model}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**settings, **values}.items()), encoding="utf-8")
    return cfg


@pytest.fixture
def model_path(tmp_path, fixture_model):
    path = tmp_path / "model.lidm"
    save_model(fixture_model, path)
    return path


def _artifacts(out: Path) -> dict:
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_unix")
            data = manifest
        files[path.name] = data
    return files


def _traced(monkeypatch):
    """Load the benchmark's tracer and wrap every traced function wherever
    the package refers to it, as ``install()`` does, but through
    ``monkeypatch`` so that the wrappers go with the test."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # pool workers unpickle the tracer's mapped-function wrapper by module name
    monkeypatch.setitem(sys.modules, "perfbench_spans", spans)
    spec.loader.exec_module(spans)
    for module_name, function, make in spans.TRACED:
        original = getattr(importlib.import_module(f"{spans.PACKAGE}.{module_name}"), function)
        wrapper = make(f"{module_name}.{function}", original)
        for name, module in list(sys.modules.items()):
            if name == spans.PACKAGE or name.startswith(spans.PACKAGE + "."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    return spans


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_prep_matches_an_untraced_run(tmp_path, model_path, monkeypatch, workers):
    pairs, _ = synthetic_noisy_corpus(n_clean=400, n_copied=40, n_wrong=40)
    write_parallel(pairs, tmp_path / "corpus.es", tmp_path / "corpus.ca")
    cfg = _prep_config(tmp_path, model_path, tmp_path / "corpus.es", tmp_path / "corpus.ca", workers=workers)
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
    assert len(untraced) == 9
    assert layers["corpus_io.read_pairs_per_s"] > 0
    assert {span[2] for span in recorded} >= {"pipeline.run_pipeline", "parallel.parallel_map", "cleaner._decide_in_worker"}


@pytest.mark.parametrize(
    "source, target, detail",
    [
        (b"hola\n\xff mundo\n", b"hola\nmon\n", "{source}: invalid UTF-8 at byte offset 5 (invalid start byte)"),
        (b"hola\nmundo\n", b"hola\n", "{source} / {target}: line counts differ: 2 vs 1"),
    ],
    ids=["invalid-utf8", "line-count-mismatch"],
)
def test_a_read_error_fails_stats_before_and_leaves_only_the_manifest(tmp_path, model_path, source, target, detail):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "in.es").write_bytes(source)
    (corpus / "in.ca").write_bytes(target)
    cfg = _prep_config(tmp_path, model_path, corpus / "in.es", corpus / "in.ca", out_dir=tmp_path / "out")
    config, errors = validate_config(cfg, env={})
    assert errors == []
    with pytest.raises(StageFailure) as failure:
        run_pipeline(config)
    message = detail.format(source=corpus / "in.es", target=corpus / "in.ca")
    assert str(failure.value) == f"stage 'stats_before' failed: {message}"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["failed_stage"] == "stats_before"
    assert manifest["stages"] == [{"name": "stats_before", "status": "failed", "error": message}]
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["manifest.json"]


def test_a_later_stage_fails_after_stats_before_is_recorded(tmp_path):
    # with cleaning off the pair is kept, and its source cannot be written
    # back unchanged: "hola\r\r" reads as "hola\r"
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "in.es").write_bytes(b"hola\r\r\n" + b"mundo\n" * 199)
    (corpus / "in.ca").write_bytes(b"hola\n" + b"mon\n" * 199)
    cfg = _prep_config(tmp_path, "-", corpus / "in.es", corpus / "in.ca", clean_enabled="false", out_dir=tmp_path / "out")
    config, errors = validate_config(cfg, env={})
    assert errors == []
    with pytest.raises(StageFailure) as failure:
        run_pipeline(config)
    assert str(failure.value) == "stage 'clean' failed: pair 0: source text ends in a carriage return"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [("stats_before", "ok"), ("clean", "failed")]
    before = json.loads((tmp_path / "out" / "stats_before.json").read_text(encoding="utf-8"))
    assert before["sentence_count"] == 200
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["manifest.json", "stats_before.json"]

    # a read error past the pair that fails to be written still fails stats_before
    (corpus / "in.es").write_bytes(b"hola\r\r\n" + b"mundo\n" * 198 + b"\xff\n")
    with pytest.raises(StageFailure) as failure:
        run_pipeline(config)
    assert failure.value.stage == "stats_before"
    assert str(failure.value).endswith(f"{corpus / 'in.es'}: invalid UTF-8 at byte offset {7 + 6 * 198} (invalid start byte)")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [("stats_before", "failed")]


# artifact made a directory before the run: the stage that fails, the
# stages recorded before it, and the artifacts left beside the manifest
_UNWRITABLE = {
    "stats_before.json": ("stats_before", [], []),
    "cleaned.es": ("clean", ["stats_before"], ["stats_before.json"]),
    "cleaned.ca": ("clean", ["stats_before"], ["stats_before.json"]),
    "cleaning_report.json": ("clean", ["stats_before"], ["cleaned.ca", "cleaned.es", "stats_before.json"]),
    "stats_after.json": (
        "stats_after",
        ["stats_before", "clean"],
        ["cleaned.ca", "cleaned.es", "cleaning_report.json", "stats_before.json"],
    ),
    "tokenized.es": ("tokenize", ["stats_before"], ["stats_before.json"]),
    "tokenized.ca": ("tokenize", ["stats_before"], ["stats_before.json"]),
    "tokenize_report.json": (
        "tokenize",
        ["stats_before", "clean", "stats_after"],
        ["cleaned.ca", "cleaned.es", "cleaning_report.json", "stats_after.json", "stats_before.json", "tokenized.ca", "tokenized.es"],
    ),
}


@pytest.mark.parametrize("clean_enabled", ["true", "false"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("artifact", sorted(_UNWRITABLE))
def test_an_unwritable_artifact_fails_its_stage_and_leaves_no_later_stage_artifact(
    tmp_path, model_path, artifact, workers, clean_enabled
):
    pairs, _ = synthetic_noisy_corpus(n_clean=250, n_copied=25, n_wrong=25)
    write_parallel(pairs, tmp_path / "corpus.es", tmp_path / "corpus.ca")
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    cfg = _prep_config(
        tmp_path, model_path, tmp_path / "corpus.es", tmp_path / "corpus.ca",
        workers=workers, clean_enabled=clean_enabled, out_dir=out,
    )
    config, errors = validate_config(cfg, env={})
    assert errors == []
    with pytest.raises(StageFailure) as failure:
        run_pipeline(config)

    stage, recorded, left = _UNWRITABLE[artifact]
    message = f"[Errno 21] Is a directory: '{out / artifact}'"
    stem, _, lang = artifact.partition(".")
    if lang in ("es", "ca"):
        message = f"writing parallel corpus to {out / stem}.es / {out / stem}.ca: {message}"
    assert failure.value.stage == stage
    assert str(failure.value.cause) == message
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["failed_stage"] == stage
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [(name, "ok") for name in recorded] + [(stage, "failed")]
    assert manifest["stages"][-1]["error"] == message
    assert sorted(path.name for path in out.iterdir()) == sorted([artifact, "manifest.json", *left])


_PEAK = """
import sys
from bitextkit.pipeline import run_pipeline, validate_config
config, errors = validate_config(sys.argv[1], overrides={"out_dir": sys.argv[2]}, env={})
assert errors == [], errors
run_pipeline(config)
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024)
"""


def _peak_rss_mb(cfg: Path, out: Path) -> float:
    env = {key: value for key, value in os.environ.items() if not key.startswith("BITEXTKIT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK, str(cfg), str(out)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout.splitlines()[-1])


def test_peak_memory_does_not_grow_with_the_corpus(tmp_path, model_path):
    peaks = {}
    for size in (4_000, 24_000):
        source, target = tmp_path / f"{size}.es", tmp_path / f"{size}.ca"
        write_parallel(throughput_corpus(size), source, target)
        cfg = _prep_config(tmp_path, model_path, source, target)
        peaks[size] = _peak_rss_mb(cfg, tmp_path / f"out-{size}")
    # holding the corpus costs about 0.5 MB per thousand pairs
    assert peaks[24_000] - peaks[4_000] <= 2.0, peaks
