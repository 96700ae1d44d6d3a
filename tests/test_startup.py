"""Start-up: what a command imports before it does any work.

numpy is imported only inside the langid functions that build arrays, and
multiprocessing only where a pool runs, so the eval commands (scoring,
cognates, tokenization, stats and the eval pipeline, over one chunk of
segments or many) never pay for either.
Each check runs in a fresh interpreter against the source tree; ``clean``
and ``langid-classify`` do load numpy, which shows the check can see an
import. The pool tests count the processes ``parallel_map`` asks for.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bitextkit.cleaner import clean
from bitextkit.corpus_io import SentencePair
from bitextkit.langid import save_model
from bitextkit.parallel import parallel_map
from bitextkit.pipeline import run_pipeline, validate_config

SRC = Path(__file__).resolve().parent.parent / "src"

_MAIN = """
import json, sys
import bitextkit.cli
sys.argv = ["bitextkit", *json.loads(sys.argv[1])]
code = 0
try:
    bitextkit.cli.main()
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "multiprocessing": "multiprocessing" in sys.modules}))
"""

ES = ["El comité aprobó la propuesta por unanimidad .", "La biblioteca cierra a mediodía los sábados ."]
CA = ["El comitè va aprovar la proposta per unanimitat .", "La biblioteca tanca al migdia els dissabtes ."]


def _fresh(*args: str) -> dict:
    """Run Python with ``args`` in a fresh interpreter, with ``src`` on the
    path and no ``BITEXTKIT_*`` settings; returns its last line, parsed."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("BITEXTKIT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _main(args: list) -> dict:
    result = _fresh("-c", _MAIN, json.dumps([str(arg) for arg in args]))
    assert result["code"] == 0
    return result


@pytest.fixture
def corpus(tmp_path):
    paths = {"es": tmp_path / "text.es", "ca": tmp_path / "text.ca"}
    for lang, lines in (("es", ES), ("ca", CA)):
        paths[lang].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return paths


def test_import_cli_loads_neither_numpy_nor_multiprocessing():
    loaded = _fresh(
        "-c",
        "import json, sys; import bitextkit.cli; print(json.dumps(sorted(sys.modules)))",
    )
    assert "numpy" not in loaded and "multiprocessing" not in loaded
    assert {"bitextkit.langid", "bitextkit.cleaner", "bitextkit.parallel"} <= set(loaded)


@pytest.mark.parametrize("command", ["score", "cognates", "tokenize", "detokenize", "stats", "pipeline"])
def test_eval_commands_never_load_numpy(command, corpus, tmp_path):
    es, ca = corpus["es"], corpus["ca"]
    out = tmp_path / "out.txt"
    config = tmp_path / "eval.cfg"
    config.write_text(
        f"task = eval\nsrc_lang = es\ntgt_lang = ca\nsource = {es}\nref = {ca}\nhyp = {ca}\nout_dir = {tmp_path / 'eval'}\n",
        encoding="utf-8",
    )
    args = {
        "score": ["score", "--hyp", ca, "--ref", ca, "--lang", "ca"],
        "cognates": ["cognates", "--src", es, "--ref", ca, "--sys", ca],
        "tokenize": ["tokenize", "--lang", "es", "--input", es, "--output", out],
        "detokenize": ["detokenize", "--lang", "es", "--input", es, "--output", out],
        "stats": ["stats", "--src", es, "--tgt", ca],
        "pipeline": ["pipeline", "--config", config],
    }[command]
    loaded = _main(args)
    assert loaded["numpy"] is False and loaded["multiprocessing"] is False


def _eval_config(tmp_path, segments: int, workers: int) -> Path:
    """An eval config over ``segments`` lines of each input."""
    paths = {"source": tmp_path / "long.es", "ref": tmp_path / "long.ca", "hyp": tmp_path / "long.hyp"}
    for key, lines in (("source", ES), ("ref", CA), ("hyp", CA)):
        paths[key].write_text("".join(lines[i % 2] + "\n" for i in range(segments)), encoding="utf-8")
    config = tmp_path / "long.cfg"
    values = {"task": "eval", "src_lang": "es", "tgt_lang": "ca", **paths, "workers": workers, "out_dir": tmp_path / "long"}
    config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return config


def test_eval_pipeline_over_several_chunks_with_one_worker_loads_neither(tmp_path):
    loaded = _main(["pipeline", "--config", _eval_config(tmp_path, 300, 1)])
    assert loaded["numpy"] is False and loaded["multiprocessing"] is False


@pytest.mark.parametrize("command", ["clean", "langid-classify"])
def test_model_commands_load_numpy(command, corpus, tmp_path, fixture_model):
    model = tmp_path / "m.lidm"
    save_model(fixture_model, model)
    args = {
        "clean": [
            "clean", "--src", corpus["es"], "--tgt", corpus["ca"], "--src-lang", "es", "--tgt-lang", "ca",
            "--model", model, "--out-prefix", tmp_path / "kept", "--report", tmp_path / "report.json",
        ],
        "langid-classify": ["langid-classify", "--model", model, "--file", corpus["es"]],
    }[command]
    assert _main(args)["numpy"] is True


class _CountingPool:
    """Stands in for ``multiprocessing.Pool``: records the process count
    it was asked for and maps in this process."""

    def __init__(self, started: list, processes, initializer=None, initargs=()):
        started.append(processes)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def started(monkeypatch):
    started = []
    monkeypatch.setattr(multiprocessing, "Pool", lambda *args, **kwargs: _CountingPool(started, *args, **kwargs))
    return started


def test_pool_starts_one_process_per_item_at_most(started):
    assert list(parallel_map(abs, [-3, 1, -2], workers=8)) == [3, 1, 2]
    assert list(parallel_map(abs, list(range(-5, 5)), workers=4)) == [5, 4, 3, 2, 1, 0, 1, 2, 3, 4]
    assert list(parallel_map(abs, [-1], workers=4)) == [1]
    assert started == [3, 4]


def test_cognates_and_clean_start_only_the_processes_their_chunks_use(started, fixture_model, cognates_command):
    pairs = [SentencePair(i, ES[i % 2], CA[i % 2], "es", "ca") for i in range(300)]
    assert cognates_command(pairs, None, 0.3, 4, 4) == cognates_command(pairs, None, 0.3, 4, 1)
    assert started == [3]  # 300 pairs are 3 chunks of 128

    started.clear()
    two_chunks = pairs[:200]
    pooled = clean(two_chunks, fixture_model, mode="both", workers=8, keep_decisions=True)
    single = clean(two_chunks, fixture_model, mode="both", workers=1, keep_decisions=True)
    assert pooled.report.decisions == single.report.decisions
    assert started == [2]


def test_eval_pipeline_starts_one_process_per_chunk_at_most(started, tmp_path):
    # 129 segments are two chunks of the eval pass; extraction inside a
    # chunk maps in its process
    config, errors = validate_config(_eval_config(tmp_path, 129, 2), env={})
    assert errors == []
    run_pipeline(config)
    assert started == [2]
    started.clear()
    config.workers = 4
    run_pipeline(config)
    assert started == [2]
