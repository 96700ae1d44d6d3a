"""The benchmark traces the package's public functions by module and name
(``perfbench/spans.py``, ``TRACED``). A rename there is reported only on
stderr during traced runs; these tests make it fail the suite instead, and
so does a refactor that stops calling a traced function once per item where
a per-layer figure counts its spans."""

import importlib
import importlib.util
import sys
from pathlib import Path

from bitextkit.metrics import score_corpus
from bitextkit.metrics.ter import ter

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{function}"
        for module, function, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), function, None))
    ]
    assert spans.TRACED and missing == []


def test_ter_corpus_calls_the_traced_ter_once_per_segment(monkeypatch):
    # metrics.ter.seg_ms_p50 and seg_ms_tail are read off one metrics.ter.ter
    # span per segment; install() wraps the function wherever a module refers to it
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return ter(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("bitextkit"):
            for attr, value in list(vars(module).items()):
                if value is ter:
                    monkeypatch.setattr(module, attr, wrapper)
    hyps = [["a", "b", "c"], ["a", "c", "b"], [], ["x"], ["a", "b", "c"]]
    refs = [[["a", "b", "c"]], [["a", "b", "c"]], [["a"]], [["y"], ["x"]], [["c", "b"], ["a", "b", "c"]]]
    score_corpus(hyps, refs)
    assert calls == hyps
