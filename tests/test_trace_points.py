"""The benchmark traces the package's public functions by module and name
(``perfbench/spans.py``, ``TRACED``). A rename there is reported only on
stderr during traced runs; this test makes it fail the suite instead."""

import importlib
import importlib.util
from pathlib import Path

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
