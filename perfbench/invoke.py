"""One fresh interpreter: a set-up start, a reference start, or one
pipeline invocation.

    invoke.py setup <model or -> <lang> <other lang>
    invoke.py reference
    invoke.py run <config> <out dir> <trace file or ->

A set-up start imports ``bitextkit.cli``, loads the langid model (when one
is named) and resolves the tokenizer rules of both sides, which is what a
user pays before the first item. A reference start imports the package's
dependencies but not the package: it gauges how fast the machine starts
interpreters at that moment. A run invokes the CLI's ``pipeline``
subcommand as ``bitextkit pipeline --config <config> --set out_dir=<dir>``
would. The last line of standard output is a JSON object of
``time.monotonic()`` stamps (a clock that the parent process shares),
durations, and for a run the peak resident memory of this process.
"""

import json
import sys
import time


def setup(model: str, lang: str, other: str) -> dict:
    t_import = time.monotonic()
    import bitextkit.cli  # noqa: F401
    from bitextkit.langid import load_model
    from bitextkit.tokenizer import resolve_rules

    t_model = time.monotonic()
    if model != "-":
        load_model(model)
    t_rules = time.monotonic()
    resolve_rules(lang, other)
    resolve_rules(other, lang)
    t_ready = time.monotonic()
    return {
        "import_s": t_model - t_import,
        "load_model_s": t_rules - t_model if model != "-" else 0.0,
        "resolve_rules_s": t_ready - t_rules,
        "ready": t_ready,
    }


def reference() -> dict:
    import hashlib  # noqa: F401
    import importlib.resources  # noqa: F401
    import multiprocessing  # noqa: F401
    import unicodedata  # noqa: F401

    import click  # noqa: F401
    import numpy  # noqa: F401
    import regex  # noqa: F401

    return {"ready": time.monotonic()}


def run(config: str, out_dir: str, trace_path: str) -> dict:
    import bitextkit.cli
    import spans

    tracer = None
    if trace_path != "-":
        missing = spans.install()
        if missing:
            print("untraced (not found): " + ", ".join(missing), file=sys.stderr)
        tracer = spans.TRACER
    sys.argv = ["bitextkit", "pipeline", "--config", config, "--set", f"out_dir={out_dir}"]
    code = 0
    start = time.monotonic()
    root = tracer.open("cli.main") if tracer else None
    try:
        bitextkit.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    end = time.monotonic()
    if tracer:
        tracer.close(root)
        tracer.dump(trace_path)
    return {"code": code, "start": start, "end": end, "peak_rss_mb": spans.peak_rss_mb()}


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        result = setup(*sys.argv[2:5])
    elif sys.argv[1] == "reference":
        result = reference()
    else:
        result = run(*sys.argv[2:5])
    print(json.dumps(result))
    sys.exit(result.get("code", 0))
