"""In-memory span tracing of the package's public functions, from outside.

``install()`` replaces each function in ``TRACED``, in every loaded
``bitextkit`` module that refers to it, by a wrapper that records a span:
id, parent id, name, start, end and a small ``info`` value (the items of
the call, where the layer has a count). Spans stay in memory until
``Tracer.dump`` writes them out after the pipeline has finished.

Functions that ``parallel.parallel_map`` maps run wrapped in ``_Mapped``,
which records their spans locally and returns them with the result, so the
spans of pool workers reach the parent process. All times come from
``time.perf_counter``, which on Linux reads the system-wide monotonic clock
and so agrees between processes.

A span's layer is its name up to the last dot (``metrics.ter.ter`` belongs
to ``metrics.ter``). ``layer_metrics`` turns one invocation's spans into the
per-layer figures; a layer's self time is its span time minus the part of
it that child spans cover.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

PACKAGE = "bitextkit"


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, parent, name, start, end, info]
        self.stack: list = []

    def open(self, name: str) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else -1, name, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded elsewhere, re-numbered, under ``parent``."""
        offset = len(self.spans)
        for sid, par, name, start, end, info in spans:
            self.spans.append([sid + offset, par + offset if par >= 0 else parent, name, start, end, info])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


TRACER = Tracer()


def peak_rss_mb() -> float:
    """The high-water mark of this process's resident set (VmHWM).

    ``getrusage`` is no use here: Linux carries ``ru_maxrss`` across exec,
    so a child started by a large parent reports the parent's peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _bind(fn):
    import inspect

    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound

    return bind


def counted(count=None):
    """Wrapper factory: one span per call; ``count(arguments, result)``, when
    given, is stored as the span's item count."""

    def make(name: str, fn):
        bind = _bind(fn)

        def wrapper(*args, **kwargs):
            span = TRACER.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                TRACER.close(span)
            if count is not None:
                span[5] = count(bind(args, kwargs).arguments, result)
            return result

        return wrapper

    return make


def reader(name: str, fn):
    """Wrapper factory for a generator of pairs: one span for the time spent
    inside the generator, with [pairs, VmHWM growth in MB from the first to
    the last pair]. The span ends that long after it starts, which is exact
    when the caller reads everything at once."""

    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        rss_before = peak_rss_mb()
        start = time.perf_counter()
        busy, count = 0.0, 0
        while True:
            tick = time.perf_counter()
            try:
                pair = next(items)
            except StopIteration:
                busy += time.perf_counter() - tick
                break
            busy += time.perf_counter() - tick
            count += 1
            yield pair
        parent = TRACER.stack[-1] if TRACER.stack else -1
        info = [count, peak_rss_mb() - rss_before]
        TRACER.spans.append([len(TRACER.spans), parent, name, start, start + busy, info])

    return wrapper


class _Mapped:
    """A mapped function that returns its spans along with its result; it
    pickles by reference, so it also runs in pool workers."""

    def __init__(self, name: str, fn):
        self.name = name
        self.fn = fn

    def __call__(self, item):
        saved = TRACER.spans, TRACER.stack
        TRACER.spans, TRACER.stack = [], []
        try:
            span = TRACER.open(self.name)
            try:
                result = self.fn(item)
            finally:
                TRACER.close(span)
            return result, TRACER.spans
        finally:
            TRACER.spans, TRACER.stack = saved


def _cpu_seconds(workers: int) -> float:
    """CPU time of the mapping processes: this one when the map runs
    in-process, the reaped pool workers otherwise."""
    usage = resource.getrusage(resource.RUSAGE_SELF if workers <= 1 else resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def mapper(name: str, fn):
    """Wrapper factory for ``parallel_map``: the mapped function's spans
    are adopted under the map's span, whose info is [workers, CPU seconds]."""
    bind = _bind(fn)

    def wrapper(*args, **kwargs):
        bound = bind(args, kwargs)
        mapped = bound.arguments["fn"]
        bound.arguments["fn"] = _Mapped(f"{mapped.__module__[len(PACKAGE) + 1 :]}.{mapped.__name__}", mapped)
        workers = max(1, min(bound.arguments["workers"], len(bound.arguments["items"])))
        cpu_before = _cpu_seconds(workers)
        span = TRACER.open(name)
        try:
            results = fn(*bound.args, **bound.kwargs)
        finally:
            TRACER.close(span)
        span[5] = [workers, _cpu_seconds(workers) - cpu_before]
        out = []
        for result, spans in results:
            TRACER.adopt(spans, span[0])
            out.append(result)
        return out

    return wrapper


def extractor(name: str, fn):
    """Wrapper factory for ``extract_cognates``: info is [pairs, source x
    target word comparisons], counted here from the tokenized input."""
    bind = _bind(fn)

    def wrapper(*args, **kwargs):
        bound = bind(args, kwargs)
        pairs = bound.arguments["pairs"] = list(bound.arguments["pairs"])
        min_len = bound.arguments["min_len"]
        comparisons = sum(
            sum(1 for tok in p.source.split() if len(tok) >= min_len) * len(p.target.split()) for p in pairs
        )
        span = TRACER.open(name)
        try:
            result = fn(*bound.args, **bound.kwargs)
        finally:
            TRACER.close(span)
        span[5] = [len(pairs), comparisons]
        return result

    return wrapper


# (module under the package, function, wrapper factory)
TRACED = (
    ("pipeline", "validate_config", counted()),
    ("pipeline", "run_pipeline", counted()),
    ("corpus_io", "read_parallel", reader),
    ("corpus_io", "corpus_stats", counted(lambda args, result: result.sentence_count)),
    ("corpus_io", "write_parallel", counted(lambda args, result: result)),
    ("langid", "load_model", counted()),
    ("langid", "normalize_text", counted()),
    ("langid", "evidence", counted()),
    ("langid", "boundary_evidence", counted()),
    ("cleaner", "clean", counted(lambda args, result: result.report.total)),
    ("parallel", "parallel_map", mapper),
    ("tokenizer", "resolve_rules", counted()),
    ("tokenizer", "tokenize", counted()),
    ("tokenizer", "detokenize", counted()),
    ("metrics.report", "score_report", counted()),
    ("metrics.report", "score_corpus", counted()),
    ("metrics.bleu", "bleu_corpus", counted(lambda args, result: len(args["hypotheses"]))),
    ("metrics.ribes", "ribes_corpus", counted(lambda args, result: len(args["hypotheses"]))),
    ("metrics.ter", "ter_corpus", counted()),
    ("metrics.ter", "ter", counted()),
    ("cognates", "extract_cognates", extractor),
    ("cognates", "count_examined", counted()),
    ("cognates", "preservation", counted()),
)


def install() -> list:
    """Wrap the traced functions of the loaded package; returns the names
    it could not find, so that a renamed function is reported, not hidden."""
    missing = []
    for mod_name, fn_name, make in TRACED:
        module = sys.modules.get(f"{PACKAGE}.{mod_name}")
        original = getattr(module, fn_name, None)
        if original is None:
            missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapper = make(f"{mod_name}.{fn_name}", original)
        for name, loaded in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
    return missing


def _self_times(spans: list) -> list:
    children: dict = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append(span)
    selfs = []
    for span in spans:
        start, end = span[3], span[4]
        covered, reach = 0.0, start
        for child in sorted(children.get(span[0], ()), key=lambda s: s[3]):
            lo, hi = max(child[3], reach), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        selfs.append(end - start - covered)
    return selfs


def tail_percentile(count: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def _percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans: list) -> tuple:
    """Per-layer figures of one traced pipeline invocation, and the self
    time of each layer. A layer that did not run reads 0."""
    self_by_layer: dict = {}
    by_name: dict = {}
    for span, own in zip(spans, _self_times(spans)):
        layer = span[2].rsplit(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        by_name.setdefault(span[2], []).append(span)

    def of(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum((s[4] - s[3] for s in of(name)), 0.0)

    def per_s(count, name):
        return count / seconds(name) if seconds(name) > 0 else 0.0

    maps = of("parallel.parallel_map")
    capacity = sum(s[5][0] * (s[4] - s[3]) for s in maps)
    ter_ms = [(s[4] - s[3]) * 1000 for s in of("metrics.ter.ter")]
    return {
        "corpus_io.read_pairs_per_s": per_s(sum(s[5][0] for s in of("corpus_io.read_parallel")), "corpus_io.read_parallel"),
        "corpus_io.read_rss_mb": sum((s[5][1] for s in of("corpus_io.read_parallel")), 0.0),
        "corpus_io.stats_pairs_per_s": per_s(sum(s[5] for s in of("corpus_io.corpus_stats")), "corpus_io.corpus_stats"),
        "corpus_io.write_pairs_per_s": per_s(sum(s[5] for s in of("corpus_io.write_parallel")), "corpus_io.write_parallel"),
        "langid.self_s": self_by_layer.get("langid", 0.0),
        "cleaner.pairs_per_s": per_s(sum(s[5] for s in of("cleaner.clean")), "cleaner.clean"),
        "cleaner.self_s": self_by_layer.get("cleaner", 0.0),
        "parallel.map_s": seconds("parallel.parallel_map"),
        "parallel.worker_busy_ratio": sum(s[5][1] for s in maps) / capacity if capacity > 0 else 0.0,
        "tokenizer.tokenize_lines_per_s": per_s(len(of("tokenizer.tokenize")), "tokenizer.tokenize"),
        "tokenizer.detokenize_lines_per_s": per_s(len(of("tokenizer.detokenize")), "tokenizer.detokenize"),
        "metrics.report.self_s": self_by_layer.get("metrics.report", 0.0),
        "metrics.bleu.segs_per_s": per_s(sum(s[5] for s in of("metrics.bleu.bleu_corpus")), "metrics.bleu.bleu_corpus"),
        "metrics.ribes.segs_per_s": per_s(sum(s[5] for s in of("metrics.ribes.ribes_corpus")), "metrics.ribes.ribes_corpus"),
        "metrics.ter.segs_per_s": per_s(len(ter_ms), "metrics.ter.ter"),
        "metrics.ter.seg_ms_p50": _percentile(ter_ms, 50.0) if ter_ms else 0.0,
        "metrics.ter.seg_ms_tail": _percentile(ter_ms, tail_percentile(len(ter_ms))) if ter_ms else 0.0,
        "cognates.extract_pairs_per_s": per_s(sum(s[5][0] for s in of("cognates.extract_cognates")), "cognates.extract_cognates"),
        "cognates.comparisons_per_s": per_s(sum(s[5][1] for s in of("cognates.extract_cognates")), "cognates.extract_cognates"),
        "cognates.preservation_s": seconds("cognates.preservation"),
        "pipeline.self_s": self_by_layer.get("pipeline", 0.0),
    }, self_by_layer
