"""Language-identification-based noise removal for parallel corpora.

Three modes are supported: ``per_side`` classifies each side independently
and removes pairs whose sides disagree with their claimed languages or
collapse to a single language; ``concat`` classifies the concatenation of
the two sides and removes pairs it assigns to neither claimed language;
``both`` (the default) applies the concatenation check first and the
per-side checks after it. Pairs with a whitespace-only side are always
removed first. Every decision is tallied into an auditable report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

from .corpus_io import SentencePair, batched
from .exceptions import IndexMismatch, UnknownLanguage
from .langid import LangIdModel, boundary_evidence, evidence, normalize_text
from .parallel import parallel_map

MODES = ("per_side", "concat", "both")

# Pairs decided together: enough that the n-gram walk runs on long arrays,
# few enough that its temporary arrays stay under a megabyte (at most
# 0.7 MB, as tracemalloc counts them, on the chunks of the prep
# benchmark's 16,000 pairs).
_CHUNK_PAIRS = 128


class Reason(str, Enum):
    KEPT = "Kept"
    SAME_LANGUAGE = "SameLanguagePredicted"
    SOURCE_MISMATCH = "SourceLangMismatch"
    TARGET_MISMATCH = "TargetLangMismatch"
    CONCAT_MISMATCH = "ConcatLangMismatch"
    EMPTY_SIDE = "EmptySide"


@dataclass(frozen=True)
class CleaningDecision:
    index: int
    keep: bool
    reason: Reason
    predicted_source: Optional[str] = None
    predicted_target: Optional[str] = None
    predicted_concat: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "keep": self.keep,
            "reason": self.reason.value,
            "predicted_source": self.predicted_source,
            "predicted_target": self.predicted_target,
            "predicted_concat": self.predicted_concat,
        }


@dataclass
class CleaningReport:
    total: int
    kept: int
    removed_by_reason: dict
    decisions: Optional[list] = field(default=None)

    def to_dict(self) -> dict:
        payload = {
            "total": self.total,
            "kept": self.kept,
            "removed_by_reason": dict(self.removed_by_reason),
        }
        if self.decisions is not None:
            payload["decisions"] = [d.to_dict() for d in self.decisions]
        return payload

    def add(self, pairs: Sequence[SentencePair], decisions: Sequence[CleaningDecision]) -> list:
        """Tally a chunk of pairs and their decisions, and append the
        decisions when the report keeps them; returns the kept pairs."""
        kept = []
        tally = self.removed_by_reason
        for pair, decision in zip(pairs, decisions):
            if decision.keep:
                kept.append(pair)
            else:
                tally[decision.reason.value] = tally.get(decision.reason.value, 0) + 1
        self.total += len(pairs)
        self.kept += len(kept)
        if self.decisions is not None:
            self.decisions.extend(decisions)
        return kept


def report_body(report: CleaningReport, model: Optional[LangIdModel]) -> dict:
    """The body of a cleaning report, marked when no model checked the pairs."""
    body = report.to_dict()
    if model is None:
        body["cleaning"] = "disabled"
    return body


@dataclass
class CleanResult:
    kept: list
    report: CleaningReport


# worker-process state for parallel cleaning
_WORKER_MODEL: Optional[LangIdModel] = None
_WORKER_MODE: str = "both"


def _init_worker(model: Optional[LangIdModel], mode: str) -> None:
    global _WORKER_MODEL, _WORKER_MODE
    _WORKER_MODEL = model
    _WORKER_MODE = mode


def _decide_chunk(pairs: Sequence[SentencePair], model: LangIdModel, mode: str) -> list:
    """Decide a chunk of pairs from two batched evidence computations: one
    over both sides of every pair, one over the spaces joining them."""
    decisions = [CleaningDecision(pair.index, False, Reason.EMPTY_SIDE) for pair in pairs]
    live = [i for i, pair in enumerate(pairs) if pair.source.strip() and pair.target.strip()]

    # The concatenation's n-gram counts are exactly the per-side counts plus
    # the grams straddling the joining space, so one extraction per side
    # serves both the concat and the per-side checks. No evidence reads 0,
    # and adding 0.0 leaves the prior as it is.
    src_norm = [normalize_text(pairs[i].source) for i in live]
    tgt_norm = [normalize_text(pairs[i].target) for i in live]
    side = evidence(model, src_norm + tgt_norm)
    ev_src, ev_tgt = side[: len(live)], side[len(live) :]
    prior = model.log_prior
    best_src = (prior + ev_src).argmax(axis=1).tolist()
    best_tgt = (prior + ev_tgt).argmax(axis=1).tolist()
    best_concat = None
    if mode in ("concat", "both"):
        ev_boundary = boundary_evidence(model, src_norm, tgt_norm)
        best_concat = (prior + ev_src + ev_tgt + ev_boundary).argmax(axis=1).tolist()

    languages = model.languages
    for row, i in enumerate(live):
        pair = pairs[i]
        predicted_concat = None
        if best_concat is not None:
            predicted_concat = languages[best_concat[row]]
            if predicted_concat not in (pair.src_lang, pair.tgt_lang):
                decisions[i] = CleaningDecision(
                    pair.index, False, Reason.CONCAT_MISMATCH, predicted_concat=predicted_concat
                )
                continue
            if mode == "concat":
                decisions[i] = CleaningDecision(pair.index, True, Reason.KEPT, predicted_concat=predicted_concat)
                continue
        predicted_source = languages[best_src[row]]
        predicted_target = languages[best_tgt[row]]
        if predicted_source == predicted_target:
            reason = Reason.SAME_LANGUAGE
        elif predicted_source != pair.src_lang:
            reason = Reason.SOURCE_MISMATCH
        elif predicted_target != pair.tgt_lang:
            reason = Reason.TARGET_MISMATCH
        else:
            reason = Reason.KEPT
        decisions[i] = CleaningDecision(
            pair.index,
            reason is Reason.KEPT,
            reason,
            predicted_source=predicted_source,
            predicted_target=predicted_target,
            predicted_concat=predicted_concat,
        )
    return decisions


def _decide_in_worker(pairs: Sequence[SentencePair]) -> list:
    return _decide_chunk(pairs, _WORKER_MODEL, _WORKER_MODE)


class _Chunks:
    """``pairs`` in lists of ``_CHUNK_PAIRS``, read as they are iterated and
    queued until the caller takes their decisions. Its length is the number
    of lists that ``total`` pairs make, by which ``parallel_map`` sizes its
    pool."""

    def __init__(self, pairs: Iterable[SentencePair], total: int, languages: Sequence[str]):
        self.pairs = pairs
        self.total = total
        self.languages = languages
        self.read: deque = deque()

    def __len__(self) -> int:
        return -(-self.total // _CHUNK_PAIRS)

    def __iter__(self) -> Iterator[list]:
        known = set(self.languages)
        for chunk in batched(self.pairs, _CHUNK_PAIRS):
            for pair in chunk:
                if pair.src_lang == pair.tgt_lang:
                    raise ValueError(f"pair {pair.index}: src_lang equals tgt_lang ({pair.src_lang!r})")
                for code in (pair.src_lang, pair.tgt_lang):
                    if code not in known:
                        raise UnknownLanguage(code, self.languages)
            self.read.append(chunk)
            yield chunk


def clean_chunks(
    pairs: Iterable[SentencePair], total: int, model: Optional[LangIdModel], mode: str = "both", workers: int = 1
) -> Iterator[tuple[list, list]]:
    """Decide ``pairs`` a chunk of ``_CHUNK_PAIRS`` at a time, yielding each
    chunk with its decisions in input order. ``total``, the number of
    pairs, sizes the pool; ``pairs`` is read only a bounded number of
    chunks ahead of the chunks taken, so a streamed corpus is never held
    whole. With ``model`` None every pair is kept (the no-clean
    pass-through).

    Raises UnknownLanguage when a pair claims a language the model does not
    cover, and ValueError when a pair claims the same language twice.
    Decisions are pure per pair, so any ``workers`` count yields identical
    output.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if model is None:
        for chunk in batched(pairs, _CHUNK_PAIRS):
            yield chunk, [CleaningDecision(pair.index, True, Reason.KEPT) for pair in chunk]
        return
    chunks = _Chunks(pairs, total, model.languages)
    try:
        for decisions in parallel_map(
            _decide_in_worker, chunks, workers=workers, initializer=_init_worker, initargs=(model, mode)
        ):
            yield chunks.read.popleft(), decisions
    finally:
        # an in-process map sets the worker state here; it need not outlive the map
        _init_worker(None, "both")


def clean(
    pairs: Iterable[SentencePair],
    model: LangIdModel,
    mode: str = "both",
    workers: int = 1,
    keep_decisions: bool = False,
) -> CleanResult:
    """Filter a corpus, returning kept pairs (input order) and a report.
    It is ``clean_chunks`` over a list, and raises as that does."""
    pairs = list(pairs)
    report = CleaningReport(0, 0, {}, [] if keep_decisions else None)
    kept = []
    for chunk, decisions in clean_chunks(pairs, len(pairs), model, mode, workers):
        kept += report.add(chunk, decisions)
    return CleanResult(kept=kept, report=report)


def _render_predicted(decision: CleaningDecision) -> str:
    parts = []
    if decision.predicted_concat is not None:
        parts.append(decision.predicted_concat)
    if decision.predicted_source is not None or decision.predicted_target is not None:
        parts.append(f"{decision.predicted_source or '-'}/{decision.predicted_target or '-'}")
    return " ".join(parts) if parts else "-"


def audit_table(
    decisions: Sequence[CleaningDecision],
    pairs: Sequence[SentencePair],
    fmt: str = "tsv",
) -> str:
    """Render removed pairs as a claimed-vs-predicted audit table.

    One row per removed pair, in index order: the pair text, the claimed
    codes, the languages the classifier saw, and the removal reason.
    """
    if fmt not in ("tsv", "text"):
        raise ValueError(f"fmt must be 'tsv' or 'text', got {fmt!r}")
    if len(decisions) != len(pairs):
        raise IndexMismatch(f"{len(decisions)} decisions for {len(pairs)} pairs")
    for decision, pair in zip(decisions, pairs):
        if decision.index != pair.index:
            raise IndexMismatch(f"decision index {decision.index} does not match pair {pair.index}")

    header = ("index", "source", "target", "claimed", "predicted", "reason")
    rows = [
        (
            str(pair.index),
            pair.source,
            pair.target,
            f"{pair.src_lang}-{pair.tgt_lang}",
            _render_predicted(decision),
            decision.reason.value,
        )
        for decision, pair in zip(decisions, pairs)
        if not decision.keep
    ]
    if fmt == "tsv":
        lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
        return "\n".join(lines)
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i]) for i in range(6)]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(6))]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(6)))
    return "\n".join(lines)
