"""Corpus and sentence BLEU with clipped n-gram precisions.

Conventions follow the original corpus definition: clipped counts are summed
over the corpus for n = 1..4, the effective reference length of a segment is
the reference length closest to the hypothesis length (ties go to the
shorter), and the unsmoothed score is 0 whenever any corpus-level precision
is 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .segments import fold_segments

MAX_ORDER = 4

Tokens = Sequence[str]


@dataclass(frozen=True)
class BleuScore:
    """BLEU in [0, 100] plus its sufficient statistics.

    ``precisions`` are fractions in [0, 1], not percentages.
    """

    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _closest_ref_len(hyp_len: int, refs: Sequence[Tokens]) -> int:
    best_len = None
    best_diff = None
    for ref in refs:
        ref_len = len(ref)
        diff = abs(hyp_len - ref_len)
        if best_diff is None or diff < best_diff or (diff == best_diff and ref_len < best_len):
            best_diff = diff
            best_len = ref_len
    return best_len


def _grams(tokens: Tokens, n: int) -> list:
    """The n-grams of ``tokens`` as tuples, in order."""
    return [tuple(tokens[k : k + n]) for k in range(len(tokens) - n + 1)]


def _clipped(hyp: Tokens, refs: Sequence[Tokens], n: int) -> int:
    """The n-gram matches of ``hyp``: each gram counts at most as often as
    it occurs in one of the references, whichever has it most."""
    grams = _grams(hyp, n)
    distinct = set(grams)
    if len(distinct) == len(grams):  # every count is 1: a gram matches where any reference has it
        return len(set().union(*(distinct.intersection(_grams(ref, n)) for ref in refs)))
    clip = Counter(_grams(refs[0], n))
    for ref in refs[1:]:
        clip |= Counter(_grams(ref, n))
    return sum(min(count, clip.get(gram, 0)) for gram, count in Counter(grams).items())


@dataclass(frozen=True)
class BleuStats:
    """One segment's sufficient statistics: its clipped and total n-gram
    counts for n = 1..4, its length and its closest reference length."""

    correct: tuple
    total: tuple
    hyp_len: int
    ref_len: int


def segment_stats(hyp: Tokens, refs: Sequence[Tokens]) -> BleuStats:
    """The segment's clipped and total n-gram counts, n = 1..4, and lengths.

    A hypothesis has ``max(0, len - n + 1)`` n-grams. When it equals a
    reference, that reference clips none of them, and the clip is a
    maximum over references, so every gram counts in full.
    """
    if not refs:
        raise ValueError("at least one reference is required")
    hyp = tuple(hyp)
    total = tuple(max(0, len(hyp) - n + 1) for n in range(1, MAX_ORDER + 1))
    if any(tuple(ref) == hyp for ref in refs):
        correct = total
    else:
        correct = tuple(_clipped(hyp, refs, n) for n in range(1, MAX_ORDER + 1))
    return BleuStats(correct, total, len(hyp), _closest_ref_len(len(hyp), refs))


class BleuFold:
    """Corpus BLEU as a fold: ``add`` each segment's ``BleuStats``, then
    read ``score()``. The statistics are integers, so their order does not
    matter."""

    def __init__(self):
        self.correct = [0] * MAX_ORDER
        self.total = [0] * MAX_ORDER
        self.hyp_len = self.ref_len = 0

    def add(self, stats: BleuStats) -> None:
        for n in range(MAX_ORDER):
            self.correct[n] += stats.correct[n]
            self.total[n] += stats.total[n]
        self.hyp_len += stats.hyp_len
        self.ref_len += stats.ref_len

    def score(self) -> BleuScore:
        return _score_from_stats(self.correct, self.total, self.hyp_len, self.ref_len)


def _score_from_stats(
    correct: list,
    total: list,
    hyp_len: int,
    ref_len: int,
    smoothing: str = "none",
) -> BleuScore:
    precisions = []
    for n in range(1, MAX_ORDER + 1):
        c, t = correct[n - 1], total[n - 1]
        p = c / t if t > 0 else 0.0
        if p == 0.0 and smoothing == "add_one_on_zero" and n >= 2:
            p = (c + 1) / (t + 1)
        precisions.append(p)

    if hyp_len == 0:
        bp = 0.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)

    if any(p == 0.0 for p in precisions):
        bleu = 0.0
    else:
        log_mean = sum(math.log(p) for p in precisions) / MAX_ORDER
        bleu = 100.0 * bp * math.exp(log_mean)
    return BleuScore(bleu, tuple(precisions), bp, hyp_len, ref_len)


def bleu_corpus(hypotheses: Sequence[Tokens], references: Sequence[Sequence[Tokens]]) -> BleuScore:
    """Corpus BLEU of tokenized hypotheses against one or more references each.

    ``references[i]`` is the list of reference token lists for hypothesis i.
    Raises EmptyCorpus for a zero-length corpus and LineCountMismatch when
    the hypothesis and reference corpora disagree in length.
    """
    return fold_segments(BleuFold(), segment_stats, hypotheses, references).score()


def bleu_sentence(hyp: Tokens, refs: Sequence[Tokens], smoothing: str = "none") -> BleuScore:
    """Sentence BLEU; with ``smoothing="add_one_on_zero"`` any zero precision
    for n >= 2 becomes (correct+1)/(total+1)."""
    if smoothing not in ("none", "add_one_on_zero"):
        raise ValueError(f"unknown smoothing {smoothing!r}")
    stats = segment_stats(hyp, refs)
    return _score_from_stats(stats.correct, stats.total, stats.hyp_len, stats.ref_len, smoothing)
