"""Rank-based word-order score (RIBES).

Each hypothesis word is aligned to a reference position: a word unique to
both sides aligns directly; an ambiguous word is disambiguated by growing a
one-word context window left and right until the n-gram is unique in both
sides; anything still ambiguous stays unaligned. The normalized Kendall's
tau NKT = (tau + 1)/2 over the aligned reference ranks (read in hypothesis
order) is scaled by unigram precision and brevity penalty at the fixed
weights ``DEFAULT_ALPHA`` = 0.25 and ``DEFAULT_BETA`` = 0.10 of Isozaki et
al. (2010): ribes = nkt * P**alpha * BP**beta. NKT lies in [0, 1], not
tau's [-1, 1]. The score against multiple references is the maximum over
references.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Sequence

from .ngrams import ngram_positions
from .segments import fold_segments

DEFAULT_ALPHA = 0.25
DEFAULT_BETA = 0.10

Tokens = Sequence[str]


@dataclass(frozen=True)
class RibesScore:
    ribes: float
    nkt: float
    unigram_precision: float
    bp: float


def word_alignment(ref: Tokens, hyp: Tokens) -> list[int]:
    """Reference positions of aligned hypothesis words, in hypothesis order.

    A context gram grows by one word per window, so its occurrences are
    those of the previous gram that the new word extends: each side's
    lists start from the unigram index and are filtered as the window
    grows. Once a direction's gram is gone from the reference, every longer
    gram in that direction is too, and the direction is dropped.
    """
    ref_index = ngram_positions(ref, 1)
    hyp_index = ngram_positions(hyp, 1)
    aligned: list[int] = []
    for i, word in enumerate(hyp):
        in_ref = ref_index.get((word,))
        if in_ref is None:
            continue
        in_hyp = hyp_index[(word,)]
        if len(in_ref) == 1 and len(in_hyp) == 1:
            aligned.append(in_ref[0])
            continue
        # left lists hold where hyp[i - window : i + 1] ends, right lists
        # where hyp[i : i + window + 1] starts; an empty list is a dead side
        left_ref, left_hyp = (in_ref, in_hyp) if i > 0 else ([], [])
        right_ref, right_hyp = (in_ref, in_hyp) if i + 1 < len(hyp) else ([], [])
        window = 0
        while left_ref or right_ref:
            window += 1
            if left_ref:
                added = hyp[i - window]
                left_ref = [e for e in left_ref if e >= window and ref[e - window] == added]
                left_hyp = [e for e in left_hyp if e >= window and hyp[e - window] == added]
                if len(left_ref) == 1 and len(left_hyp) == 1:
                    aligned.append(left_ref[0])
                    break
                if window == i:
                    left_ref = []
            if right_ref:
                added = hyp[i + window]
                right_ref = [s for s in right_ref if s + window < len(ref) and ref[s + window] == added]
                right_hyp = [s for s in right_hyp if s + window < len(hyp) and hyp[s + window] == added]
                if len(right_ref) == 1 and len(right_hyp) == 1:
                    aligned.append(right_ref[0])
                    break
                if i + window + 1 == len(hyp):
                    right_ref = []
    return aligned


def normalized_kendall_tau(positions: Sequence[int]) -> float:
    """Normalized Kendall's tau, NKT = (tau + 1)/2, not raw tau.

    For distinct ranks this equals the fraction of strictly ascending pairs,
    which is what is counted: each position adds the number of earlier
    positions below it, read off a sorted list of them. 0.0 with fewer
    than 2 positions.
    """
    n = len(positions)
    if n < 2:
        return 0.0
    earlier: list = []
    ascending = 0
    for position in positions:
        ascending += bisect_left(earlier, position)
        insort(earlier, position)
    return ascending / (n * (n - 1) / 2)


def _single_ref(hyp: Tokens, ref: Tokens) -> RibesScore:
    if len(hyp) == 0:
        return RibesScore(0.0, 0.0, 0.0, 0.0)
    if len(hyp) >= 2 and tuple(hyp) == tuple(ref) and len(set(hyp)) == len(hyp):
        # a copy of distinct words aligns each word to itself, so NKT,
        # precision and BP are each exactly 1.0, as computed below
        return RibesScore(1.0, 1.0, 1.0, 1.0)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(hyp)))
    positions = word_alignment(ref, hyp)
    nkt = normalized_kendall_tau(positions)
    precision = len(positions) / len(hyp)
    return RibesScore(nkt * precision**DEFAULT_ALPHA * bp**DEFAULT_BETA, nkt, precision, bp)


def ribes(hyp: Tokens, refs: Sequence[Tokens]) -> RibesScore:
    """Sentence RIBES against one or more references (maximum over refs),
    weighted by ``DEFAULT_ALPHA`` and ``DEFAULT_BETA``."""
    if not refs:
        raise ValueError("at least one reference is required")
    best = None
    for ref in refs:
        score = _single_ref(hyp, ref)
        if best is None or score.ribes > best.ribes:
            best = score
    return best


class RibesFold:
    """Corpus RIBES as a fold: ``add`` each segment's best ``RibesScore``,
    then read ``score()``, the mean of each field. Each field is a running
    total added to in segment order, the order in which ``sum()`` adds
    floats up to Python 3.11, so the means do not depend on the Python
    version and the fold holds four floats whatever the corpus size."""

    def __init__(self):
        self.ribes = self.nkt = self.unigram_precision = self.bp = 0.0
        self.count = 0

    def add(self, score: RibesScore) -> None:
        self.ribes += score.ribes
        self.nkt += score.nkt
        self.unigram_precision += score.unigram_precision
        self.bp += score.bp
        self.count += 1

    def score(self) -> RibesScore:
        n = self.count
        return RibesScore(self.ribes / n, self.nkt / n, self.unigram_precision / n, self.bp / n)


def ribes_corpus(hypotheses: Sequence[Tokens], references: Sequence[Sequence[Tokens]]) -> RibesScore:
    """Corpus RIBES: the mean over segments of the per-segment best score,
    weighted by ``DEFAULT_ALPHA`` and ``DEFAULT_BETA``.

    The nkt / precision / bp fields of the result are the corresponding
    per-segment means, reported for diagnostics.
    """
    return fold_segments(RibesFold(), ribes, hypotheses, references).score()
