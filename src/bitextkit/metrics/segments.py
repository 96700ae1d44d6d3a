"""Corpus scores as folds over per-segment statistics.

Each corpus score adds one record per segment, in segment order, to a fold
(``BleuFold``, ``RibesFold``, ``TerFold`` or the report's ``ScoreFold``)
and reads the score off it at the end. The eval pipeline folds the same
records as its chunks arrive."""

from __future__ import annotations

from typing import Callable, Sequence

from ..exceptions import EmptyCorpus, LineCountMismatch


def fold_segments(fold, segment: Callable, hypotheses: Sequence, references: Sequence):
    """``fold`` after ``fold.add(segment(hyp, refs))`` for each segment in
    order, where ``references[i]`` is the list of reference token lists of
    hypothesis i.

    Raises LineCountMismatch when the hypothesis and reference corpora
    disagree in length, and EmptyCorpus for a zero-length corpus.
    """
    if len(hypotheses) != len(references):
        raise LineCountMismatch(len(hypotheses), len(references), context="hypotheses / references")
    if not hypotheses:
        raise EmptyCorpus("cannot score an empty corpus")
    for hyp, refs in zip(hypotheses, references):
        fold.add(segment(hyp, refs))
    return fold
