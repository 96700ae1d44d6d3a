"""The n-gram index of TER's shift spans and RIBES's unigrams.

BLEU does not use it: it needs only how often each gram occurs, not where,
and counts the grams of one order at a time (``bleu._clipped``)."""

from __future__ import annotations

from typing import Sequence


def ngram_positions(tokens: Sequence[str], max_size: int) -> dict:
    """Every n-gram of 1..``max_size`` tokens, as a tuple, mapped to its
    start positions in ascending order; the count of a gram is the length
    of its list."""
    index: dict = {}
    for size in range(1, min(max_size, len(tokens)) + 1):
        for k in range(len(tokens) - size + 1):
            index.setdefault(tuple(tokens[k : k + size]), []).append(k)
    return index
