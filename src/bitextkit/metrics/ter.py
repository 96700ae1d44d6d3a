"""Translation edit rate with the standard greedy block-shift heuristic.

The hypothesis is repeatedly rewritten by moving one contiguous span (at
most ``DEFAULT_MAX_SHIFT_SIZE`` words, tercom's fixed cap of 10) to a
position where it matches the reference, choosing at each step the shift
that most reduces the word-level edit distance and stopping when no shift
reduces it further. Each shift costs one edit; the remaining insertions,
deletions, and substitutions come from a backtrace over the bit-parallel DP
columns of the final hypothesis. With several references, the reference
yielding the fewest edits is used while the denominator is the average
reference length, so the rate can exceed 1 (or 100 when rendered as a
percentage).

Two exact shortcuts give the same edits as the full search:

- A hypothesis equal to a reference has 0 edits, and no other hypothesis
  has, so it is scored without a search.
- Every candidate is a reordering of the hypothesis, so none is closer to
  the reference than the bag distance (``_bag_floor``). Once the distance
  is at that floor no shift can lower it, so the search stops there. A
  round returns its first candidate at the floor, since a later one can
  at best tie, and a tie keeps the earlier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from ..cognates import advance, edit_state
from ..exceptions import EmptyCorpus, LineCountMismatch
from .ngrams import ngram_positions

DEFAULT_MAX_SHIFT_SIZE = 10

Tokens = Sequence[str]


@dataclass(frozen=True)
class EditCounts:
    insertions: int
    deletions: int
    substitutions: int
    shifts: int

    @property
    def total(self) -> int:
        return self.insertions + self.deletions + self.substitutions + self.shifts

    def to_dict(self) -> dict:
        return {
            "ins": self.insertions,
            "del": self.deletions,
            "sub": self.substitutions,
            "shift": self.shifts,
        }


@dataclass(frozen=True)
class TerScore:
    ter: float
    edits: EditCounts
    ref_len: float


def _prefix_columns(ctx: tuple, start_column: tuple, hyp: tuple) -> list:
    """The ``(vp, vn, score)`` column of every prefix of ``hyp``, the empty
    prefix first."""
    columns = [start_column]
    for word in hyp:
        columns.append(advance(ctx, columns[-1], (word,)))
    return columns


def _edit_breakdown(hyp: tuple, ref: Tokens, columns: list) -> tuple[int, int, int]:
    """(insertions, deletions, substitutions) by a backtrace over the prefix
    ``columns`` of ``hyp``.

    A column encodes its DP cells as steps: the distance from ``hyp[:i]``
    to ``ref[:j]`` is ``i`` plus the up-steps minus the down-steps below
    bit ``j``. Ties prefer the diagonal, then deleting from the hypothesis,
    then inserting, which keeps the breakdown deterministic.
    """

    def cell(i: int, j: int) -> int:
        below = (1 << j) - 1
        return i + (columns[i][0] & below).bit_count() - (columns[i][1] & below).bit_count()

    ins = dels = subs = 0
    i, j = len(hyp), len(ref)
    while i > 0 or j > 0:
        here = cell(i, j)
        mismatch = i > 0 and j > 0 and hyp[i - 1] != ref[j - 1]
        if i > 0 and j > 0 and here == cell(i - 1, j - 1) + mismatch:
            subs += mismatch
            i, j = i - 1, j - 1
        elif i > 0 and here == cell(i - 1, j) + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return ins, dels, subs


def _bag_floor(hyp: Tokens, ref: Tokens) -> int:
    """The bag distance: ``max(|hyp|, |ref|)`` less the words the two share,
    counted with multiplicity. It is a lower bound on the edit distance
    (Bartolini et al. 2002), and it is the same for every reordering of
    ``hyp``, so no shift brings ``hyp`` below it."""
    return max(len(hyp), len(ref)) - (Counter(hyp) & Counter(ref)).total()


def _best_shift(hyp: tuple, ctx: tuple, columns: list, index: dict, floor: int) -> tuple:
    """``(distance, candidate)`` of the best rearrangement, or ``(None, None)``.

    A candidate agrees with ``hyp`` on its first ``min(start, dest)``
    words, so its distance resumes from the prefix column of that length.
    The first candidate at ``floor`` is returned at once: no later one can
    be lower, and a tie keeps the earlier.
    """
    best_dist = None
    best_hyp = None
    seen = {hyp}
    for start in range(len(hyp)):
        for size in range(1, min(DEFAULT_MAX_SHIFT_SIZE, len(hyp) - start) + 1):
            span = hyp[start : start + size]
            positions = index.get(span)
            if positions is None:
                break  # no longer span from here is in the reference either
            remainder = hyp[:start] + hyp[start + size :]
            for k in positions:
                dest = min(k, len(remainder))
                candidate = remainder[:dest] + span + remainder[dest:]
                if candidate in seen:
                    continue
                seen.add(candidate)
                prefix = min(start, dest)
                dist = advance(ctx, columns[prefix], candidate[prefix:])[2]
                if best_dist is None or dist < best_dist:
                    best_dist = dist
                    best_hyp = candidate
                    if dist == floor:
                        return best_dist, best_hyp
    return best_dist, best_hyp


def _edits_against(hyp: tuple, ref: Tokens, shifts: bool) -> EditCounts:
    """The shift search stops at the bag floor, where the full search
    would find no shift that lowers the distance."""
    ctx, start_column = edit_state(ref)
    current = hyp
    columns = _prefix_columns(ctx, start_column, current)
    n_shifts = 0
    if shifts and columns[-1][2] > (floor := _bag_floor(hyp, ref)):
        index = ngram_positions(ref, DEFAULT_MAX_SHIFT_SIZE)
        while columns[-1][2] > floor:
            dist, candidate = _best_shift(current, ctx, columns, index, floor)
            if candidate is None or dist >= columns[-1][2]:
                break
            current = candidate
            columns = _prefix_columns(ctx, start_column, current)
            n_shifts += 1
    ins, dels, subs = _edit_breakdown(current, ref, columns)
    return EditCounts(ins, dels, subs, n_shifts)


def ter(hyp: Tokens, refs: Sequence[Tokens], shifts: bool = True) -> TerScore:
    """Sentence TER: fewest edits over the references, divided by the
    average reference length.

    An empty reference set average (all references empty) scores 0.0 when
    the hypothesis is also empty and uses a denominator of 1 otherwise.
    """
    if not refs:
        raise ValueError("at least one reference is required")
    hyp = tuple(hyp)
    if any(tuple(ref) == hyp for ref in refs):
        best = EditCounts(0, 0, 0, 0)  # only a copy has no edits
    else:
        best = min((_edits_against(hyp, ref, shifts) for ref in refs), key=attrgetter("total"))
    ref_len = sum(len(r) for r in refs) / len(refs)
    return TerScore(best.total / (ref_len if ref_len > 0 else 1.0), best, ref_len)


def ter_corpus(hypotheses: Sequence[Tokens], references: Sequence[Sequence[Tokens]]) -> TerScore:
    """Corpus TER: summed edits over summed average reference lengths."""
    if len(hypotheses) != len(references):
        raise LineCountMismatch(len(hypotheses), len(references), context="hypotheses / references")
    if not hypotheses:
        raise EmptyCorpus("cannot score an empty corpus")
    ins = dels = subs = n_shifts = 0
    ref_len = 0.0
    for hyp, refs in zip(hypotheses, references):
        segment = ter(hyp, refs)
        ins += segment.edits.insertions
        dels += segment.edits.deletions
        subs += segment.edits.substitutions
        n_shifts += segment.edits.shifts
        ref_len += segment.ref_len
    counts = EditCounts(ins, dels, subs, n_shifts)
    return TerScore(counts.total / (ref_len if ref_len > 0 else 1.0), counts, ref_len)
