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

A round tries the candidates in tercom's order and keeps the first of the
lowest distance (a strict ``<``). Skipping candidates already seen in the
round (a dedup set) is only an optimization, and the search does without
it: a repeat scores the same as its first occurrence, which the strict
``<`` keeps, and a candidate equal to the hypothesis scores the current
distance, which ends the search anyway.

A candidate differs from the hypothesis only inside a window ``[lo, hi)``,
so its distance resumes from the DP column of the prefix of length ``lo``.
After a few candidates scored one by one, a round scores up to 64 at a
time in one bit-parallel pass (``_packed_distances``): each candidate has
a lane of ``m + 1`` bits in one integer (``m`` the reference length), so
one set of integer operations per word advances all of them.

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
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Iterator, Sequence

from ..editdist import advance, edit_state
from .ngrams import ngram_positions
from .segments import fold_segments

DEFAULT_MAX_SHIFT_SIZE = 10

# A shift round scores its first _SCALAR_LEAD candidates one at a time, so
# that an early candidate at the floor ends it before a batch is built, and
# then packs up to _LANES candidates into one bit-parallel pass.
_SCALAR_LEAD = 4
_LANES = 64

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


def _candidates(hyp: tuple, index: dict) -> Iterator[tuple]:
    """Every shift of a span of ``hyp`` to a place where the span occurs in
    the reference, as ``(lo, hi, middle)``: the candidate is
    ``hyp[:lo] + middle + hyp[hi:]``.

    The order is tercom's: by span start, then span size, then reference
    position. A move of a span to its own place is left out; repeats are
    not, as they cannot change the result (see the module docstring).
    """
    n = len(hyp)
    for start in range(n):
        for size in range(1, min(DEFAULT_MAX_SHIFT_SIZE, n - start) + 1):
            end = start + size
            span = hyp[start:end]
            positions = index.get(span)
            if positions is None:
                break  # no longer span from here is in the reference either
            for k in positions:
                dest = min(k, n - size)
                if dest < start:
                    yield dest, end, span + hyp[dest:start]
                elif dest > start:
                    yield start, dest + size, hyp[end : dest + size] + span


def _packed_distances(hyp: tuple, ctx: tuple, columns: list, batch: list) -> list:
    """The distance of each ``(lo, hi, middle)`` candidate in ``batch``, all
    of them advanced together by one bit-parallel pass.

    This is ``advance``'s recurrence with candidate k in a lane of
    ``m + 1`` bits of one integer, bits ``[k(m+1), k(m+1) + m)``, so one
    set of integer operations per word steps every lane. The top bit of a
    lane is a guard that stays 0 in ``vp``, ``vn`` and ``eq``, so the carry
    of the addition ends in it. The shifts carry a lane's top bit into the
    guard, which the mask of ``vp`` clears, or the guard into the next
    lane's bit 0, which the global form sets to 1 in every lane anyway.
    Complements are XORs with every bit of the batch (``full``), so no
    integer is negative: CPython's bitwise operations on negative integers
    take extra passes.

    A lane is 0 until step ``lo``, where it takes the prefix column
    ``columns[lo]``: with ``eq`` 0 there, a zero lane stays zero. At step t
    a lane inside ``[lo, hi)`` reads the match mask of its own word, and
    the lanes past ``hi`` read that of ``hyp[t]``, copied into every lane by
    one multiply per distinct word. A lane's distance is ``n`` plus its
    up-steps less its down-steps, as in ``_edit_breakdown``.
    """
    masks, top, _ = ctx
    n = len(hyp)
    width = top.bit_length() + 1
    full = (1 << (len(batch) * width)) - 1
    ones = full // ((1 << width) - 1)  # bit 0 of each lane
    lane_top = top * ones
    enter_vp = [0] * n
    enter_vn = [0] * n
    own_eq = [0] * n
    past = [0] * (n + 1)
    shift = 0
    for lo, hi, middle in batch:
        vp, vn, _ = columns[lo]
        enter_vp[lo] |= vp << shift
        enter_vn[lo] |= vn << shift
        past[hi] |= top << shift
        t = lo
        for word in middle:
            eq = masks.get(word)
            if eq:
                own_eq[t] |= eq << shift
            t += 1
        shift += width
    spread: dict = {}
    vp = vn = past_top = 0
    for t in range(min(lo for lo, _, _ in batch), n):
        vp |= enter_vp[t]
        vn |= enter_vn[t]
        past_top |= past[t]
        eq = own_eq[t]
        if past_top:
            word = hyp[t]
            copies = spread.get(word)
            if copies is None:
                copies = spread[word] = masks.get(word, 0) * ones
            eq |= copies & past_top
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ((xh | vp) ^ full)
        mh = vp & xh
        ph = (ph << 1) | ones
        vp = ((mh << 1) | ((xv | ph) ^ full)) & lane_top
        vn = ph & xv
    return [n + ((vp >> s) & top).bit_count() - ((vn >> s) & top).bit_count() for s in range(0, shift, width)]


def _best_shift(hyp: tuple, ctx: tuple, columns: list, index: dict, floor: int) -> tuple | None:
    """``(distance, lo, candidate)`` of the best rearrangement, or None.

    The first ``_SCALAR_LEAD`` candidates are scored one by one with
    ``advance``, the rest ``_LANES`` at a time by ``_packed_distances`` (a
    last batch under ``_SCALAR_LEAD`` one by one again). The first
    candidate at ``floor`` is returned at once: no later one can be lower,
    and a tie keeps the earlier.
    """
    candidates = _candidates(hyp, index)
    best_dist = best = None
    for size in chain(repeat(1, _SCALAR_LEAD), repeat(_LANES)):
        if best_dist == floor:
            break
        batch = list(islice(candidates, size))
        if not batch:
            break
        if len(batch) < _SCALAR_LEAD:
            dists = [advance(ctx, columns[lo], middle + hyp[hi:])[2] for lo, hi, middle in batch]
        else:
            dists = _packed_distances(hyp, ctx, columns, batch)
        for dist, candidate in zip(dists, batch):
            if best_dist is None or dist < best_dist:
                best_dist, best = dist, candidate
                if dist == floor:
                    break
    if best is None:
        return None
    lo, hi, middle = best
    return best_dist, lo, hyp[:lo] + middle + hyp[hi:]


def _edits_against(hyp: tuple, ref: Tokens, shifts: bool) -> EditCounts:
    """The shift search stops at the bag floor, where the full search
    would find no shift that lowers the distance. After a shift only the
    columns from its ``lo`` on are recomputed."""
    ctx, start_column = edit_state(ref)
    current = hyp
    columns = _prefix_columns(ctx, start_column, current)
    n_shifts = 0
    if shifts and columns[-1][2] > (floor := _bag_floor(hyp, ref)):
        index = ngram_positions(ref, DEFAULT_MAX_SHIFT_SIZE)
        while columns[-1][2] > floor:
            found = _best_shift(current, ctx, columns, index, floor)
            if found is None or found[0] >= columns[-1][2]:
                break
            _, lo, current = found
            columns[lo:] = _prefix_columns(ctx, columns[lo], current[lo:])
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


class TerFold:
    """Corpus TER as a fold: ``add`` each segment's ``TerScore``, then read
    ``score()``, the summed edits over the summed average reference
    lengths. The lengths are added in segment order."""

    def __init__(self):
        self.ins = self.dels = self.subs = self.shifts = 0
        self.ref_len = 0.0

    def add(self, segment: TerScore) -> None:
        self.ins += segment.edits.insertions
        self.dels += segment.edits.deletions
        self.subs += segment.edits.substitutions
        self.shifts += segment.edits.shifts
        self.ref_len += segment.ref_len

    def score(self) -> TerScore:
        counts = EditCounts(self.ins, self.dels, self.subs, self.shifts)
        return TerScore(counts.total / (self.ref_len if self.ref_len > 0 else 1.0), counts, self.ref_len)


def ter_corpus(hypotheses: Sequence[Tokens], references: Sequence[Sequence[Tokens]]) -> TerScore:
    """Corpus TER: summed edits over summed average reference lengths."""
    return fold_segments(TerFold(), ter, hypotheses, references).score()
