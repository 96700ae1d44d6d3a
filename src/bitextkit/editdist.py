"""Edit distance between two sequences: of characters for cognates, of
words for TER.

One bit-parallel kernel serves both. ``edit_state`` and ``advance`` expose
its resumable form, so that TER can score many shift candidates from the
DP column of a shared prefix; ``levenshtein`` is the plain distance.
"""

from __future__ import annotations

from typing import Sequence


def edit_state(ref: Sequence) -> tuple:
    """The resumable form of ``levenshtein`` against a fixed ``ref``.

    Returns ``(ctx, column)``: ``ctx`` holds one bit mask per symbol of
    ``ref`` (bit i set where ``ref[i]`` is that symbol), and ``column`` is
    the DP column of the empty prefix as ``(vp, vn, score)``: the bits where
    the column steps up and down by one between adjacent reference
    positions, and the distance to the whole of ``ref``. Pass both to
    ``advance``.
    """
    masks: dict = {}
    for i, sym in enumerate(ref):
        masks[sym] = masks.get(sym, 0) | (1 << i)
    m = len(ref)
    top = (1 << m) - 1
    return (masks, top, 1 << (m - 1) if m else 0), (top, 0, m)


def advance(ctx: tuple, column: tuple, items: Sequence) -> tuple:
    """The ``(vp, vn, score)`` column after ``items`` are appended to the
    prefix that ``column`` stands for; ``score`` is then the edit distance
    from that longer prefix to the reference of ``ctx``.

    This is Myers' bit-vector algorithm (1999) in Hyyrö's global form
    (2001): one step per item, a few integer operations over the whole
    column, exactly equal to the row-by-row DP.
    """
    masks, top, high = ctx
    vp, vn, score = column
    if not high:  # empty reference: each item costs one edit
        return vp, vn, score + len(items)
    for item in items:
        eq = masks.get(item, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)
        mh = vp & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1
        vp = ((mh << 1) | ~(xv | ph)) & top
        vn = ph & xv
    return vp, vn, score


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimum single-element insertions, deletions, and substitutions
    turning ``a`` into ``b``: over Unicode scalar values for strings, over
    words for token lists as in TER."""
    if a == b:
        return 0
    ctx, column = edit_state(b)
    return advance(ctx, column, a)[2]
