"""Levenshtein-based cognate extraction and preservation measurement.

Cognates are word pairs across the two sides of a bitext whose normalized
edit distance falls under a threshold. Words are compared case-folded and
NFC-normalized; diacritics are kept, so accent-only differences count as
distance 1 and are absorbed by the normalized threshold. Preservation then
checks whether a system translation still contains each reference-side
cognate form.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .corpus_io import SentencePair
from .exceptions import IndexMismatch
from .parallel import parallel_map

DEFAULT_THRESHOLD = 0.3
DEFAULT_MIN_LEN = 4


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


def normalized_distance(a: str, b: str) -> float:
    """Edit distance over the longer word's length; 0.0 for two empties."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def _norm(word: str) -> str:
    return unicodedata.normalize("NFC", word).casefold()


@dataclass(frozen=True)
class CognatePair:
    source_word: str
    target_word: str
    distance: int
    normalized_distance: float
    source_sentence_index: int
    source_position: int
    target_position: int


@dataclass(frozen=True)
class CognateReport:
    pairs_examined: int
    cognate_pairs: int
    cognate_rate: float
    preserved: int
    preservation_rate: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "pairs_examined": self.pairs_examined,
            "cognate_pairs": self.cognate_pairs,
            "cognate_rate": self.cognate_rate,
            "preserved": self.preserved,
            "preservation_rate": self.preservation_rate,
            "threshold": self.threshold,
        }


def _sentence_cognates(args) -> tuple[list, int]:
    index, source_text, target_text, threshold, min_len = args
    src_tokens = source_text.split()
    tgt_tokens = target_text.split()
    eligible = [i for i, tok in enumerate(src_tokens) if len(tok) >= min_len]
    if not eligible or not tgt_tokens:
        return [], len(eligible)

    norm_src = {i: _norm(src_tokens[i]) for i in eligible}
    norm_tgt = [_norm(tok) for tok in tgt_tokens]

    candidates = []
    for i in eligible:
        src_norm = norm_src[i]
        for j, tgt_norm in enumerate(norm_tgt):
            dist = levenshtein(src_norm, tgt_norm)
            nd = dist / max(len(src_norm), len(tgt_norm))
            if nd <= threshold:
                candidates.append((nd, i, j, dist))
    # one-to-one greedy matching by ascending distance, ties by position
    candidates.sort()
    used_src: set = set()
    used_tgt: set = set()
    found = []
    for nd, i, j, dist in candidates:
        if i in used_src or j in used_tgt:
            continue
        used_src.add(i)
        used_tgt.add(j)
        found.append(
            CognatePair(
                source_word=src_tokens[i],
                target_word=tgt_tokens[j],
                distance=dist,
                normalized_distance=nd,
                source_sentence_index=index,
                source_position=i,
                target_position=j,
            )
        )
    found.sort(key=lambda c: c.source_position)
    return found, len(eligible)


def extract_cognates(
    pairs: Iterable[SentencePair],
    threshold: float = DEFAULT_THRESHOLD,
    min_len: int = DEFAULT_MIN_LEN,
    workers: int = 1,
) -> list:
    """Cognate pairs between the source and target sides of tokenized pairs.

    Within a sentence, each source token of length >= ``min_len`` is matched
    one-to-one against target tokens, greedily by ascending normalized
    distance (ties resolved by leftmost positions), keeping matches within
    ``threshold``.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    jobs = [(p.index, p.source, p.target, threshold, min_len) for p in pairs]
    results = parallel_map(_sentence_cognates, jobs, workers=workers)
    cognates: list = []
    for found, _ in results:
        cognates.extend(found)
    return cognates


def count_examined(pairs: Iterable[SentencePair], min_len: int = DEFAULT_MIN_LEN) -> int:
    """How many source tokens meet the length bar (the extraction pool size)."""
    return sum(1 for p in pairs for tok in p.source.split() if len(tok) >= min_len)


def preservation(
    cognates: Sequence[CognatePair],
    system_output: Sequence[Sequence[str]],
    threshold: float = DEFAULT_THRESHOLD,
    examined: Optional[int] = None,
) -> CognateReport:
    """How many cognates survive in a system translation.

    A cognate is preserved when the system sentence (aligned by
    ``source_sentence_index``) contains a token within ``threshold``
    normalized distance of the target-side cognate word. ``examined``, when
    given, sets ``pairs_examined`` (the extraction pool size) so that
    ``cognate_rate`` reflects the share of candidate words that were
    cognates; it defaults to the number of cognates themselves.
    """
    norm_sentences = {}
    preserved = 0
    for cognate in cognates:
        idx = cognate.source_sentence_index
        if idx < 0 or idx >= len(system_output):
            raise IndexMismatch(
                f"cognate at sentence {idx} outside system output of {len(system_output)} sentences"
            )
        if idx not in norm_sentences:
            norm_sentences[idx] = [_norm(tok) for tok in system_output[idx]]
        target_norm = _norm(cognate.target_word)
        if any(normalized_distance(target_norm, tok) <= threshold for tok in norm_sentences[idx]):
            preserved += 1

    total = len(cognates)
    pool = examined if examined is not None else total
    return CognateReport(
        pairs_examined=pool,
        cognate_pairs=total,
        cognate_rate=(total / pool) if pool else 0.0,
        preserved=preserved,
        preservation_rate=(preserved / total) if total else 0.0,
        threshold=threshold,
    )
