"""Levenshtein-based cognate extraction and preservation measurement.

Cognates are word pairs across the two sides of a bitext whose normalized
edit distance falls under a threshold. Words are compared case-folded and
NFC-normalized; diacritics are kept, so accent-only differences count as
distance 1 and are absorbed by the normalized threshold. Preservation then
checks whether a system translation still contains each reference-side
cognate form.

Both searches are exact but pruned: two lower bounds on the edit distance,
read off a per-call table of the words, skip most pairs before the
bit-parallel kernel runs.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .corpus_io import SentencePair
from .editdist import levenshtein
from .exceptions import IndexMismatch

DEFAULT_THRESHOLD = 0.3
DEFAULT_MIN_LEN = 4


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
    """``preserved`` and ``preservation_rate`` are None when no system
    output was measured."""

    pairs_examined: int
    cognate_pairs: int
    cognate_rate: float
    preserved: Optional[int]
    preservation_rate: Optional[float]
    threshold: float

    @classmethod
    def of(cls, examined: int, cognate_pairs: int, threshold: float, preserved: Optional[int] = None) -> CognateReport:
        """The report with both rates computed: ``cognate_rate`` is the share
        of the ``examined`` candidate words that were cognates, and
        ``preservation_rate`` the share of cognates ``preserved``."""
        preservation_rate = None
        if preserved is not None:
            preservation_rate = (preserved / cognate_pairs) if cognate_pairs else 0.0
        return cls(
            pairs_examined=examined,
            cognate_pairs=cognate_pairs,
            cognate_rate=(cognate_pairs / examined) if examined else 0.0,
            preserved=preserved,
            preservation_rate=preservation_rate,
            threshold=threshold,
        )

    def to_dict(self) -> dict:
        return {
            "pairs_examined": self.pairs_examined,
            "cognate_pairs": self.cognate_pairs,
            "cognate_rate": self.cognate_rate,
            "preserved": self.preserved,
            "preservation_rate": self.preservation_rate,
            "threshold": self.threshold,
        }


class _WordTable:
    """Each raw token looked up, mapped once to ``(form, length, mask)``:
    its normalized form, the form's length, and a bit mask of the form's
    distinct characters, where each character new to the table gets the
    next bit. ``extract_cognates`` and ``preservation`` build one per
    call."""

    def __init__(self):
        self.entries: dict = {}
        self.bits: dict = {}

    def __getitem__(self, token: str) -> tuple:
        entry = self.entries.get(token)
        if entry is None:
            form = _norm(token)
            mask = 0
            for ch in set(form):
                bit = self.bits.get(ch)
                if bit is None:
                    bit = self.bits[ch] = 1 << len(self.bits)
                mask |= bit
            entry = self.entries[token] = (form, len(form), mask)
        return entry


def _within(a: tuple, b: tuple, threshold: float) -> Optional[tuple]:
    """``(distance, normalized distance)`` of two word-table entries when the
    normalized distance is at most ``threshold``, else None.

    Two lower bounds on the distance rule out most pairs before the kernel
    runs: the difference in length, and the number of distinct characters
    of one form that the other lacks (none of them can be matched, so each
    costs an edit). Both are divided by the same length as the distance, so
    the float comparison skips a pair only when the distance would fail it
    too.
    """
    form_a, len_a, mask_a = a
    form_b, len_b, mask_b = b
    if form_a == form_b:
        return (0, 0.0) if 0.0 <= threshold else None
    longest = len_a if len_a > len_b else len_b
    if abs(len_a - len_b) / longest > threshold:
        return None
    only_a = (mask_a & ~mask_b).bit_count()
    only_b = (mask_b & ~mask_a).bit_count()
    if (only_a if only_a > only_b else only_b) / longest > threshold:
        return None
    dist = levenshtein(form_a, form_b)
    nd = dist / longest
    return (dist, nd) if nd <= threshold else None


def extract_cognates(
    pairs: Iterable[SentencePair],
    threshold: float = DEFAULT_THRESHOLD,
    min_len: int = DEFAULT_MIN_LEN,
) -> list:
    """Cognate pairs between the source and target sides of tokenized pairs.

    Within a sentence, each source token of length >= ``min_len`` is matched
    one-to-one against target tokens, greedily by ascending normalized
    distance (ties resolved by leftmost positions), keeping matches within
    ``threshold``. The search is exact: a pair is only skipped when a lower
    bound on its distance is already over ``threshold``. It runs in-process
    over the pairs it is given; callers that map it over workers hand it
    chunks.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    table = _WordTable()
    found = []
    for pair in pairs:
        src_tokens = pair.source.split()
        tgt_tokens = pair.target.split()
        tgt_entries = [table[tok] for tok in tgt_tokens]
        candidates = []
        for i, tok in enumerate(src_tokens):
            if len(tok) < min_len:
                continue
            src_entry = table[tok]
            for j, tgt_entry in enumerate(tgt_entries):
                hit = _within(src_entry, tgt_entry, threshold)
                if hit is not None:
                    candidates.append((hit[1], i, j, hit[0]))
        # one-to-one greedy matching by ascending distance, ties by position
        candidates.sort()
        used_src: set = set()
        used_tgt: set = set()
        sentence = []
        for nd, i, j, dist in candidates:
            if i in used_src or j in used_tgt:
                continue
            used_src.add(i)
            used_tgt.add(j)
            sentence.append(
                CognatePair(
                    source_word=src_tokens[i],
                    target_word=tgt_tokens[j],
                    distance=dist,
                    normalized_distance=nd,
                    source_sentence_index=pair.index,
                    source_position=i,
                    target_position=j,
                )
            )
        sentence.sort(key=lambda c: c.source_position)
        found.extend(sentence)
    return found


def count_examined(pairs: Iterable[SentencePair], min_len: int = DEFAULT_MIN_LEN) -> int:
    """How many source tokens meet the length bar (the extraction pool size)."""
    return sum(1 for p in pairs for tok in p.source.split() if len(tok) >= min_len)


def preservation(
    cognates: Sequence[CognatePair],
    system_output: Sequence[Sequence[str]],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    examined: int,
) -> CognateReport:
    """How many cognates survive in a system translation.

    A cognate is preserved when the system sentence (aligned by
    ``source_sentence_index``) contains a token within ``threshold``
    normalized distance of the target-side cognate word. ``examined`` is
    the extraction pool size (``count_examined``), reported as
    ``pairs_examined``, so that ``cognate_rate`` is the share of candidate
    words that were cognates.

    A target word whose normalized form the sentence has is preserved
    without a search when ``threshold`` is at least 0: its distance is 0.
    """
    shortcut = threshold >= 0
    table = _WordTable()
    preserved = 0
    last = None
    for cognate in cognates:
        idx = cognate.source_sentence_index
        if idx < 0 or idx >= len(system_output):
            raise IndexMismatch(
                f"cognate at sentence {idx} outside system output of {len(system_output)} sentences"
            )
        if idx != last:  # extraction lists a sentence's cognates together
            last = idx
            sentence = [table[tok] for tok in system_output[idx]]
            forms = {entry[0] for entry in sentence}
        target = table[cognate.target_word]
        if (shortcut and target[0] in forms) or any(_within(target, entry, threshold) is not None for entry in sentence):
            preserved += 1

    return CognateReport.of(examined, len(cognates), threshold, preserved)
