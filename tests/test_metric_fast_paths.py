"""The exact fast paths of the per-segment metric kernels, checked against
the oracles on the shapes where they fire: copies (with repeated words and
one word long), one substitution, one adjacent swap, a swap with a
substitution, an inserted or a deleted word, a second reference equal to
the hypothesis, and empty sides.

The paths: a hypothesis equal to a reference skips BLEU's clipping and
TER's search (and, with distinct words, RIBES's alignment); TER's shift
search stops once the distance reaches the bag floor, and a round returns
its first candidate at the floor.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitextkit.metrics.bleu as bleu_module
import bitextkit.metrics.ribes as ribes_module
import bitextkit.metrics.ter as ter_module
from bitextkit.editdist import levenshtein
from bitextkit.metrics import bleu_corpus
from bitextkit.metrics.ribes import DEFAULT_ALPHA, DEFAULT_BETA, ribes, word_alignment
from bitextkit.metrics.ter import DEFAULT_MAX_SHIFT_SIZE, ter

from oracles import ascending_fraction, bleu_brute, ribes_alignment_rescan, ter_edits_greedy
from synth import seed_lines


def _mutations(ref, rng):
    """(name, hypothesis) for each one- or two-edit shape of ``ref``."""
    n = len(ref)
    sub = list(ref)
    sub[rng.randrange(n)] = "<sub>"
    yield "substitution", sub
    inserted = list(ref)
    inserted.insert(rng.randrange(n + 1), rng.choice(ref))
    yield "insertion", inserted
    yield "deletion", ref[: (k := rng.randrange(n))] + ref[k + 1 :]
    if n >= 2:
        swap = list(ref)
        k = rng.randrange(n - 1)
        swap[k], swap[k + 1] = swap[k + 1], swap[k]
        yield "swap", swap
        swap_sub = list(swap)
        swap_sub[rng.randrange(n)] = "<sub>"
        yield "swap and substitution", swap_sub


def _cases():
    """(name, hypothesis, references) on distinct-word seed segments and on
    segments that repeat words, plus the one-word and empty cases."""
    rng = random.Random(1101)
    lines = [line.split() for line in seed_lines("es")]
    refs = [line[: rng.randint(2, 18)] for line in lines[:60]]
    refs += [[rng.choice("abc") for _ in range(rng.randint(2, 12))] for _ in range(60)]
    cases = []
    for ref in refs:
        cases.append(("copy", ref, [ref]))
        for name, hyp in _mutations(ref, rng):
            cases.append((name, hyp, [ref]))
            other = next(_mutations(ref, rng))[1]
            cases.append((f"{name}, second reference is the hypothesis", hyp, [other, hyp]))
            cases.append((f"{name}, first reference is the hypothesis", hyp, [hyp, ref]))
    for word in ("a", "de"):
        cases += [("copy", [word], [[word]]), ("substitution", ["<sub>"], [[word]])]
        cases += [("empty hypothesis", [], [[word]]), ("empty reference", [word], [[]])]
    cases += [("both empty", [], [[]]), ("copy", [], [[], ["a"]])]
    return cases


CASES = _cases()


def _ribes_oracle(hyp, refs):
    """(ribes, nkt, precision, bp) from the rescan alignment, best over refs."""
    best = None
    for ref in refs:
        if not hyp:
            score = (0.0, 0.0, 0.0, 0.0)
        else:
            positions = ribes_alignment_rescan(ref, hyp)
            nkt = ascending_fraction(positions)
            precision = len(positions) / len(hyp)
            bp = min(1.0, math.exp(1.0 - len(ref) / len(hyp)))
            score = (nkt * precision**DEFAULT_ALPHA * bp**DEFAULT_BETA, nkt, precision, bp)
        if best is None or score[0] > best[0]:
            best = score
    return best


@pytest.fixture
def fired(monkeypatch):
    """Counts of the fast paths taken. Wraps TER's search so that each
    round is also run without the floor, which must find the same shift,
    and each search checks the floor against the distance it ends at;
    BLEU's clipping and RIBES's alignment calls are counted."""
    fired = Counter()
    advance, best_shift, edits_against = ter_module.advance, ter_module._best_shift, ter_module._edits_against
    clipped, alignment = bleu_module._clipped, ribes_module.word_alignment
    advances = [0]

    def counting_advance(*args):
        advances[0] += 1
        return advance(*args)

    def checked_best_shift(hyp, ctx, columns, index, floor):
        before = advances[0]
        found = best_shift(hyp, ctx, columns, index, floor)
        with_floor = advances[0] - before
        before = advances[0]
        # no candidate is at -1, so this scans every candidate
        assert best_shift(hyp, ctx, columns, index, -1) == found
        fired["early return"] += with_floor < advances[0] - before
        return found

    def checked_edits_against(hyp, ref, shifts):
        fired["searches"] += 1
        counts = edits_against(hyp, ref, shifts)
        distance = counts.insertions + counts.deletions + counts.substitutions
        floor = ter_module._bag_floor(hyp, ref)
        assert floor <= distance
        fired["floor stop"] += shifts and distance == floor > 0
        return counts

    def counted(name, fn):
        def wrapper(*args):
            fired[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ter_module, "advance", counting_advance)
    monkeypatch.setattr(ter_module, "_best_shift", checked_best_shift)
    monkeypatch.setattr(ter_module, "_edits_against", checked_edits_against)
    monkeypatch.setattr(bleu_module, "_clipped", counted("clipped", clipped))
    monkeypatch.setattr(ribes_module, "word_alignment", counted("alignments", alignment))
    return fired


def test_the_cases_cover_every_shape():
    names = Counter(name for name, _, _ in CASES)
    for shape in ("copy", "substitution", "swap", "swap and substitution", "insertion", "deletion"):
        assert names[shape] >= 100, shape
        if shape != "copy":
            assert names[f"{shape}, second reference is the hypothesis"] >= 100, shape
    assert any(len(hyp) == 1 and [hyp] == refs for _, hyp, refs in CASES)
    assert any(len(set(hyp)) < len(hyp) and [hyp] == refs for _, hyp, refs in CASES)
    assert {"empty hypothesis", "empty reference", "both empty"} <= set(names)


def test_ter_equals_greedy_oracle_and_each_path_fires(fired):
    for name, hyp, refs in CASES:
        searches = fired["searches"]
        edits = ter(hyp, refs).edits
        got = (edits.insertions, edits.deletions, edits.substitutions, edits.shifts)
        want = min((ter_edits_greedy(hyp, ref, DEFAULT_MAX_SHIFT_SIZE) for ref in refs), key=sum)
        assert got == want, (name, hyp, refs)
        copy = any(list(ref) == list(hyp) for ref in refs)
        assert (fired["searches"] == searches) == copy, (name, hyp, refs)
        fired["copy"] += copy
    assert fired["copy"] >= 100
    assert fired["floor stop"] >= 100
    assert fired["early return"] >= 50


def test_bleu_equals_brute_force_oracle_and_copies_skip_clipping(fired):
    for name, hyp, refs in CASES:
        clipped = fired["clipped"]
        got = bleu_corpus([hyp], [refs])
        want_bleu, want_precisions, want_bp = bleu_brute([hyp], [refs])
        assert (got.bleu, list(got.precisions), got.brevity_penalty) == (want_bleu, want_precisions, want_bp), name
        if any(list(ref) == list(hyp) for ref in refs):
            assert fired["clipped"] == clipped, (name, hyp, refs)
    hyps = [hyp for _, hyp, _ in CASES]
    refs = [refs for _, _, refs in CASES]
    got = bleu_corpus(hyps, refs)
    assert (got.bleu, list(got.precisions), got.brevity_penalty) == bleu_brute(hyps, refs)


def test_ribes_equals_rescan_oracle_and_distinct_copies_skip_alignment(fired):
    skipped = 0
    for name, hyp, refs in CASES:
        for ref in refs:
            assert word_alignment(ref, hyp) == ribes_alignment_rescan(ref, hyp), (name, hyp, ref)
        alignments = fired["alignments"]
        got = ribes(hyp, refs)
        assert (got.ribes, got.nkt, got.unigram_precision, got.bp) == _ribes_oracle(hyp, refs), (name, hyp, refs)
        if [hyp] == refs and len(hyp) >= 2 and len(set(hyp)) == len(hyp):
            assert fired["alignments"] == alignments, (name, hyp)
            skipped += 1
    assert skipped >= 50


_WORDS = st.lists(st.sampled_from("abcde"), max_size=14)


@settings(max_examples=400, deadline=None)
@given(_WORDS, _WORDS)
def test_bag_floor_is_below_every_distance(hyp, ref):
    floor = ter_module._bag_floor(hyp, ref)
    assert floor <= levenshtein(hyp, ref)
    edits = ter(hyp, [ref]).edits
    assert floor <= edits.insertions + edits.deletions + edits.substitutions
    assert floor == ter_module._bag_floor(sorted(hyp), ref)
