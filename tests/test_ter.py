import importlib
import random
import time

import pytest

from bitextkit.cognates import levenshtein
from bitextkit.metrics import ter, ter_corpus

from oracles import edit_distance_matrix, ter_edits_greedy
from synth import seed_lines

ter_module = importlib.import_module("bitextkit.metrics.ter")


def test_identity_zero_edits():
    score = ter("a b c".split(), ["a b c".split()])
    assert score.ter == 0.0
    assert score.edits.total == 0


def test_single_substitution():
    score = ter("a b c".split(), ["a x c".split()])
    assert score.ter == pytest.approx(1 / 3)
    assert (score.edits.substitutions, score.edits.shifts) == (1, 0)


def test_shift_cheaper_than_edits():
    # moving one block beats deleting and re-inserting it
    score = ter("b c a".split(), ["a b c".split()])
    assert score.edits.shifts == 1
    assert score.edits.total == 1
    no_shift = ter("b c a".split(), ["a b c".split()], shifts=False)
    assert no_shift.edits.total == 2
    assert score.ter <= no_shift.ter


def test_can_exceed_one():
    score = ter("p q r s t u".split(), ["a b".split()])
    assert score.ter > 1.0


def test_insertion_and_deletion_breakdown():
    score = ter("a b".split(), ["a b c".split()], shifts=False)
    assert score.edits.insertions == 1
    score = ter("a b c".split(), ["a b".split()], shifts=False)
    assert score.edits.deletions == 1


def test_multi_reference_picks_fewest_edits_but_averages_length():
    hyp = "a b c".split()
    refs = ["a b c".split(), "x y z w".split()]
    score = ter(hyp, refs)
    assert score.edits.total == 0
    assert score.ref_len == pytest.approx(3.5)
    assert score.ter == 0.0


def test_empty_reference_conventions():
    assert ter([], [[]]).ter == 0.0
    assert ter("a b".split(), [[]]).ter == 2.0  # denominator clamped to 1


def test_max_shift_size_respected(monkeypatch):
    hyp = "x1 x2 x3 a b".split()
    ref = "a b x1 x2 x3".split()
    monkeypatch.setattr(ter_module, "DEFAULT_MAX_SHIFT_SIZE", 3)
    with_big = ter(hyp, [ref])
    monkeypatch.setattr(ter_module, "DEFAULT_MAX_SHIFT_SIZE", 1)
    with_small = ter(hyp, [ref])
    assert with_big.edits.total <= with_small.edits.total


def test_no_shift_equals_dp_distance_random():
    rng = random.Random(31)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        score = ter(hyp, [ref], shifts=False)
        assert score.edits.total == edit_distance_matrix(hyp, ref)
        assert score.ter == edit_distance_matrix(hyp, ref) / len(ref)


def test_shifts_never_worse_than_no_shift_random():
    rng = random.Random(32)
    vocab = ["a", "b", "c", "d"]
    for _ in range(200):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        assert ter(hyp, [ref]).edits.total <= ter(hyp, [ref], shifts=False).edits.total


def test_relabeling_invariance():
    rng = random.Random(33)
    vocab = ["a", "b", "c", "d"]
    mapping = {"a": "z9", "b": "y8", "c": "x7", "d": "w6"}
    for _ in range(50):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        base = ter(hyp, [ref])
        mapped = ter([mapping[w] for w in hyp], [[mapping[w] for w in ref]])
        assert mapped.ter == base.ter
        assert mapped.edits == base.edits


def test_corpus_aggregates_edits_over_lengths():
    hyps = ["a b c".split(), "x x".split()]
    refs = [[["a", "b", "c"]], [["x", "y"]]]
    corpus = ter_corpus(hyps, refs)
    assert corpus.edits.total == 1
    assert corpus.ter == pytest.approx(1 / 5)


def _edits(hyp, ref):
    e = ter(hyp, [ref]).edits
    return e.insertions, e.deletions, e.substitutions, e.shifts


def test_shift_search_equals_full_dp_oracle_random(monkeypatch):
    """Small alphabets make repeats and equal-distance candidates dense, so
    the iteration order, the dedup and the strict tie rule all matter."""
    rng = random.Random(34)
    for _ in range(2400):
        vocab = "abcde"[: rng.randint(1, 5)]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        max_shift_size = rng.choice([1, 2, 3, 10])
        monkeypatch.setattr(ter_module, "DEFAULT_MAX_SHIFT_SIZE", max_shift_size)
        assert _edits(hyp, ref) == ter_edits_greedy(hyp, ref, max_shift_size), (hyp, ref)


def _moved_blocks(words, rng, blocks):
    hyp = list(words)
    for _ in range(blocks):
        size = rng.randint(1, 4)
        start = rng.randrange(len(hyp) - size + 1)
        block = hyp[start : start + size]
        del hyp[start : start + size]
        dest = rng.randrange(len(hyp) + 1)
        hyp[dest:dest] = block
    return hyp


def test_shift_search_equals_full_dp_oracle_on_moved_blocks():
    rng = random.Random(35)
    lines = [line.split() for line in seed_lines("es") if len(line.split()) >= 8]
    for k in range(40):
        ref = lines[k % len(lines)][:16]
        hyp = _moved_blocks(ref, rng, rng.randint(1, 3))
        if k % 4 == 0:
            hyp[rng.randrange(len(hyp))] = "<sub>"
        assert _edits(hyp, ref) == ter_edits_greedy(hyp, ref, 10), (hyp, ref)


def test_long_segment_finishes():
    """80 words of seed text with three moved blocks; the full DP per
    candidate needed seconds to minutes for one such segment."""
    ref = " ".join(seed_lines("es")).split()[:80]
    hyp = list(ref)
    for start, size, dest in ((5, 4, 40), (30, 3, 70), (55, 5, 10)):
        block = hyp[start : start + size]
        del hyp[start : start + size]
        hyp[dest:dest] = block
    started = time.perf_counter()
    score = ter(hyp, [ref])
    assert time.perf_counter() - started < 3.0
    assert score.edits.insertions == score.edits.deletions == score.edits.substitutions == 0
    assert 1 <= score.edits.shifts <= 6


def test_breakdown_equals_full_dp_oracle_on_long_random_pairs():
    """Without shifts the edit counts come from the backtrace alone. Up to
    300 words, so the reference masks span several 64-bit machine words."""
    rng = random.Random(36)
    long_refs = 0
    for _ in range(40):
        vocab = [f"w{k}" for k in range(rng.choice([2, 5, 40]))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 300))]
        hyp = [w if rng.random() < 0.8 else rng.choice(vocab) for w in ref if rng.random() < 0.9]
        hyp += [rng.choice(vocab) for _ in range(rng.randint(0, 20))]
        long_refs += len(ref) > 64
        e = ter(hyp, [ref], shifts=False).edits
        assert (e.insertions, e.deletions, e.substitutions, e.shifts) == ter_edits_greedy(hyp, ref, 0), (hyp, ref)
    assert long_refs >= 20


def test_no_shift_long_segment_finishes():
    """2,000 words without shifts: the backtrace reads the kernel's columns
    instead of filling a 2,001 x 2,001 table (about 3 s)."""
    rng = random.Random(37)
    ref = [f"w{rng.randrange(300)}" for _ in range(2000)]
    hyp = [w if rng.random() < 0.9 else "x" for w in ref]
    started = time.perf_counter()
    score = ter(hyp, [ref], shifts=False)
    assert time.perf_counter() - started < 0.5
    assert score.edits.total == levenshtein(hyp, ref)
