import random
import time
from collections import Counter

import pytest

import bitextkit.metrics.ter as ter_module
from bitextkit.editdist import advance, edit_state, levenshtein
from bitextkit.metrics import ter_corpus
from bitextkit.metrics.ngrams import ngram_positions
from bitextkit.metrics.ter import ter

from oracles import edit_distance_matrix, ter_edits_greedy
from synth import seed_lines


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
    the iteration order and the strict tie rule both matter. The oracle
    still skips candidates seen before in a round and the search does not:
    dedup was an optimization, since a repeat scores the same as its first
    occurrence and the strict tie rule keeps the first."""
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


def test_packed_distances_equal_scalar_advance():
    """Candidates scored in one packed pass get the distance the scalar
    kernel gives from their prefix column. References of 1-300 words, so
    lanes cross 30-bit digits and 64-bit words; vocabularies of 2, 5 and
    40 words repeat words; batches of 1-64 lanes mix lanes that start at
    different ``lo``, and some spans reach the end of the hypothesis."""
    rng = random.Random(38)
    seen = Counter()
    for _ in range(48):
        vocab = [f"w{k}" for k in range(rng.choice([2, 5, 40]))]
        ref = [rng.choice(vocab) for _ in range(rng.choice([rng.randint(1, 30), rng.randint(1, 300)]))]
        hyp = tuple(w if rng.random() < 0.7 else rng.choice(vocab + ["oov"]) for w in ref if rng.random() < 0.9)
        hyp += tuple(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        n = len(hyp)
        ctx, start_column = edit_state(ref)
        columns = ter_module._prefix_columns(ctx, start_column, hyp)
        shifts = list(ter_module._candidates(hyp, ngram_positions(ref, 10)))
        for _ in range(2):
            lanes = rng.randint(1, 64)
            if shifts and rng.random() < 0.6:
                first = rng.randrange(len(shifts))
                batch = shifts[first : first + lanes]
            else:  # any window rewritten, many ending at the end of hyp
                batch = []
                for _ in range(lanes):
                    lo = rng.randrange(n)
                    hi = n if rng.random() < 0.3 else rng.randint(lo + 1, n)
                    batch.append((lo, hi, tuple(rng.choice(vocab + ["oov"]) for _ in range(hi - lo))))
            want = [advance(ctx, columns[lo], middle + hyp[hi:])[2] for lo, hi, middle in batch]
            assert ter_module._packed_distances(hyp, ctx, columns, batch) == want, (hyp, ref, batch)
            lo, hi, middle = batch[0]
            assert want[0] == levenshtein(hyp[:lo] + middle + hyp[hi:], ref)
            seen["lanes"] += len(batch)
            seen["past the end"] += sum(hi == n for _, hi, _ in batch)
            seen["mixed starts"] += len({lo for lo, _, _ in batch}) > 1
            seen["over 64 bits"] += len(batch) * (len(ref) + 1) > 64
            seen["long reference"] += len(ref) > 64
    assert seen["lanes"] >= 1000
    assert min(seen.values()) >= 20, seen


def _long_case(name):
    """200 words of seed text with n/25 + 1 moved blocks, or a 240-word
    "de la" repetition loop against seed text, as ``(hyp, ref)``."""
    text = " ".join(seed_lines("es")).split()
    if name == "moved blocks":
        ref = text[:200]
        return _moved_blocks(ref, random.Random(39), len(ref) // 25 + 1), ref
    return ["de", "la"] * 120, text[:240]


@pytest.mark.parametrize(
    "name, pinned",
    [("moved blocks", ter_module.EditCounts(0, 0, 2, 10)), ("repetition loop", ter_module.EditCounts(0, 0, 213, 7))],
    ids=["moved blocks", "repetition loop"],
)
def test_long_segment_stress(name, pinned):
    """Pinned edits on long segments, found within a loose time bound: the
    search takes about 0.6 s and 1.2-1.8 s on a 2 vCPU Xeon."""
    hyp, ref = _long_case(name)
    started = time.perf_counter()
    edits = ter(hyp, [ref]).edits
    assert time.perf_counter() - started < 6.0
    assert edits == pinned
