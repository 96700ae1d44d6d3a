import math
import random
import time
import tracemalloc

import pytest

from bitextkit.metrics import ribes_corpus
from bitextkit.metrics.ribes import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    RibesFold,
    RibesScore,
    normalized_kendall_tau,
    ribes,
    word_alignment,
)

from oracles import ascending_fraction, distinct_word_alignment, ribes_alignment_rescan
from synth import seed_lines


def test_identity_all_distinct():
    score = ribes("a b c d".split(), ["a b c d".split()])
    assert score.ribes == 1.0
    assert score.nkt == 1.0
    assert score.unigram_precision == 1.0
    assert score.bp == 1.0


def test_reversal_scores_zero():
    score = ribes("d c b a".split(), ["a b c d".split()])
    assert score.ribes == 0.0
    assert score.nkt == 0.0


def test_one_swap_case():
    # aligned reference ranks in hypothesis order: (0, 2, 1, 3)
    score = ribes("a c b d".split(), ["a b c d".split()])
    assert score.nkt == pytest.approx(5 / 6, abs=1e-12)
    assert score.unigram_precision == 1.0
    assert score.bp == 1.0
    assert score.ribes == pytest.approx(5 / 6, abs=1e-12)


def test_identity_with_repeated_words_uses_context():
    sent = "the cat and the dog".split()
    score = ribes(sent, [sent])
    assert score.ribes == 1.0


def test_no_overlap():
    score = ribes("x y z".split(), ["a b c".split()])
    assert score.ribes == 0.0
    assert score.unigram_precision == 0.0


def test_single_aligned_word_scores_zero():
    # fewer than two aligned words cannot witness any order
    score = ribes("a x y".split(), ["a p q".split()])
    assert score.nkt == 0.0
    assert score.ribes == 0.0


def test_empty_hypothesis():
    score = ribes([], ["a b".split()])
    assert score.ribes == 0.0


def test_multi_reference_takes_max():
    hyp = "a b c".split()
    good = "a b c".split()
    bad = "c b a".split()
    assert ribes(hyp, [bad, good]).ribes == 1.0


def test_alpha_beta_exponents():
    hyp = "a b x".split()
    ref = "a b".split()
    score = ribes(hyp, [ref])
    # two aligned words in order: nkt 1; precision 2/3; bp 1 (hyp longer)
    assert score.ribes == pytest.approx(1.0 * (2 / 3) ** DEFAULT_ALPHA * 1.0**DEFAULT_BETA, abs=1e-12)
    # a shorter hypothesis: nkt 1; precision 1; bp exp(1 - 3/2)
    short = ribes("a b".split(), ["a b c".split()])
    assert short.ribes == pytest.approx(1.0 * 1.0**DEFAULT_ALPHA * math.exp(-0.5) ** DEFAULT_BETA, abs=1e-12)


def test_alignment_direction_keeps_precision_bounded():
    # duplicated reference words must not align twice into a shorter hypothesis
    score = ribes("b a c".split(), ["b a x a c".split()])
    assert 0.0 <= score.unigram_precision <= 1.0


def test_nkt_against_all_pairs_oracle_random_distinct():
    rng = random.Random(987)
    vocab = [f"w{i}" for i in range(30)]
    for _ in range(200):
        ref = rng.sample(vocab, rng.randint(2, 10))
        hyp = rng.sample(vocab, rng.randint(2, 10))
        score = ribes(hyp, [ref])
        positions = distinct_word_alignment(ref, hyp)
        assert word_alignment(ref, hyp) == positions
        assert score.nkt == pytest.approx(ascending_fraction(positions), abs=0)


def test_normalized_kendall_tau_matches_oracle():
    rng = random.Random(5)
    for _ in range(100):
        seq = rng.sample(range(20), rng.randint(0, 10))
        assert normalized_kendall_tau(seq) == ascending_fraction(seq)


def test_vocabulary_relabeling_invariance():
    rng = random.Random(17)
    vocab = [f"w{i}" for i in range(12)]
    relabel = {w: f"z{i}" for i, w in enumerate(reversed(vocab))}
    for _ in range(50):
        ref = rng.sample(vocab, rng.randint(2, 8))
        hyp = rng.sample(vocab, rng.randint(2, 8))
        base = ribes(hyp, [ref])
        mapped = ribes([relabel[w] for w in hyp], [[relabel[w] for w in ref]])
        assert mapped == base


def test_corpus_is_mean_of_best_scores():
    hyps = ["a b c".split(), "d c b a".split()]
    refs = [[["a", "b", "c"]], [["a", "b", "c", "d"]]]
    corpus = ribes_corpus(hyps, refs)
    assert corpus.ribes == pytest.approx((1.0 + 0.0) / 2)


@pytest.mark.parametrize("count", [1, 7, 1_000, 100_000])
def test_fold_means_are_running_sums_in_constant_memory(count):
    """Each mean is the fields added left to right with ``+=``, divided by
    the count, to the bit; and the fold holds no per-segment state."""

    def scores():
        rng = random.Random(count)
        for _ in range(count):
            yield RibesScore(*(rng.choice((rng.random(), 1e-300 * rng.random(), 1.0, 5 / 6)) for _ in range(4)))

    totals = [0.0] * 4
    for score in scores():
        for k, value in enumerate((score.ribes, score.nkt, score.unigram_precision, score.bp)):
            totals[k] += value
    fold = RibesFold()
    tracemalloc.start()
    try:
        for score in scores():
            fold.add(score)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    result = fold.score()
    got = [result.ribes, result.nkt, result.unigram_precision, result.bp]
    assert [v.hex() for v in got] == [(total / count).hex() for total in totals]
    assert held < 0.1 * 2**20, held


def test_alignment_equals_rescan_oracle_random():
    """Small alphabets make repeated words and repeated context grams dense,
    so both windows, their order and the uniqueness test on each side all
    matter."""
    rng = random.Random(61)
    for _ in range(3000):
        alphabet = rng.randint(1, 6)
        ref = [rng.randrange(alphabet) for _ in range(rng.randint(0, 25))]
        hyp = [rng.randrange(alphabet) for _ in range(rng.randint(0, 25))]
        assert word_alignment(ref, hyp) == ribes_alignment_rescan(ref, hyp), (ref, hyp)


def _long_cases():
    words = " ".join(seed_lines("es")).split()
    shuffled = words[:400]
    random.Random(62).shuffle(shuffled)
    loop = ["de", "la"] * 120
    return {
        "shuffled-400": (words[:400], shuffled),
        "loop-240": (words[:240], loop),
        "loop-both-sides-80": (loop[:80], loop[:80]),
    }


@pytest.mark.parametrize("case", sorted(_long_cases()))
def test_alignment_equals_rescan_oracle_on_long_segments(case):
    ref, hyp = _long_cases()[case]
    assert word_alignment(ref, hyp) == ribes_alignment_rescan(ref, hyp)


@pytest.mark.parametrize("case", ["shuffled-400", "loop-240"])
def test_long_segment_finishes(case):
    """The rescanning alignment took seconds to minutes on such segments."""
    ref, hyp = _long_cases()[case]
    started = time.perf_counter()
    score = ribes(hyp, [ref])
    assert time.perf_counter() - started < 2.0
    assert 0.0 <= score.ribes <= 1.0
