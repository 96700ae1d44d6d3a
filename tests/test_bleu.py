import math
import random

import pytest

from bitextkit.exceptions import EmptyCorpus, LineCountMismatch
from bitextkit.metrics import bleu_corpus, bleu_sentence

from oracles import bleu_brute


def test_identity_is_exactly_100():
    hyp = ["the cat sat on the mat".split(), "a stitch in time saves nine".split()]
    score = bleu_corpus(hyp, [[h] for h in hyp])
    assert score.bleu == 100.0
    assert score.precisions == (1.0, 1.0, 1.0, 1.0)
    assert score.brevity_penalty == 1.0


def test_sentence_identity_is_100():
    sent = "one two three four five".split()
    assert bleu_sentence(sent, [sent]).bleu == 100.0


def test_clipped_unigram_precision():
    hyp = ["the"] * 7
    ref = "the cat is on the mat".split()
    score = bleu_sentence(hyp, [ref])
    assert score.precisions[0] == pytest.approx(2 / 7)
    assert score.bleu == 0.0  # no bigram support, unsmoothed


def test_zero_without_fourgram_match_unsmoothed():
    score = bleu_sentence("a b c d".split(), ["a b x d".split()])
    assert score.precisions[3] == 0.0
    assert score.bleu == 0.0


def test_add_one_smoothing_matches_direct_formula():
    hyp = "a b c d".split()
    ref = "a b x d".split()
    score = bleu_sentence(hyp, [ref], smoothing="add_one_on_zero")
    # direct evaluation: p1=3/4, p2=1/3, p3=(0+1)/(2+1), p4=(0+1)/(1+1)
    expected = 100.0 * math.exp((math.log(3 / 4) + math.log(1 / 3) + math.log(1 / 3) + math.log(1 / 2)) / 4)
    assert score.bleu == pytest.approx(expected, abs=1e-9)


def test_brevity_penalty_applied_when_short():
    score = bleu_sentence("a b c d e".split(), ["a b c d e f g h i j".split()])
    assert score.brevity_penalty == pytest.approx(math.exp(1 - 10 / 5))


def test_effective_ref_length_ties_prefer_shorter():
    hyp = "a b c d".split()
    refs = ["x y z".split(), "p q r s t".split()]  # both at distance 1
    score = bleu_sentence(hyp, refs)
    assert score.ref_len == 3


def test_multi_reference_clipping_uses_max():
    hyp = "a a b".split()
    refs = ["a b".split(), "a a".split()]
    score = bleu_sentence(hyp, refs)
    assert score.precisions[0] == pytest.approx(1.0)


def test_errors():
    with pytest.raises(EmptyCorpus):
        bleu_corpus([], [])
    with pytest.raises(LineCountMismatch):
        bleu_corpus([["a"]], [])
    with pytest.raises(ValueError):
        bleu_sentence(["a"], [])


def test_corpus_permutation_invariance():
    rng = random.Random(7)
    vocab = ["v0", "v1", "v2", "v3", "v4", "v5"]
    corpus = [[rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(6)]
    refs = [[[rng.choice(vocab) for _ in range(rng.randint(1, 8))]] for _ in range(6)]
    base = bleu_corpus(corpus, refs)
    order = list(range(6))
    rng.shuffle(order)
    shuffled = bleu_corpus([corpus[i] for i in order], [refs[i] for i in order])
    assert shuffled == base


def test_vocabulary_relabeling_invariance():
    rng = random.Random(11)
    vocab = ["v0", "v1", "v2", "v3", "v4", "v5"]
    relabel = {v: f"w{i}" for i, v in enumerate(reversed(vocab))}
    corpus = [[rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(5)]
    refs = [[[rng.choice(vocab) for _ in range(rng.randint(1, 8))]] for _ in range(5)]
    base = bleu_corpus(corpus, refs)
    mapped = bleu_corpus(
        [[relabel[w] for w in sent] for sent in corpus],
        [[[relabel[w] for w in ref] for ref in group] for group in refs],
    )
    assert mapped.bleu == pytest.approx(base.bleu, abs=1e-12)


def test_against_brute_force_oracle_random_corpora():
    rng = random.Random(20210501)
    vocab = ["v0", "v1", "v2", "v3", "v4", "v5"]
    for case in range(200):
        n_sents = rng.randint(1, 6)
        n_refs = rng.randint(1, 2)
        hyps = [[rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(n_sents)]
        refs = [
            [[rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(n_refs)]
            for _ in range(n_sents)
        ]
        mine = bleu_corpus(hyps, refs)
        expected_bleu, expected_ps, expected_bp = bleu_brute(hyps, refs)
        assert mine.bleu == pytest.approx(expected_bleu, abs=1e-9), f"case {case}"
        assert list(mine.precisions) == pytest.approx(expected_ps, abs=1e-12)
        assert mine.brevity_penalty == pytest.approx(expected_bp, abs=1e-12)


def test_clipped_counts_equal_oracle_on_repetitive_segments():
    """Lengths 0-25 over alphabets of 1-6 words: every order from empty to
    dense repeats, with up to three references to clip against."""
    rng = random.Random(71)
    for _ in range(1000):
        alphabet = rng.randint(1, 6)
        hyp = [rng.randrange(alphabet) for _ in range(rng.randint(0, 25))]
        refs = [[rng.randrange(alphabet) for _ in range(rng.randint(0, 25))] for _ in range(rng.randint(1, 3))]
        expected_bleu, expected_ps, _ = bleu_brute([hyp], [refs])
        mine = bleu_corpus([hyp], [refs])
        assert list(mine.precisions) == expected_ps, (hyp, refs)
        assert mine.bleu == expected_bleu
