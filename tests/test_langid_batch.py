"""The batched trie walk of ``langid.evidence`` and ``boundary_evidence``,
and the chunked decisions of ``cleaner.clean``, against the Counter-based
oracle in ``oracles.py``: scores within 1e-9, 0.0 for a text without
evidence, and the same decision for every pair in every mode.

Where the top two oracle scores differ by at most 1e-9 but are not equal,
the batched sums (added in another order) may rank them the other way;
such an argmax is checked on its own. Exact ties, as between languages
with equal priors on a text without evidence, tie in both implementations
and break by language order in both."""

import random

import numpy as np
import pytest

import oracles
from bitextkit import cleaner
from bitextkit.cleaner import MODES, clean
from bitextkit.corpus_io import _CHUNK, SentencePair
from bitextkit.langid import (
    boundary_evidence,
    classify,
    classify_lines,
    evidence,
    load_model,
    normalize_text,
    save_model,
    train,
)
from synth import seed_lines, spliced

TOLERANCE = 1e-9
LANGS = ("es", "ca", "pt", "fr")

# out-of-alphabet letters, NUL, astral-plane characters, lone surrogates,
# empty texts and texts shorter than any min_n used here
HOSTILE = [
    "",
    "a",
    "é",
    "\x00",
    "a\x00b",
    "\x00 \x00\x00",
    "ωmega жук ça",
    "la 😀 casa 😀",
    "😀",
    "\ud800",
    "de\udfffla",
    "😀 la",
    "  ",
]


def _texts(rng, count):
    texts = []
    for _ in range(count):
        lang = rng.choice(LANGS)
        lines = seed_lines(lang)
        texts.append(normalize_text(spliced(lines, rng.randrange(len(lines)), rng.randrange(len(lines)))))
    return texts + HOSTILE + [normalize_text(text) for text in HOSTILE]


MODELS = {
    "(1,4)": dict(ngram_range=(1, 4)),
    "(1,1)": dict(ngram_range=(1, 1)),
    "(2,3)": dict(ngram_range=(2, 3)),
    "(3,5)": dict(ngram_range=(3, 5)),
    "(1,4) vocab 40": dict(ngram_range=(1, 4), vocab_size=40),
    "(2,3) vocab 7": dict(ngram_range=(2, 3), vocab_size=7),
    "(1,3) vocab 1": dict(ngram_range=(1, 3), vocab_size=1),
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    return train({lang: seed_lines(lang) for lang in LANGS}, **MODELS[request.param])


@pytest.fixture(scope="module")
def odd_alphabet_model():
    """NUL, astral characters and lone surrogates inside the vocabulary."""
    extra = ["a\x00b de\x00la", "la 😀 casa 😀😀", "de\udfffla \ud800\ud800"] * 40
    return train({lang: seed_lines(lang) + extra for lang in LANGS}, ngram_range=(1, 4), vocab_size=3000)


def _assert_evidence_matches(model, texts, rng):
    ev = evidence(model, texts)
    assert ev.shape == (len(texts), len(model.languages))
    for text, row in zip(texts, ev):
        expected = oracles.langid_evidence_counter(model, text)
        if expected is None:
            assert not row.any(), text
        else:
            np.testing.assert_allclose(row, expected, rtol=0, atol=TOLERANCE, err_msg=repr(text))

    lefts = [rng.choice(texts) for _ in range(len(texts))]
    rights = [rng.choice(texts) for _ in range(len(texts))]
    ev = boundary_evidence(model, lefts, rights)
    for left, right, row in zip(lefts, rights, ev):
        expected = oracles.langid_boundary_evidence_counter(model, left, right)
        if expected is None:
            assert not row.any()
        else:
            np.testing.assert_allclose(row, expected, rtol=0, atol=TOLERANCE, err_msg=repr((left, right)))


def _pairs(rng, texts, count):
    pairs = []
    for index in range(count):
        src_lang, tgt_lang = rng.sample(LANGS, 2)
        pairs.append(SentencePair(index, rng.choice(texts), rng.choice(texts), src_lang, tgt_lang))
    return pairs


def _assert_decisions_match(decisions, pairs, model, mode):
    """Every decision equals the oracle's, except after a near-tie: an
    argmax whose top two oracle scores differ by more than 0 and at most
    1e-9, which the order of summation may break either way. There the
    label must be one of the tied languages, and what depends on it is not
    compared. Returns the number of exact ties met."""
    assert [d.index for d in decisions] == [p.index for p in pairs]
    exact = 0
    for decision, pair in zip(decisions, pairs):
        got = decision.to_dict()
        expected, argmaxed = oracles.clean_decide_counter(pair, model, mode)
        near = False
        for field, scores in argmaxed:
            best, second = np.sort(scores)[::-1][:2]
            if best == second:
                exact += 1
            elif best - second <= TOLERANCE:
                tied = {model.languages[k] for k in np.flatnonzero(scores >= best - TOLERANCE)}
                assert got[field] in tied, (pair, field, tied)
                near = True
                break
        if not near:
            assert got == expected, pair
    return exact


def test_evidence_matches_counter_oracle(model):
    rng = random.Random(f"evidence:{model.ngram_range}:{len(model.vocabulary)}")
    _assert_evidence_matches(model, _texts(rng, 150), rng)


def test_classify_lines_equals_classify_one_text_at_a_time(model):
    # exact: a text's evidence is summed in the same order in any batch
    rng = random.Random(f"classify:{model.ngram_range}:{len(model.vocabulary)}")
    texts = _texts(rng, 300) + HOSTILE
    assert classify_lines(model, texts) == [classify(model, text) for text in texts]


def test_evidence_with_odd_characters_in_the_vocabulary(odd_alphabet_model):
    assert any("\x00" in gram for gram in odd_alphabet_model.vocabulary)
    assert any("😀" in gram for gram in odd_alphabet_model.vocabulary)
    assert any("\udfff" in gram for gram in odd_alphabet_model.vocabulary)
    rng = random.Random("odd")
    texts = _texts(rng, 80) + ["a\x00b", "b", "a", "\x00la", "😀😀", "\udfffla"]
    _assert_evidence_matches(odd_alphabet_model, texts, rng)
    # a NUL between texts is a gap, not a character: no gram spans two texts
    ev = evidence(odd_alphabet_model, ["a", "\x00b"])
    alone = [evidence(odd_alphabet_model, [text])[0] for text in ("a", "\x00b")]
    np.testing.assert_array_equal(ev, np.array(alone))


def test_decisions_match_counter_oracle_in_every_mode(model):
    rng = random.Random(f"decide:{model.ngram_range}:{len(model.vocabulary)}")
    pairs = _pairs(rng, _texts(rng, 150), 300)
    for mode in MODES:
        result = clean(pairs, model, mode=mode, keep_decisions=True)
        _assert_decisions_match(result.report.decisions, pairs, model, mode)


def test_decisions_with_odd_characters_in_the_vocabulary(odd_alphabet_model):
    rng = random.Random("odd-decide")
    pairs = _pairs(rng, _texts(rng, 60), 200)
    for mode in MODES:
        result = clean(pairs, odd_alphabet_model, mode=mode, keep_decisions=True)
        _assert_decisions_match(result.report.decisions, pairs, odd_alphabet_model, mode)


def test_exact_ties_break_by_language_order_as_in_the_oracle():
    model = train({"es": seed_lines("es"), "ca": seed_lines("es")}, ngram_range=(1, 3))
    rng = random.Random("ties")
    pairs = [
        SentencePair(i, *rng.sample([normalize_text(line) for line in seed_lines("es")[:20]], 2), *langs)
        for i, langs in enumerate([("es", "ca"), ("ca", "es")] * 10)
    ]
    for mode in MODES:
        decisions = clean(pairs, model, mode=mode, keep_decisions=True).report.decisions
        # every score ties exactly in both, so the first language wins in both
        assert _assert_decisions_match(decisions, pairs, model, mode) >= len(pairs)


@pytest.mark.parametrize("size", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_edges_and_workers(fixture_model, size, workers):
    rng = random.Random(f"chunks:{size}")
    texts = _texts(rng, 100)
    pairs = [SentencePair(i, rng.choice(texts), rng.choice(texts), "es", "ca") for i in range(size)]
    for mode in MODES if workers == 1 else ("both",):
        result = clean(pairs, fixture_model, mode=mode, workers=workers, keep_decisions=True)
        assert len(result.report.decisions) == size
        _assert_decisions_match(result.report.decisions, pairs, fixture_model, mode)
        assert result.kept == [p for p, d in zip(pairs, result.report.decisions) if d.keep]
    assert cleaner._WORKER_MODEL is None


def test_trie_is_built_on_first_use_and_stays_small(fixture_model, tmp_path):
    path = tmp_path / "m.lidm"
    save_model(fixture_model, path)
    loaded = load_model(path)
    assert "trie" not in vars(loaded)
    evidence(loaded, ["hola"])
    assert "trie" in vars(loaded)
    assert loaded.trie.trans.nbytes + loaded.trie.offset.nbytes < 1 << 20
