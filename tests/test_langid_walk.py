"""The langid walk over every text position (``GramTrie.evidence``) against
the compacted walk in ``oracles.py``, which keeps only the positions still
inside some vocabulary gram after each n-gram length: the same sums, bit
for bit, and 0.0 for every text without evidence, for ``evidence`` and
``boundary_evidence`` on seeded cases of hostile text.

Every model's alphabet misses some case characters, which clip to the
symbol 0; one model's alphabet holds a code point above every case
character, and NUL, U+FFFF and characters outside the BMP."""

import random

import numpy as np
import pytest

import oracles
from bitextkit.cleaner import Reason, clean
from bitextkit.corpus_io import SentencePair
from bitextkit.langid import boundary_evidence, evidence, normalize_text, train
from synth import seed_lines, spliced

LANGS = ("es", "ca", "pt", "fr")
CASES_PER_MODEL = 480

# NUL inside a text, U+FFFF, characters outside the BMP, a lone surrogate,
# combining marks composed and not, whitespace and empty texts
HOSTILE = [
    "",
    " ",
    "a\x00b",
    "\x00",
    "de\uffffla",
    "\uffff",
    "la 😀 casa",
    "𝔸b𝔸",
    "e\u0301",
    "cafe\u0301 ça",
    "\u0301\u0301",
    "ωmega жук",
    "\ud800x",
]
# above every character that a case text holds
TOP = "\U0010fffd"

MODELS = {
    "seeds (1,4)": dict(),
    "seeds (1,1)": dict(ngram_range=(1, 1)),
    "seeds (2,3) vocab 50": dict(ngram_range=(2, 3), vocab_size=50),
    "seeds (3,5) vocab 3000": dict(ngram_range=(3, 5), vocab_size=3000),
    "odd alphabet (1,4)": dict(
        vocab_size=3000, extra=["a\x00b de\uffffla", "la 😀 casa 𝔸", "cafe\u0301 " + TOP * 3] * 40
    ),
}


@pytest.fixture(scope="module")
def models():
    built = {}
    for name, options in MODELS.items():
        options = dict(options)
        extra = options.pop("extra", [])
        built[name] = train({lang: seed_lines(lang) + extra for lang in LANGS}, **options)
    return built


def _pool(rng):
    texts = []
    for _ in range(60):
        lines = seed_lines(rng.choice(LANGS))
        texts.append(normalize_text(spliced(lines, rng.randrange(len(lines)), rng.randrange(len(lines)))))
    return texts


def _text(rng, pool):
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(pool)
    if roll < 0.7:
        return rng.choice(HOSTILE)
    chars = "de la çéœ'-" + "".join(HOSTILE)
    text = "".join(rng.choice(chars) for _ in range(rng.randrange(14)))
    return text if roll < 0.85 else rng.choice(pool)[: rng.randrange(20)] + text


def _assert_bit_identical(got, expected, case):
    ev, (ev_expected, has_expected) = got, expected
    assert ev.shape == ev_expected.shape, case
    bits, bits_expected = (np.ascontiguousarray(a).view(np.int64) for a in (ev, ev_expected))
    assert np.array_equal(bits, bits_expected), case
    assert not ev[~has_expected].any(), case


@pytest.mark.parametrize("name", sorted(MODELS))
def test_walk_matches_the_compacted_walk_bit_for_bit(models, name):
    model = models[name]
    assert TOP not in "".join(HOSTILE)
    rng = random.Random(f"walk:{name}")
    pool = _pool(rng)
    for case in range(CASES_PER_MODEL):
        texts = [_text(rng, pool) for _ in range(rng.randrange(7))]
        rights = [_text(rng, pool) for _ in texts]
        _assert_bit_identical(evidence(model, texts), oracles.langid_walk_compacted(model, texts), (case, texts))
        _assert_bit_identical(
            boundary_evidence(model, texts, rights),
            oracles.langid_boundary_walk_compacted(model, texts, rights),
            (case, texts, rights),
        )


def test_alphabets_clip_and_cover_as_the_cases_need(models):
    seeds, odd = models["seeds (1,4)"], models["odd alphabet (1,4)"]
    assert len(seeds.trie.lookup) - 1 < ord("\uffff")
    assert len(odd.trie.lookup) - 2 == ord(TOP)
    assert all(odd.trie.lookup[ord(ch)] for ch in "\x00\uffff😀𝔸")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_walk_matches_on_one_long_batch(models, name):
    model = models[name]
    rng = random.Random(f"batch:{name}")
    pool = _pool(rng)
    texts = pool + HOSTILE + [_text(rng, pool) for _ in range(200)]
    rights = texts[::-1]
    _assert_bit_identical(evidence(model, texts), oracles.langid_walk_compacted(model, texts), name)
    _assert_bit_identical(
        boundary_evidence(model, texts, rights), oracles.langid_boundary_walk_compacted(model, texts, rights), name
    )


def test_a_chunk_with_no_pair_to_classify_cleans_with_nul_in_the_alphabet(models):
    # the walk over no texts once read the final 0 as NUL's symbol, and
    # raised IndexError for a text that does not exist
    model = models["odd alphabet (1,4)"]
    assert model.trie.lookup[0]
    ev = evidence(model, [])
    assert ev.shape == (0, len(LANGS))
    pairs = [SentencePair(0, "", "hola", "es", "ca"), SentencePair(1, "hola", " ", "es", "ca")]
    result = clean(pairs, model, keep_decisions=True)
    assert [d.reason for d in result.report.decisions] == [Reason.EMPTY_SIDE, Reason.EMPTY_SIDE]
