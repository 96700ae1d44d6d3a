import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit.cognates import (
    advance,
    count_examined,
    edit_state,
    extract_cognates,
    levenshtein,
    normalized_distance,
    preservation,
)
from bitextkit.corpus_io import SentencePair
from bitextkit.exceptions import IndexMismatch

from oracles import edit_distance_matrix, levenshtein_recursive

_WORD = st.text(alphabet="abcdefgàéíñç", max_size=12)


class TestLevenshtein:
    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_identity(self):
        for word in ["", "a", "contribución", "ñandú"]:
            assert levenshtein(word, word) == 0

    def test_pure_insertions(self):
        assert levenshtein("", "abc") == 3

    def test_table_word_pair(self):
        assert levenshtein("contribución", "contribució") == 1
        assert normalized_distance("contribución", "contribució") == pytest.approx(1 / 12)

    def test_exact_against_recursive_oracle(self):
        rng = random.Random(99)
        alphabet = "abcdé"
        for _ in range(300):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert levenshtein(a, b) == levenshtein_recursive(a, b)

    @settings(max_examples=250)
    @given(_WORD, _WORD)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @settings(max_examples=250)
    @given(_WORD, _WORD)
    def test_identity_of_indiscernibles(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)

    @settings(max_examples=250)
    @given(_WORD, _WORD, _WORD)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=100)
    @given(_WORD, _WORD)
    def test_normalized_bounds(self, a, b):
        nd = normalized_distance(a, b)
        assert 0.0 <= nd <= 1.0
        assert (nd == 0.0) == (a == b)


class TestBitParallelKernel:
    """``edit_state``/``advance`` against the full-matrix DP, across the
    30-bit digits of Python ints and the 64- and 128-bit boundaries."""

    def test_every_reference_length_1_to_130(self):
        rng = random.Random(7)
        for m in range(1, 131):
            for alphabet in range(1, 6):
                ref = [rng.randrange(alphabet) for _ in range(m)]
                hyp = [rng.randrange(alphabet + 1) for _ in range(rng.randint(0, m + 5))]
                ctx, column = edit_state(ref)
                assert advance(ctx, column, hyp)[2] == edit_distance_matrix(hyp, ref)
                assert levenshtein(hyp, ref) == edit_distance_matrix(hyp, ref)

    def test_resuming_from_any_prefix_equals_one_pass(self):
        rng = random.Random(8)
        for _ in range(100):
            alphabet = rng.randint(1, 5)
            ref = [rng.randrange(alphabet) for _ in range(rng.randint(0, 70))]
            hyp = [rng.randrange(alphabet) for _ in range(rng.randint(0, 70))]
            ctx, column = edit_state(ref)
            columns = [column]
            for item in hyp:
                columns.append(advance(ctx, columns[-1], [item]))
            for k, col in enumerate(columns):
                assert col[2] == edit_distance_matrix(hyp[:k], ref)
                assert advance(ctx, col, hyp[k:]) == columns[-1]

    def test_empty_sides(self):
        ctx, column = edit_state([])
        assert column == (0, 0, 0)
        assert advance(ctx, column, []) == (0, 0, 0)
        assert advance(ctx, column, ["a", "b", "a"])[2] == 3
        ctx, column = edit_state(["a", "b"])
        assert advance(ctx, column, [])[2] == 2
        assert levenshtein([], []) == levenshtein("", "") == 0
        assert levenshtein(["a", "b"], []) == 2

    def test_unseen_symbols_and_unicode(self):
        ctx, column = edit_state("contribución")
        assert advance(ctx, column, "contribució")[2] == 1
        assert advance(ctx, column, "ñandú")[2] == edit_distance_matrix("ñandú", "contribución")


def _pair(index, src, tgt):
    return SentencePair(index, src, tgt, "ca", "es")


class TestExtractCognates:
    def test_identical_sentences_all_long_tokens_are_cognates(self):
        pairs = [_pair(0, "una contribución financiera notable", "una contribución financiera notable")]
        found = extract_cognates(pairs, threshold=0.3, min_len=4)
        assert [(c.source_word, c.distance) for c in found] == [
            ("contribución", 0),
            ("financiera", 0),
            ("notable", 0),
        ]

    def test_table_style_pair(self):
        pairs = [_pair(0, "una contribució financera", "una contribución financiera")]
        found = extract_cognates(pairs, threshold=0.3, min_len=4)
        words = {(c.source_word, c.target_word) for c in found}
        assert ("contribució", "contribución") in words
        assert ("financera", "financiera") in words

    def test_disjoint_alphabets_find_nothing(self):
        pairs = [_pair(0, "aaaa bbbb", "zzzz yyyy")]
        assert extract_cognates(pairs, threshold=0.5, min_len=4) == []

    def test_min_len_excludes_short_tokens(self):
        pairs = [_pair(0, "el la contribució", "el la contribución")]
        found = extract_cognates(pairs, min_len=4)
        assert [c.source_word for c in found] == ["contribució"]
        assert count_examined(pairs, min_len=4) == 1

    def test_one_to_one_matching_greedy_by_distance(self):
        # two source tokens compete for one target: the closer one wins
        pairs = [_pair(0, "casa caso", "casa")]
        found = extract_cognates(pairs, threshold=0.5, min_len=4)
        assert len(found) == 1
        assert (found[0].source_word, found[0].target_word) == ("casa", "casa")

    def test_case_folding_and_accents(self):
        pairs = [_pair(0, "Grècia", "Grecia")]
        (cog,) = extract_cognates(pairs, threshold=0.3, min_len=4)
        assert cog.distance == 1  # è vs e, case ignored

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            extract_cognates([], threshold=0.0)

    def test_deterministic_across_runs_and_workers(self, data_dir):
        rows = [l.split("\t") for l in (data_dir / "cognates_ca_es.tsv").read_text(encoding="utf-8").splitlines()]
        pairs = [_pair(i, s, t) for i, (s, t) in enumerate(rows)]
        first = extract_cognates(pairs)
        again = extract_cognates(pairs)
        parallel = extract_cognates(pairs, workers=4)
        assert first == again == parallel
        assert len(first) > 100


class TestPreservation:
    def _fixture(self, data_dir):
        rows = [l.split("\t") for l in (data_dir / "cognates_ca_es.tsv").read_text(encoding="utf-8").splitlines()]
        pairs = [_pair(i, s, t) for i, (s, t) in enumerate(rows)]
        cognates = extract_cognates(pairs)
        references = [p.target.split() for p in pairs]
        return pairs, cognates, references

    def test_system_equals_reference_gives_one(self, data_dir):
        pairs, cognates, references = self._fixture(data_dir)
        report = preservation(cognates, references, examined=count_examined(pairs))
        assert report.preservation_rate == 1.0
        assert report.cognate_pairs == len(cognates)
        assert 0.0 <= report.cognate_rate <= 1.0

    def test_all_cognates_deleted_gives_zero(self, data_dir):
        _, cognates, references = self._fixture(data_dir)
        stripped = []
        targets = {}
        for c in cognates:
            targets.setdefault(c.source_sentence_index, []).append(c.target_word)
        for i, toks in enumerate(references):
            victims = targets.get(i, [])
            stripped.append(
                [t for t in toks if all(normalized_distance(t.lower(), v.lower()) > 0.3 for v in victims)]
            )
        report = preservation(cognates, stripped)
        assert report.preservation_rate == 0.0

    def test_out_of_range_sentence_index(self):
        pairs = [_pair(0, "contribució", "contribución")]
        (cog,) = extract_cognates(pairs)
        with pytest.raises(IndexMismatch):
            preservation([cog], [])

    def test_examined_controls_cognate_rate(self):
        pairs = [_pair(0, "contribució curta", "contribución corta")]
        found = extract_cognates(pairs, min_len=4)
        report = preservation(found, [p.target.split() for p in pairs], examined=10)
        assert report.pairs_examined == 10
        assert report.cognate_rate == pytest.approx(len(found) / 10)
