import random
import time
import unicodedata

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from bitextkit import cognates as cognates_module
from bitextkit import evaluation
from bitextkit.cognates import (
    CognatePair,
    _WordTable,
    _within,
    count_examined,
    extract_cognates,
    preservation,
)
from bitextkit.corpus_io import SentencePair
from bitextkit.editdist import advance, edit_state, levenshtein
from bitextkit.evaluation import cognate_report
from bitextkit.exceptions import IndexMismatch

from oracles import (
    cognates_per_pair,
    edit_distance_matrix,
    levenshtein_recursive,
    normalized_distance,
    preservation_per_token,
)
from synth import seed_lines

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
        parallel, _ = cognate_report(pairs, None, 0.3, 4, 4)
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
        pairs, cognates, references = self._fixture(data_dir)
        stripped = []
        targets = {}
        for c in cognates:
            targets.setdefault(c.source_sentence_index, []).append(c.target_word)
        for i, toks in enumerate(references):
            victims = targets.get(i, [])
            stripped.append(
                [t for t in toks if all(normalized_distance(t.lower(), v.lower()) > 0.3 for v in victims)]
            )
        report = preservation(cognates, stripped, examined=count_examined(pairs))
        assert report.preservation_rate == 0.0

    def test_out_of_range_sentence_index(self):
        pairs = [_pair(0, "contribució", "contribución")]
        (cog,) = extract_cognates(pairs)
        with pytest.raises(IndexMismatch):
            preservation([cog], [], examined=1)

    @pytest.mark.parametrize("threshold", [-0.1, 0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 1.5])
    def test_a_form_in_the_sentence_is_preserved_as_the_full_scan_finds(self, threshold):
        """A target whose normalized form the system sentence has skips the
        search; against the scan of every token it gives the same report
        for exact, case, NFC/NFD, near-miss and far variants."""
        from bitextkit.cognates import CognatePair

        words = ["contribución", "Biblioteca", "ÑANDÚ", "ação", "straße", "gat", unicodedata.normalize("NFD", "acció")]
        variants = [
            lambda w: w,
            str.upper,
            str.lower,
            lambda w: unicodedata.normalize("NFD", w),
            lambda w: unicodedata.normalize("NFC", w).swapcase(),
            lambda w: w[:-1] + ("x" if w[-1] != "x" else "y"),  # one substitution
            lambda w: w + "s",  # one insertion
            lambda w: w[::-1],
        ]
        cognates, system = [], []
        for word in words:
            for variant in variants:
                index = len(system)
                system.append(["de", variant(word), "la"])
                # two cognates of one sentence, the second also checked against a far token
                cognates.append(CognatePair(word, word, 0, 0.0, index, 1, 1))
                cognates.append(CognatePair(word, word[::-1] + "q", 0, 0.0, index, 2, 2))
        random.Random(3).shuffle(cognates)  # sentences out of order too
        got = preservation(cognates, system, threshold, examined=len(cognates))
        assert got == preservation_per_token(cognates, system, threshold, len(cognates))
        assert (got.preserved > 0) == (threshold >= 0)

    def test_examined_controls_cognate_rate(self):
        pairs = [_pair(0, "contribució curta", "contribución corta")]
        found = extract_cognates(pairs, min_len=4)
        report = preservation(found, [p.target.split() for p in pairs], examined=10)
        assert report.pairs_examined == 10
        assert report.cognate_rate == pytest.approx(len(found) / 10)


# The float boundary cases: 0.25 and 0.5 are exact in binary, 1/3 is not,
# and 1.0 accepts every pair.
THRESHOLDS = (0.25, 1 / 3, 0.5, 1.0)

_SPECIAL_WORDS = (
    "Straße", "STRASSE", "strasse", "straße", "İstanbul", "istanbul", "i̇stanbul", "İ", "i",
    "éxito", "e\u0301xito", "Éxito", "exito", "canción", "cancio\u0301n", "cançó", "canço\u0301",
    "ﬁnal", "final", "Ǆemal", "ǆemal", "ΣΟΦΟΣ", "σοφος", "σοφοσ",
)


def _mutated(rng, word):
    chars = list(word)
    for _ in range(rng.randrange(3)):
        op = rng.randrange(4)
        pos = rng.randrange(len(chars) + 1)
        if op == 0:
            chars.insert(pos, rng.choice("aeiouéàçñß\u0301"))
        elif op == 1 and pos < len(chars):
            del chars[pos]
        elif op == 2 and pos < len(chars):
            chars[pos] = rng.choice("aeiouéàçñß")
        elif op == 3 and pos < len(chars):
            chars[pos] = chars[pos].upper()
    return "".join(chars) or word


def _random_word(rng, vocabulary):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(_SPECIAL_WORDS)
    if roll < 0.15:  # 100+ characters over a small alphabet, so that some are close
        return "".join(rng.choice("abé") for _ in range(rng.randint(100, 140)))
    if roll < 0.2:
        return unicodedata.normalize("NFD", rng.choice(vocabulary))
    return rng.choice(vocabulary)


def random_cognate_pairs(seed, count):
    """Seeded pairs whose targets copy, accent-shift, mutate or repeat source
    words among unrelated ones; one in ten targets is empty."""
    rng = random.Random(seed)
    vocabulary = sorted({w for lang in ("ca", "es") for line in seed_lines(lang)[:60] for w in line.split()})
    pairs = []
    for index in range(count):
        source = [_random_word(rng, vocabulary) for _ in range(rng.randrange(9))]
        if source and rng.random() < 0.2:
            source.append(rng.choice(source))  # a repeated word
        target = []
        if rng.random() >= 0.1:
            for word in source:
                roll = rng.random()
                if roll < 0.3:
                    target.append(word)
                elif roll < 0.7:
                    target.append(_mutated(rng, word))
                elif roll < 0.8:
                    target.extend([word, word])
            target += [_random_word(rng, vocabulary) for _ in range(rng.randrange(4))]
            rng.shuffle(target)
        pairs.append(_pair(index, " ".join(source), " ".join(target)))
    return pairs


def _system_for(rng, pairs):
    """A system output per pair: its target with words dropped, mutated or
    kept, so that some cognates survive and some do not."""
    system = []
    for p in pairs:
        tokens = []
        for word in p.target.split():
            roll = rng.random()
            if roll < 0.5:
                tokens.append(word)
            elif roll < 0.8:
                tokens.append(_mutated(rng, word))
        system.append(tokens)
    return system


RANDOM_PAIRS = random_cognate_pairs(2024, 2000)


def _fixture_pairs(data_dir):
    rows = [l.split("\t") for l in (data_dir / "cognates_ca_es.tsv").read_text(encoding="utf-8").splitlines()]
    return [_pair(i, s, t) for i, (s, t) in enumerate(rows)]


class TestPrunedSearchEqualsOracle:
    """The pruned, chunked search against the per-pair search it replaced."""

    @pytest.mark.parametrize("min_len", [1, 4])
    @pytest.mark.parametrize("threshold", THRESHOLDS + (0.3,))
    def test_fixture(self, data_dir, threshold, min_len):
        pairs = _fixture_pairs(data_dir)
        found = extract_cognates(pairs, threshold=threshold, min_len=min_len)
        assert found == cognates_per_pair(pairs, threshold, min_len)
        examined = count_examined(pairs, min_len)
        for system in ([p.target.split() for p in pairs], _system_for(random.Random(5), pairs)):
            assert preservation(found, system, threshold, examined=examined) == preservation_per_token(
                found, system, threshold, examined
            )

    @pytest.mark.parametrize("min_len", [1, 4])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_random_pairs(self, threshold, min_len):
        found = extract_cognates(RANDOM_PAIRS, threshold=threshold, min_len=min_len)
        assert found == cognates_per_pair(RANDOM_PAIRS, threshold, min_len)
        system = _system_for(random.Random(threshold), RANDOM_PAIRS)
        examined = count_examined(RANDOM_PAIRS, min_len)
        assert preservation(found, system, threshold, examined=examined) == preservation_per_token(
            found, system, threshold, examined
        )

    def test_random_pairs_cover_the_edge_cases(self):
        found = cognates_per_pair(RANDOM_PAIRS, 0.5, 1)
        assert any(not p.target for p in RANDOM_PAIRS)
        assert any(len(c.source_word) >= 100 and c.distance > 0 for c in found)
        assert any(c.source_word != c.target_word and c.distance == 0 for c in found)  # case, NFD, ß
        assert any(c.normalized_distance == 0.5 for c in found)
        assert len(found) > 5000

    def test_distance_equal_to_the_threshold_is_kept(self):
        (cog,) = extract_cognates([_pair(0, "gats", "gata")], threshold=0.25, min_len=4)
        assert (cog.distance, cog.normalized_distance) == (1, 0.25)
        assert extract_cognates([_pair(0, "gats", "gata")], threshold=0.24999, min_len=4) == []
        (cog,) = extract_cognates([_pair(0, "gat", "gas")], threshold=1 / 3, min_len=3)
        assert cog.normalized_distance == 1 / 3
        assert preservation([cog], [["gas"]], threshold=1 / 3, examined=1).preserved == 1
        assert preservation([cog], [["ga"]], threshold=1 / 3, examined=1).preserved == 1  # length bound 1/3
        assert preservation([cog], [["gxx"]], threshold=1 / 3, examined=1).preserved == 0
        assert preservation([cog], [["gat"]], threshold=0.3, examined=1).preserved == 0


class TestWorkersAndChunks:
    """``cognate_report`` maps extraction over chunks of pairs; neither the
    worker count nor the chunk size may change what it finds."""

    def test_workers_give_identical_results_over_several_chunks(self):
        pairs = RANDOM_PAIRS[:333]  # two full chunks of 128 and a ragged one
        assert len(pairs) > 2 * evaluation._CHUNK
        one = extract_cognates(pairs, threshold=1 / 3, min_len=4)
        assert one == cognates_per_pair(pairs, 1 / 3, 4)
        for workers in (1, 2, 4):
            assert cognate_report(pairs, None, 1 / 3, 4, workers)[0] == one

    @pytest.mark.parametrize("chunk_pairs", [1, 7, 128, 5000])
    def test_chunk_size_does_not_change_results(self, monkeypatch, chunk_pairs):
        pairs = RANDOM_PAIRS[:400]
        monkeypatch.setattr(evaluation, "_CHUNK", chunk_pairs)
        found, body = cognate_report(pairs, None, 0.5, 1, 1)
        assert found == cognates_per_pair(pairs, 0.5, 1)
        assert body["cognate_pairs"] == len(found)
        assert body["pairs_examined"] == count_examined(pairs, 1)


_ANY_WORD = st.text(
    alphabet=st.sampled_from("abcdeéèßİıiIsS\u0301\u0307ﬁΣσς"), min_size=0, max_size=14
)


class TestLowerBounds:
    """The length bound and the character bound are lower bounds on the
    distance of the normalized forms."""

    @staticmethod
    def _entries(a, b):
        table = _WordTable()
        return table[a], table[b]

    @settings(max_examples=400)
    @given(_ANY_WORD, _ANY_WORD)
    def test_each_bound_is_at_most_the_distance(self, a, b):
        (form_a, len_a, mask_a), (form_b, len_b, mask_b) = self._entries(a, b)
        dist = levenshtein(form_a, form_b)
        assert abs(len_a - len_b) <= dist
        assert max((mask_a & ~mask_b).bit_count(), (mask_b & ~mask_a).bit_count()) <= dist

    def test_a_bound_counting_one_side_with_multiplicity_fails(self):
        def mutant_exceeds_distance(words):
            entry_a, entry_b = self._entries(*words)
            # characters of a, with repeats, less the distinct ones it shares
            mutant = entry_a[1] - (entry_a[2] & entry_b[2]).bit_count()
            return mutant > levenshtein(entry_a[0], entry_b[0])

        # raises NoSuchExample if the property cannot tell the mutant apart
        find(st.tuples(_ANY_WORD, _ANY_WORD), mutant_exceeds_distance)

    @settings(max_examples=400)
    @given(_ANY_WORD, _ANY_WORD)
    def test_no_bound_rejects_a_pair_at_its_own_distance(self, a, b):
        # at a threshold equal to the pair's normalized distance, the pair
        # must reach the kernel and be kept: a bound over the distance
        # would skip it
        entry_a, entry_b = self._entries(a, b)
        longest = max(entry_a[1], entry_b[1])
        dist = levenshtein(entry_a[0], entry_b[0])
        nd = dist / longest if longest else 0.0
        assert _within(entry_a, entry_b, nd) == (dist, nd)

    def test_bounds_skip_most_kernel_calls(self, monkeypatch, data_dir):
        calls = []
        kernel = cognates_module.levenshtein
        monkeypatch.setattr(cognates_module, "levenshtein", lambda a, b: calls.append(1) or kernel(a, b))
        pairs = _fixture_pairs(data_dir)
        found = extract_cognates(pairs)
        comparisons = sum(
            sum(1 for tok in p.source.split() if len(tok) >= 4) * len(p.target.split()) for p in pairs
        )
        assert 0 < len(calls) < comparisons / 4
        assert found == cognates_per_pair(pairs, 0.3, 4)


def _best_of_3(call) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


def _repeated(items, n):
    return (items * (n // len(items) + 1))[:n]


def test_preservation_time_grows_linearly_in_the_sentence(seeds):
    # every target word is in the system sentence: one that is not is
    # compared with every token by definition, as extraction compares
    # every word pair
    words = " ".join(seeds["ca"]).split()

    def preserved(tokens):
        system = _repeated(words, tokens)
        found = [CognatePair(word, word, 0, 0.0, 0, i, i) for i, word in enumerate(system)]
        return _best_of_3(lambda: preservation(found, [system], 0.3, examined=tokens))

    # linear work takes about 4x from n to 4n tokens, quadratic about 16x;
    # 4n takes 0.1 s or more on a 2-vCPU machine
    assert preserved(400_000) / preserved(100_000) < 8
