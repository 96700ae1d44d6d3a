import math
import time

import numpy as np
import pytest

from bitextkit.corpus_io import SentencePair
from bitextkit.exceptions import EmptySeed, InsufficientLanguages, ModelFormatError, VersionMismatch
from bitextkit.langid import classify, classify_lines, evidence, load_model, normalize_text, save_model, train

TOY_SEEDS = {
    "aa": ["xxxx yyy xy xyx", "xy yx xxy yxx", "xyxyxy xxx yy"],
    "bb": ["zzzz www zw zwz", "zw wz zzw wzz", "zwzwzw zzz ww"],
}


def log_posteriors(model, text):
    """Log of the softmax-normalized per-language posterior of ``text``."""
    raw = model.log_prior + evidence(model, [normalize_text(text)])[0]
    return raw - (raw.max() + np.log(np.exp(raw - raw.max()).sum()))


@pytest.fixture(scope="module")
def toy_model():
    return train(TOY_SEEDS, ngram_range=(1, 3), vocab_size=200, smoothing_alpha=0.5)


class TestTrain:
    def test_needs_two_languages(self):
        with pytest.raises(InsufficientLanguages):
            train({"aa": ["x"]})

    def test_empty_seed_rejected(self):
        with pytest.raises(EmptySeed) as err:
            train({"aa": ["x"], "bb": ["", "   "]})
        assert err.value.lang == "bb"

    def test_ngram_bound_must_fit_the_model_format(self, tmp_path):
        with pytest.raises(ValueError, match="invalid ngram_range"):
            train(TOY_SEEDS, ngram_range=(1, 256))
        with pytest.raises(ValueError, match="invalid ngram_range"):
            train(TOY_SEEDS, ngram_range=(256, 256))
        save_model(train(TOY_SEEDS, ngram_range=(1, 255), vocab_size=50), tmp_path / "m.lidm")
        assert load_model(tmp_path / "m.lidm").ngram_range == (1, 255)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"vocab_size": 0}, "vocab_size must be positive, got 0"),
            ({"smoothing_alpha": 0}, "smoothing_alpha must be positive, got 0"),
            ({"ngram_range": (20, 20)}, r"seeds produced no n-grams for ngram_range \(20, 20\)"),
        ],
    )
    def test_options_that_leave_no_model_rejected(self, options, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(TOY_SEEDS, **options)

    def test_vocab_size_one(self):
        model = train(TOY_SEEDS, ngram_range=(1, 2), vocab_size=1)
        assert len(model.vocabulary) == 1

    def test_likelihoods_normalize(self, toy_model):
        row_sums = np.exp(toy_model.log_likelihood).sum(axis=1)
        assert np.allclose(row_sums, 1.0, atol=1e-9)

    def test_priors_normalize(self, toy_model):
        assert abs(np.exp(toy_model.log_prior).sum() - 1.0) < 1e-12

    def test_priors_proportional_to_line_counts(self):
        model = train({"aa": ["x y"] * 3, "bb": ["z w"] * 1}, ngram_range=(1, 1), vocab_size=50)
        assert np.exp(model.log_prior[0]) == pytest.approx(0.75)

    def test_vocabulary_tie_break_lexicographic(self):
        # every unigram appears once: the cap keeps the lexicographically first
        model = train({"aa": ["dcba"], "bb": ["hgfe"]}, ngram_range=(1, 1), vocab_size=4)
        assert sorted(model.vocabulary) == ["a", "b", "c", "d"]

    def test_training_lines_classify_to_own_language(self, toy_model):
        for lang, lines in TOY_SEEDS.items():
            for line in lines:
                assert classify(toy_model, line).lang == lang


class TestClassify:
    def test_margin_nonnegative_and_posterior_normalized(self, toy_model):
        for text in ["xxy", "zzw", "xz", ""]:
            posterior = log_posteriors(toy_model, text)
            assert abs(np.exp(posterior).sum() - 1.0) < 1e-9
            assert classify(toy_model, text).margin >= 0.0

    def test_empty_text_falls_back_to_priors(self):
        model = train({"aa": ["x y"] * 3, "bb": ["z w"]}, ngram_range=(1, 1), vocab_size=50)
        pred = classify(model, "")
        assert pred.lang == "aa"
        assert pred.margin == pytest.approx(math.log(0.75) - math.log(0.25))

    def test_out_of_vocabulary_equals_empty(self, toy_model):
        assert classify(toy_model, "KKKK").margin == classify(toy_model, "").margin

    def test_identical_seeds_tie_break_by_order(self):
        model = train({"first": ["same text here"], "second": ["same text here"]})
        pred = classify(model, "same text")
        assert pred.lang == "first"
        assert pred.margin == 0.0

    def test_determinism(self, toy_model):
        a = classify(toy_model, "xy zw xxy")
        b = classify(toy_model, "xy zw xxy")
        assert a == b

    def test_label_permutation_equivariance(self):
        fwd = train(TOY_SEEDS, ngram_range=(1, 3), vocab_size=200)
        rev = train(dict(reversed(TOY_SEEDS.items())), ngram_range=(1, 3), vocab_size=200)
        for text in ["xxy yx", "wzz zw", "xyx zwz x"]:
            assert classify(fwd, text).lang == classify(rev, text).lang

    def test_monotone_evidence_for_typical_gram(self, toy_model):
        # the gram most favourable to "aa" never hurts "aa" when repeated
        gap = toy_model.log_likelihood[0] - toy_model.log_likelihood[1]
        gram = next(g for g, i in toy_model.vocabulary.items() if i == int(np.argmax(gap)))
        row = list(toy_model.languages).index("aa")
        base = "xy zw"
        last = -np.inf
        for k in range(1, 5):
            value = log_posteriors(toy_model, base + " " + " ".join([gram] * k))[row]
            assert value >= last - 1e-9
            last = value

    def test_concat_matches_joined_text(self, toy_model):
        pair = SentencePair(0, "xxy yx", "zzw wz", "aa", "bb")
        assert classify(toy_model, pair.source + " " + pair.target) == classify(toy_model, "xxy yx zzw wz")

    def test_concat_with_empty_source(self, toy_model):
        pair = SentencePair(0, "", "zzw wz", "aa", "bb")
        assert classify(toy_model, pair.source + " " + pair.target).lang == classify(toy_model, "zzw wz").lang


class TestSerialization:
    def test_round_trip_bit_identical(self, toy_model, tmp_path):
        path = tmp_path / "model.lidm"
        save_model(toy_model, path)
        again = load_model(path)
        assert again.languages == toy_model.languages
        assert again.ngram_range == toy_model.ngram_range
        assert again.vocabulary == toy_model.vocabulary
        assert again.smoothing_alpha == toy_model.smoothing_alpha
        assert np.array_equal(again.log_prior, toy_model.log_prior)
        assert np.array_equal(again.log_likelihood, toy_model.log_likelihood)

    def test_round_trip_prediction_equality(self, toy_model, tmp_path):
        path = tmp_path / "model.lidm"
        save_model(toy_model, path)
        again = load_model(path)
        probes = [f"x{i} zw xy" * (i % 3 + 1) for i in range(100)]
        for probe in probes:
            assert classify(again, probe) == classify(toy_model, probe)

    def test_truncated_file_reports_offset(self, toy_model, tmp_path):
        path = tmp_path / "model.lidm"
        save_model(toy_model, path)
        data = path.read_bytes()
        (tmp_path / "cut.lidm").write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelFormatError) as err:
            load_model(tmp_path / "cut.lidm")
        assert err.value.offset <= len(data) // 2

    def test_unknown_version_rejected(self, toy_model, tmp_path):
        path = tmp_path / "model.lidm"
        save_model(toy_model, path)
        data = bytearray(path.read_bytes())
        data[4] = 255
        (tmp_path / "v255.lidm").write_bytes(bytes(data))
        with pytest.raises(VersionMismatch) as err:
            load_model(tmp_path / "v255.lidm")
        assert err.value.found == 255

    def test_invalid_utf8_in_a_vocabulary_entry_reports_its_offset(self, toy_model, tmp_path):
        path = tmp_path / "model.lidm"
        save_model(toy_model, path)
        data = bytearray(path.read_bytes())
        # magic, version, language count and codes, n-gram range, alpha, vocabulary size
        offset = 4 + 1 + 2 + sum(2 + len(lang) for lang in toy_model.languages) + 2 + 8 + 4
        for gram in sorted(toy_model.vocabulary, key=toy_model.vocabulary.get):
            if len(gram) > 1:
                break
            offset += 2 + len(gram.encode("utf-8"))
        assert data[offset + 2 : offset + 2 + len(gram)] == gram.encode("ascii")
        data[offset + 3] = 0xFF  # the gram's second byte
        (tmp_path / "bad.lidm").write_bytes(bytes(data))
        with pytest.raises(ModelFormatError) as err:
            load_model(tmp_path / "bad.lidm")
        assert err.value.offset == offset + 3
        assert str(err.value) == f"corrupt model file at byte offset {offset + 3}: bad UTF-8 in vocabulary entry"

    def test_trailing_byte_reports_its_offset(self, toy_model, tmp_path):
        path = tmp_path / "model.lidm"
        save_model(toy_model, path)
        data = path.read_bytes()
        (tmp_path / "long.lidm").write_bytes(data + b"\x00")
        with pytest.raises(ModelFormatError) as err:
            load_model(tmp_path / "long.lidm")
        assert err.value.offset == len(data)
        assert str(err.value) == f"corrupt model file at byte offset {len(data)}: 1 trailing bytes"

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "junk.lidm").write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(ModelFormatError) as err:
            load_model(tmp_path / "junk.lidm")
        assert err.value.offset == 0


class TestFixtureModel:
    def test_two_disjoint_alphabet_languages_separate_perfectly(self):
        seeds = {
            "aa": [" ".join(f"x{i}" for i in range(k, k + 5)) for k in range(10)],
            "bb": [" ".join(f"z{i}" for i in range(k, k + 5)) for k in range(10)],
        }
        model = train(seeds, ngram_range=(1, 2), vocab_size=2000)
        for lang, lines in seeds.items():
            for line in lines:
                assert classify(model, line).lang == lang

    def test_table_row_prediction(self, fixture_model):
        assert classify(fixture_model, "La sombra del caudillo").lang == "es"

    def test_cross_language_concat_frozen_prediction(self, fixture_model, seeds):
        # each side alone classifies to its own language; the concatenation
        # resolves to a single label, frozen here from the fixture model
        es_line, pt_line = seeds["es"][0], seeds["pt"][0]
        assert classify(fixture_model, es_line).lang == "es"
        assert classify(fixture_model, pt_line).lang == "pt"
        pair = SentencePair(0, es_line, pt_line, "es", "pt")
        assert classify(fixture_model, pair.source + " " + pair.target).lang == "pt"

    def test_scores_shape(self, fixture_model):
        ev = evidence(fixture_model, [normalize_text("hola amigo")])
        assert ev.shape == (1, 4)
        assert (fixture_model.log_prior + ev[0]).shape == (4,)
        assert ev[0].all()


def test_classify_time_grows_linearly_in_the_line(fixture_model, seeds):
    text = " ".join(seeds["ca"] + seeds["es"])

    def best_of_3(chars):
        line = (text * (chars // len(text) + 1))[:chars]
        times = []
        for _ in range(3):
            start = time.perf_counter()
            classify_lines(fixture_model, [line])
            times.append(time.perf_counter() - start)
        return min(times)

    # linear work takes about 4x from n to 4n characters, quadratic about
    # 16x; n is chosen so that 4n takes 50 ms or more on a 2-vCPU machine
    assert best_of_3(400_000) / best_of_3(100_000) < 8
