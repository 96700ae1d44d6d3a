import time
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit.cleaner import CleaningDecision, Reason, audit_table, clean, clean_chunks
from bitextkit.corpus_io import SentencePair
from bitextkit.exceptions import IndexMismatch, UnknownLanguage
from bitextkit.langid import train

from synth import synthetic_noisy_corpus


@pytest.fixture(scope="module")
def noisy(fixture_model):
    pairs, noise = synthetic_noisy_corpus(n_clean=300, n_copied=30, n_wrong=30)
    return pairs, noise


def test_same_language_noise_removed(fixture_model):
    # a target that simply copies the source is the classic noise class
    pair = SentencePair(0, "El gobierno anunció nuevas medidas.", "El gobierno anunció nuevas medidas.", "es", "ca")
    result = clean([pair], fixture_model, mode="per_side", keep_decisions=True)
    (decision,) = result.report.decisions
    assert decision.keep is False
    assert decision.reason is Reason.SAME_LANGUAGE
    assert decision.predicted_source == decision.predicted_target == "es"


def test_claimed_catalan_actually_spanish(fixture_model):
    # the audit-table failure mode: a pair claimed (ca, es) whose "Catalan"
    # side is Spanish, so both sides predict es
    pair = SentencePair(0, "La sombra del caudillo", "La sombra del caudillo", "ca", "es")
    result = clean([pair], fixture_model, mode="per_side", keep_decisions=True)
    (decision,) = result.report.decisions
    assert decision.keep is False
    assert decision.reason is Reason.SAME_LANGUAGE
    assert decision.predicted_source == "es"
    assert decision.predicted_target == "es"


def test_clean_pair_kept_with_all_predictions(fixture_model):
    pair = SentencePair(
        0,
        "El gobierno anunció ayer nuevas medidas económicas.",
        "El govern va anunciar ahir noves mesures econòmiques.",
        "es",
        "ca",
    )
    result = clean([pair], fixture_model, mode="both", keep_decisions=True)
    (decision,) = result.report.decisions
    assert decision.keep is True and decision.reason is Reason.KEPT
    assert decision.predicted_source == "es"
    assert decision.predicted_target == "ca"
    assert decision.predicted_concat in ("es", "ca")


def test_empty_side_removed_before_classification(fixture_model):
    pairs = [
        SentencePair(0, "   ", "El govern va anunciar mesures.", "es", "ca"),
        SentencePair(1, "Texto normal en castellano.", "", "es", "ca"),
    ]
    result = clean(pairs, fixture_model, keep_decisions=True)
    for decision in result.report.decisions:
        assert decision.reason is Reason.EMPTY_SIDE
        assert decision.predicted_source is None
        assert decision.predicted_concat is None


def test_wrong_language_target(fixture_model):
    pair = SentencePair(
        0,
        "La biblioteca cierra a mediodía los sábados.",
        "La bibliothèque ferme à midi le samedi.",
        "es",
        "ca",
    )
    result = clean([pair], fixture_model, mode="per_side", keep_decisions=True)
    (decision,) = result.report.decisions
    assert decision.keep is False
    assert decision.reason is Reason.TARGET_MISMATCH
    assert decision.predicted_target == "fr"


def test_unknown_claimed_language(fixture_model):
    pair = SentencePair(0, "hello there", "hola", "en", "es")
    with pytest.raises(UnknownLanguage):
        clean([pair], fixture_model)


def test_same_claimed_codes_rejected(fixture_model):
    pair = SentencePair(0, "hola", "adios", "es", "es")
    with pytest.raises(ValueError):
        clean([pair], fixture_model)


def test_conservation_and_order(fixture_model, noisy):
    pairs, _ = noisy
    result = clean(pairs, fixture_model, mode="both")
    report = result.report
    assert report.kept + sum(report.removed_by_reason.values()) == report.total == len(pairs)
    indices = [p.index for p in result.kept]
    assert indices == sorted(indices)


def test_idempotence(fixture_model, noisy):
    pairs, _ = noisy
    first = clean(pairs, fixture_model, mode="both")
    second = clean(first.kept, fixture_model, mode="both")
    assert second.kept == first.kept
    assert second.report.kept == second.report.total


def test_mode_monotonicity(fixture_model, noisy):
    pairs, _ = noisy
    kept_both = {p.index for p in clean(pairs, fixture_model, mode="both").kept}
    kept_side = {p.index for p in clean(pairs, fixture_model, mode="per_side").kept}
    kept_concat = {p.index for p in clean(pairs, fixture_model, mode="concat").kept}
    assert kept_both <= kept_side
    assert kept_both <= kept_concat


def test_mode_prediction_fields_match_checks_run(fixture_model):
    pair = SentencePair(
        0,
        "El gobierno anunció ayer nuevas medidas económicas.",
        "El govern va anunciar ahir noves mesures econòmiques.",
        "es",
        "ca",
    )
    concat_only = clean([pair], fixture_model, mode="concat", keep_decisions=True).report.decisions[0]
    assert concat_only.predicted_concat is not None
    assert concat_only.predicted_source is None and concat_only.predicted_target is None
    per_side = clean([pair], fixture_model, mode="per_side", keep_decisions=True).report.decisions[0]
    assert per_side.predicted_concat is None
    assert per_side.predicted_source is not None and per_side.predicted_target is not None


def test_worker_count_does_not_change_output(fixture_model, noisy):
    pairs, _ = noisy
    one = clean(pairs, fixture_model, mode="both", workers=1, keep_decisions=True)
    four = clean(pairs, fixture_model, mode="both", workers=4, keep_decisions=True)
    assert one.kept == four.kept
    assert one.report.decisions == four.report.decisions
    assert one.report.removed_by_reason == four.report.removed_by_reason


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("with_model", [True, False])
def test_clean_chunks_decides_the_chunks_it_is_given(fixture_model, noisy, workers, with_model):
    """Uneven chunks come back one at a time, each the list that was given,
    in input order, with the decisions ``clean`` makes on all their pairs."""
    pairs, _ = noisy
    ends = list(accumulate((1, 7, 128, 3), initial=0))
    chunks = [pairs[start:end] for start, end in zip(ends, ends[1:])]
    model = fixture_model if with_model else None
    decided = list(clean_chunks(iter(chunks), ends[-1], model, "both", workers))
    assert len(decided) == len(chunks)
    assert all(got is given for (got, _), given in zip(decided, chunks))
    assert [len(decisions) for _, decisions in decided] == [len(chunk) for chunk in chunks]
    decisions = [decision for _, chunk_decisions in decided for decision in chunk_decisions]
    assert decisions == clean(pairs[: ends[-1]], model, keep_decisions=True).report.decisions
    assert {decision.keep for decision in decisions} == ({True, False} if with_model else {True})


_TOY_MODEL = train(
    {"aa": ["xxxx yyy xy xyx", "xy yx xxy"], "bb": ["zzzz www zw zwz", "zw wz zzw"]},
    ngram_range=(1, 3),
    vocab_size=200,
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(alphabet="xz w", max_size=12), st.text(alphabet="xz w", max_size=12)),
        max_size=15,
    ),
    st.sampled_from(["per_side", "concat", "both"]),
)
def test_conservation_property_on_arbitrary_corpora(rows, mode):
    pairs = [SentencePair(i, s, t, "aa", "bb") for i, (s, t) in enumerate(rows)]
    result = clean(pairs, _TOY_MODEL, mode=mode)
    report = result.report
    assert report.kept + sum(report.removed_by_reason.values()) == report.total == len(pairs)
    kept_indices = [p.index for p in result.kept]
    assert kept_indices == sorted(kept_indices)


def test_noise_recall_and_clean_precision(fixture_model, noisy):
    pairs, noise_indices = noisy
    result = clean(pairs, fixture_model, mode="both")
    kept_indices = {p.index for p in result.kept}
    removed = set(p.index for p in pairs) - kept_indices
    noise_removed = len(removed & noise_indices)
    clean_removed = len(removed - noise_indices)
    assert noise_removed / len(noise_indices) >= 0.90
    assert clean_removed / (len(pairs) - len(noise_indices)) <= 0.05


class TestAuditTable:
    def test_single_removed_row(self, fixture_model):
        pairs = [
            SentencePair(0, "Texto claramente castellano aquí.", "Texto claramente castellano aquí.", "es", "ca"),
            SentencePair(
                1,
                "El gobierno anunció ayer nuevas medidas económicas.",
                "El govern va anunciar ahir noves mesures econòmiques.",
                "es",
                "ca",
            ),
        ]
        result = clean(pairs, fixture_model, mode="per_side", keep_decisions=True)
        table = audit_table(result.report.decisions, pairs)
        lines = table.splitlines()
        assert lines[0].split("\t") == ["index", "source", "target", "claimed", "predicted", "reason"]
        assert len(lines) == 2
        assert lines[1].startswith("0\t")
        assert "es-ca" in lines[1]

    def test_zero_removals_header_only(self, fixture_model):
        pairs = [
            SentencePair(
                0,
                "El gobierno anunció ayer nuevas medidas económicas.",
                "El govern va anunciar ahir noves mesures econòmiques.",
                "es",
                "ca",
            )
        ]
        result = clean(pairs, fixture_model, mode="both", keep_decisions=True)
        table = audit_table(result.report.decisions, pairs)
        assert table.splitlines() == ["index\tsource\ttarget\tclaimed\tpredicted\treason"]

    def test_row_set_matches_removed_decisions(self, fixture_model, noisy):
        pairs, _ = noisy
        result = clean(pairs, fixture_model, mode="both", keep_decisions=True)
        table = audit_table(result.report.decisions, pairs)
        body = table.splitlines()[1:]
        removed = [d for d in result.report.decisions if not d.keep]
        assert len(body) == len(removed)
        assert [int(line.split("\t")[0]) for line in body] == [d.index for d in removed]

    def test_index_mismatch_detected(self, fixture_model):
        pairs = [SentencePair(0, "a", "b", "es", "ca")]
        decisions = [CleaningDecision(5, True, Reason.KEPT)]
        with pytest.raises(IndexMismatch):
            audit_table(decisions, pairs)

    def test_text_rendering(self, fixture_model):
        pairs = [SentencePair(0, "Texto castellano.", "Texto castellano.", "es", "ca")]
        result = clean(pairs, fixture_model, mode="per_side", keep_decisions=True)
        table = audit_table(result.report.decisions, pairs, fmt="text")
        assert "reason" in table.splitlines()[0]


def _best_of_3(call) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


def _repeated(items, n):
    return (items * (n // len(items) + 1))[:n]


def test_clean_time_grows_linearly_in_the_pair(fixture_model, seeds):
    es, ca = " ".join(seeds["es"]), " ".join(seeds["ca"])

    def clean_one(chars):
        pair = SentencePair(0, _repeated(es, chars), _repeated(ca, chars), "es", "ca")
        return _best_of_3(lambda: clean([pair], fixture_model))

    # linear work takes about 4x from n to 4n characters a side, quadratic
    # about 16x; 4n takes 0.1 s or more on a 2-vCPU machine
    assert clean_one(400_000) / clean_one(100_000) < 8
