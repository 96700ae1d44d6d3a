"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Criterion 4's hand case is ribes("a c b d" vs "a b c d"). Its aligned
ranks (0, 2, 1, 3) have 5 concordant and 1 discordant pair out of 6, so
Kendall's tau is (5 - 1)/6 = 2/3. RIBES scores word order with the
normalized tau, NKT = (tau + 1)/2 = 5/6 (Isozaki et al., 2010), and with
unigram precision and brevity penalty both 1 the RIBES value is NKT = 5/6.
"""

import random
import time
from contextlib import contextmanager

from bitextkit.cleaner import clean
from bitextkit.cognates import (
    count_examined,
    extract_cognates,
    levenshtein,
    preservation,
)
from bitextkit.corpus_io import corpus_stats
from bitextkit.evaluation import cognate_report
from bitextkit.langid import classify, train
from bitextkit.metrics import bleu_corpus, bleu_sentence, score_corpus
from bitextkit.metrics.ribes import ribes
from bitextkit.metrics.ter import ter
from bitextkit.tokenizer import detokenize, resolve_rules, tokenize

from oracles import (
    ascending_fraction,
    bleu_brute,
    distinct_word_alignment,
    edit_distance_matrix,
    levenshtein_recursive,
    normalized_distance,
)
from synth import seed_lines, synthetic_noisy_corpus, throughput_corpus
from test_tokenizer import load_cases


@contextmanager
def criterion(number, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:2d}] FAIL  {title}")
        raise
    print(f"\n[criterion {number:2d}] PASS  {title}  ({time.perf_counter() - start:.2f}s)")


def _fixture_sentences():
    rules = resolve_rules("es")
    return [tokenize(text, rules) for text in seed_lines("es")[:40]]


def test_criterion_01_metric_identity_triple():
    with criterion(1, "identity corpus scores bleu=100, ribes=1, ter=0 exactly"):
        start = time.perf_counter()
        hyps = _fixture_sentences()
        report = score_corpus(hyps, [[h] for h in hyps])
        assert report.bleu.bleu == 100.0
        assert report.ribes.ribes == 1.0
        assert report.ter.ter == 0.0
        assert time.perf_counter() - start < 1.0


def test_criterion_02_bleu_matches_brute_force_oracle():
    with criterion(2, "corpus BLEU equals n-gram recount oracle on 200 random corpora"):
        start = time.perf_counter()
        clipped = bleu_sentence(["the"] * 7, ["the cat is on the mat".split()])
        assert abs(clipped.precisions[0] - 2 / 7) < 1e-12

        rng = random.Random(42)
        vocab = [f"w{i}" for i in range(6)]
        for _ in range(200):
            n_sents = rng.randint(1, 6)
            hyps = [[rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(n_sents)]
            refs = [
                [[rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(rng.randint(1, 2))]
                for _ in range(n_sents)
            ]
            mine = bleu_corpus(hyps, refs)
            expected, _, _ = bleu_brute(hyps, refs)
            assert abs(mine.bleu - expected) < 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_03_ter_oracle_and_shift_bound():
    with criterion(3, "TER without shifts equals DP distance; shifts never hurt"):
        hand = ter("a b c".split(), ["a x c".split()])
        assert hand.ter == 1 / 3
        assert hand.edits.substitutions == 1

        rng = random.Random(43)
        vocab = [f"w{i}" for i in range(5)]
        for _ in range(200):
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            plain = ter(hyp, [ref], shifts=False)
            assert plain.ter == edit_distance_matrix(hyp, ref) / len(ref)
            assert ter(hyp, [ref]).ter <= plain.ter


def test_criterion_04_ribes_brute_force():
    with criterion(4, "RIBES nkt equals all-pairs oracle; reversal 0; hand case"):
        rng = random.Random(44)
        vocab = [f"w{i}" for i in range(30)]
        for _ in range(200):
            ref = rng.sample(vocab, rng.randint(2, 10))
            hyp = rng.sample(vocab, rng.randint(2, 10))
            mine = ribes(hyp, [ref])
            expected_nkt = ascending_fraction(distinct_word_alignment(ref, hyp))
            assert mine.nkt == expected_nkt

        assert ribes("d c b a".split(), ["a b c d".split()]).ribes == 0.0

        hand = ribes("a c b d".split(), ["a b c d".split()])
        oracle_nkt = ascending_fraction(distinct_word_alignment("a b c d".split(), "a c b d".split()))
        assert hand.nkt == oracle_nkt
        # Aligned ranks (0, 2, 1, 3): Kendall's tau is 2/3, and RIBES is the
        # normalized tau 5/6 = (2/3 + 1)/2, since precision and BP are both 1.
        assert hand.unigram_precision == 1.0
        assert hand.bp == 1.0
        assert abs((2 * hand.nkt - 1) - 2 / 3) <= 1e-12, (
            f"required tau 2/3 vs computed {2 * hand.nkt - 1} (oracle nkt {oracle_nkt})"
        )
        assert abs(hand.ribes - 5 / 6) <= 1e-12, (
            f"required ribes 5/6 vs computed {hand.ribes} (oracle nkt {oracle_nkt})"
        )


def test_criterion_05_levenshtein_metric_properties():
    with criterion(5, "Levenshtein is a metric and matches the recursive oracle"):
        assert levenshtein("kitten", "sitting") == 3

        rng = random.Random(45)
        alphabet = "abcdefñàé"
        words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))) for _ in range(2000)]
        for i in range(1000):
            a, b = words[2 * i], words[2 * i + 1]
            c = words[(3 * i) % len(words)]
            d_ab = levenshtein(a, b)
            assert d_ab == levenshtein(b, a)
            assert (d_ab == 0) == (a == b)
            assert levenshtein(a, c) <= d_ab + levenshtein(b, c)

        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert levenshtein(a, b) == levenshtein_recursive(a, b)


def test_criterion_06_langid_heldout_accuracy(heldout_rows):
    with criterion(6, "langid >= 95% on held-out; Table-2 sentence detected as es"):
        start = time.perf_counter()
        seeds = {lang: seed_lines(lang) for lang in ("es", "ca", "pt", "fr")}
        assert all(len(lines) >= 200 for lines in seeds.values())
        model = train(seeds)
        correct = sum(1 for lang, text in heldout_rows if classify(model, text).lang == lang)
        assert len(heldout_rows) == 60
        assert correct / len(heldout_rows) >= 0.95
        assert classify(model, "La sombra del caudillo").lang == "es"
        assert time.perf_counter() - start < 30.0


def test_criterion_07_cleaning_recall_and_precision(fixture_model):
    with criterion(7, "synthetic noise recall >= 0.90, clean false-removal <= 0.05"):
        pairs, noise = synthetic_noisy_corpus(n_clean=1000, n_copied=100, n_wrong=100)
        assert len(pairs) == 1200
        result = clean(pairs, fixture_model, mode="both")
        report = result.report
        assert report.kept + sum(report.removed_by_reason.values()) == 1200

        kept_indices = {p.index for p in result.kept}
        removed = {p.index for p in pairs} - kept_indices
        assert len(removed & noise) / len(noise) >= 0.90
        assert len(removed - noise) / (1200 - len(noise)) <= 0.05

        kept_side = {p.index for p in clean(pairs, fixture_model, mode="per_side").kept}
        kept_concat = {p.index for p in clean(pairs, fixture_model, mode="concat").kept}
        assert kept_indices <= kept_side
        assert kept_indices <= kept_concat


def test_criterion_08_tokenizer_fixture_conformance(data_dir):
    with criterion(8, "100% fixture-table agreement, round-trip prose, bm->fr fallback"):
        for lang in ("es", "ca", "pt", "fr", "en"):
            rules = resolve_rules(lang)
            cases = load_cases(data_dir, lang)
            assert len(cases) == 50, lang
            for rt, text, expected in cases:
                got = tokenize(text, rules)
                assert " ".join(got) == expected, (lang, text)
                if rt:
                    assert detokenize(got, rules) == text, (lang, text)

        en_rules = resolve_rules("en")
        assert " ".join(tokenize("Hello, world!", en_rules)) == "Hello , world !"
        assert " ".join(tokenize("Dr. Smith", en_rules)) == "Dr. Smith"
        bm_rules = resolve_rules("bm", "fr")
        assert bm_rules.lang == "fr"
        assert bm_rules.nonbreaking_prefixes == resolve_rules("fr").nonbreaking_prefixes


def _cognate_fixture(data_dir):
    from bitextkit.corpus_io import SentencePair

    rows = [l.split("\t") for l in (data_dir / "cognates_ca_es.tsv").read_text(encoding="utf-8").splitlines()]
    rules_ca = resolve_rules("ca")
    rules_es = resolve_rules("es")
    pairs = [
        SentencePair(i, " ".join(tokenize(c, rules_ca)), " ".join(tokenize(e, rules_es)), "ca", "es")
        for i, (c, e) in enumerate(rows)
    ]
    return pairs


def test_criterion_09_cognate_preservation(data_dir):
    with criterion(9, "cognate preservation 1.0 / 0.0 / 0.80 +- 0.02 on fixtures"):
        pairs = _cognate_fixture(data_dir)
        assert len(pairs) == 50
        cognates = extract_cognates(pairs)
        references = [p.target.split() for p in pairs]
        examined = count_examined(pairs)

        perfect = preservation(cognates, references, examined=examined)
        assert perfect.preservation_rate == 1.0

        victims_by_sentence = {}
        for c in cognates:
            victims_by_sentence.setdefault(c.source_sentence_index, []).append(c.target_word)
        stripped = [
            [
                tok
                for tok in toks
                if all(
                    normalized_distance(tok.lower(), victim.lower()) > 0.3
                    for victim in victims_by_sentence.get(i, [])
                )
            ]
            for i, toks in enumerate(references)
        ]
        assert preservation(cognates, stripped, examined=examined).preservation_rate == 0.0

        # corrupt exactly 20% of the cognates, choosing ones whose witness
        # tokens are not shared with any other cognate of the same sentence
        def witnesses(c):
            toks = references[c.source_sentence_index]
            return {
                i
                for i, tok in enumerate(toks)
                if normalized_distance(tok.lower(), c.target_word.lower()) <= 0.3
            }

        by_sentence = {}
        for c in cognates:
            by_sentence.setdefault(c.source_sentence_index, []).append(c)
        eligible = [
            c
            for c in cognates
            if all(
                witnesses(c).isdisjoint(witnesses(other))
                for other in by_sentence[c.source_sentence_index]
                if other is not c
            )
        ]
        k = round(0.2 * len(cognates))
        assert len(eligible) >= k
        rng = random.Random(20210814)
        chosen = rng.sample(eligible, k)
        corrupted = [list(toks) for toks in references]
        for n, c in enumerate(chosen):
            for i in witnesses(c):
                corrupted[c.source_sentence_index][i] = f"qzkx{n}w"
        partial = preservation(cognates, corrupted, examined=examined)
        assert abs(partial.preservation_rate - 0.80) <= 0.02

        # determinism across runs and worker counts
        assert extract_cognates(pairs) == cognates
        assert cognate_report(pairs, None, 0.3, 4, 4)[0] == cognates


def test_criterion_10_throughput_and_worker_invariance(fixture_model):
    with criterion(10, "clean + stats on 100k pairs < 60s; workers {1,4} identical"):
        pairs = throughput_corpus(100_000)
        start = time.perf_counter()
        stats_before = corpus_stats(pairs)
        result = clean(pairs, fixture_model, mode="both", workers=1)
        stats_after = corpus_stats(result.kept)
        elapsed = time.perf_counter() - start
        assert stats_before.sentence_count == 100_000
        assert stats_after.sentence_count == result.report.kept
        assert elapsed < 60.0, f"single-threaded clean+stats took {elapsed:.1f}s"

        result4 = clean(pairs, fixture_model, mode="both", workers=4)
        assert result4.kept == result.kept
        assert result4.report.removed_by_reason == result.report.removed_by_reason
