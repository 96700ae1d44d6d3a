import json

import pytest
from oracles import tokenize_per_line

from bitextkit.exceptions import EmptyCorpus, LineCountMismatch
from bitextkit.metrics import bleu_corpus, ribes_corpus, score_corpus, score_report, ter_corpus
from bitextkit.tokenizer import resolve_rules, tokenize

PROSE = [
    "El comité aprobó la propuesta por unanimidad.",
    "La biblioteca cierra a mediodía los sábados.",
    "Los resultados fueron buenos, aunque mejorables.",
    "El viento del norte trajo nieve a la sierra.",
    "Compramos pan, queso, vino y aceitunas.",
    "La reunión empezó tarde, como siempre.",
    "El perro del vecino ladra toda la noche.",
    "Su hermana estudia medicina en Salamanca.",
    "Apenas quedaban entradas para el estreno.",
    "La sopa estaba demasiado salada para mi gusto.",
]


@pytest.fixture
def hyp_ref_files(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("\n".join(PROSE) + "\n", encoding="utf-8")
    ref.write_text("\n".join(PROSE) + "\n", encoding="utf-8")
    return hyp, ref


def test_identity_triple(hyp_ref_files):
    hyp, ref = hyp_ref_files
    report = score_report(hyp, ref, lang="es")
    assert report.bleu.bleu == 100.0
    assert report.ribes.ribes == 1.0
    assert report.ter.ter == 0.0


def test_report_composes_the_three_metrics(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("\n".join(PROSE[:5]) + "\n", encoding="utf-8")
    ref.write_text("\n".join([PROSE[0], PROSE[1], PROSE[3], PROSE[2], PROSE[4]]) + "\n", encoding="utf-8")
    report = score_report(hyp, ref, lang="es")

    rules = resolve_rules("es")
    hyps = [tokenize(s, rules) for s in PROSE[:5]]
    refs = [[tokenize(s, rules)] for s in [PROSE[0], PROSE[1], PROSE[3], PROSE[2], PROSE[4]]]
    assert report.bleu == bleu_corpus(hyps, refs)
    assert report.ribes == ribes_corpus(hyps, refs)
    assert report.ter == ter_corpus(hyps, refs)


def test_empty_files_rejected(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("", encoding="utf-8")
    ref.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpus):
        score_report(hyp, ref, lang="es")


def test_line_count_mismatch(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a\nb\n", encoding="utf-8")
    ref.write_text("a\n", encoding="utf-8")
    with pytest.raises(LineCountMismatch):
        score_report(hyp, ref, lang="es")


def test_no_reference_rejected(hyp_ref_files):
    hyp, _ = hyp_ref_files
    with pytest.raises(ValueError, match="^at least one reference is required$"):
        score_report(hyp, [], lang="es")


def test_tokenized_flag_splits_on_whitespace(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("Hola , mundo !\n", encoding="utf-8")
    ref.write_text("Hola , mundo !\n", encoding="utf-8")
    report = score_report(hyp, ref, lang="es", tokenized_input=True)
    assert report.bleu.bleu == 100.0
    assert report.bleu.hyp_len == 4


def test_lowercase_toggle(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("HOLA MUNDO FELIZ OTRA VEZ\n", encoding="utf-8")
    ref.write_text("hola mundo feliz otra vez\n", encoding="utf-8")
    cased = score_report(hyp, ref, lang="es", tokenized_input=True)
    folded = score_report(hyp, ref, lang="es", tokenized_input=True, lowercase=True)
    assert cased.bleu.bleu == 0.0
    assert folded.bleu.bleu == 100.0


def test_json_field_names(hyp_ref_files):
    hyp, ref = hyp_ref_files
    payload = score_report(hyp, ref, lang="es").to_dict()
    for key in (
        "bleu",
        "precisions",
        "brevity_penalty",
        "hyp_len",
        "ref_len",
        "ribes",
        "nkt",
        "unigram_precision",
        "ter",
        "edits",
    ):
        assert key in payload
    assert set(payload["edits"]) == {"ins", "del", "sub", "shift"}
    # scorer conventions are recorded for auditability
    assert payload["bleu_smoothing"] == "none"
    assert payload["ter_max_shift_size"] == 10
    assert payload["alpha"] == 0.25
    assert payload["beta"] == 0.1
    json.dumps(payload)  # must be serializable as-is


def test_two_decimal_summary(hyp_ref_files):
    hyp, ref = hyp_ref_files
    assert score_report(hyp, ref, lang="es").summary() == "BLEU 100.00  RIBES 1.00  TER 0.00"


def test_multiple_references(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref1 = tmp_path / "ref1.txt"
    ref2 = tmp_path / "ref2.txt"
    hyp.write_text("el gato duerme en la cocina\n", encoding="utf-8")
    ref1.write_text("un perro ladra fuera de casa\n", encoding="utf-8")
    ref2.write_text("el gato duerme en la cocina\n", encoding="utf-8")
    report = score_report(hyp, [ref1, ref2], lang="es", tokenized_input=True)
    assert report.bleu.bleu == 100.0
    assert report.ribes.ribes == 1.0
    assert report.ter.ter == 0.0


@pytest.mark.parametrize("lowercase", [False, True])
def test_report_equals_per_line_tokenization(tmp_path, data_dir, lowercase):
    """score_report tokenizes whole files at once; its scores are those of
    the lines tokenized one at a time (folded first with ``lowercase``)."""
    rows = [line.split("\t") for line in (data_dir / "cognates_ca_es.tsv").read_text(encoding="utf-8").splitlines()]
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_text("".join(es + "\n" for _, es in rows), encoding="utf-8")
    ref.write_text("".join(es + "\n" for _, es in reversed(rows)), encoding="utf-8")
    rules = resolve_rules("es")
    fold = str.lower if lowercase else str
    hyps = [tokenize_per_line(fold(es), rules) for _, es in rows]
    refs = [[tokenize_per_line(fold(es), rules)] for _, es in reversed(rows)]
    assert score_report(hyp, ref, lang="es", lowercase=lowercase).to_dict() == score_corpus(hyps, refs).to_dict()
