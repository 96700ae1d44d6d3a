"""Machine-translation evaluation metrics: BLEU, RIBES, and TER."""

from .bleu import BleuScore, bleu_corpus, bleu_sentence
from .report import MetricReport, score_corpus, score_report
from .ribes import RibesScore, ribes_corpus
from .ter import EditCounts, TerScore, ter_corpus

__all__ = [
    "BleuScore",
    "EditCounts",
    "MetricReport",
    "RibesScore",
    "TerScore",
    "bleu_corpus",
    "bleu_sentence",
    "ribes_corpus",
    "score_corpus",
    "score_report",
    "ter_corpus",
]
