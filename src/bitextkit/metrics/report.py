"""Combined BLEU + RIBES + TER scoring of hypothesis files."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..corpus_io import read_lines
from ..exceptions import EmptyCorpus, LineCountMismatch
from ..tokenizer import resolve_rules, tokenize_lines
from .bleu import BleuFold, BleuScore, BleuStats, segment_stats
from .ribes import DEFAULT_ALPHA, DEFAULT_BETA, RibesFold, RibesScore, ribes
from .segments import fold_segments
from .ter import DEFAULT_MAX_SHIFT_SIZE, TerFold, TerScore, ter


@dataclass(frozen=True)
class MetricReport:
    """All three corpus scores plus their component statistics."""

    bleu: BleuScore
    ribes: RibesScore
    ter: TerScore

    def to_dict(self) -> dict:
        """Flat JSON-friendly rendering, full precision.

        BLEU's effective reference length is reported as ``ref_len``; TER's
        average reference length keeps its own ``ter_ref_len`` key to avoid
        the collision. The scorer conventions (unsmoothed BLEU, the RIBES
        weights, the TER shift-span cap) are recorded for auditability.
        """
        edits = self.ter.edits
        return {
            "bleu": self.bleu.bleu,
            "precisions": list(self.bleu.precisions),
            "brevity_penalty": self.bleu.brevity_penalty,
            "hyp_len": self.bleu.hyp_len,
            "ref_len": self.bleu.ref_len,
            "bleu_smoothing": "none",
            "ribes": self.ribes.ribes,
            "nkt": self.ribes.nkt,
            "unigram_precision": self.ribes.unigram_precision,
            "ribes_bp": self.ribes.bp,
            "alpha": DEFAULT_ALPHA,
            "beta": DEFAULT_BETA,
            "ter": self.ter.ter,
            "edits": edits.to_dict(),
            "ter_ref_len": self.ter.ref_len,
            "ter_max_shift_size": DEFAULT_MAX_SHIFT_SIZE,
        }

    def summary(self) -> str:
        """Two-decimal human-readable line."""
        return f"BLEU {self.bleu.bleu:.2f}  RIBES {self.ribes.ribes:.2f}  TER {self.ter.ter:.2f}"


@dataclass(frozen=True)
class SegmentRecord:
    """One segment's statistics for all three corpus scores: BLEU's counts
    and lengths, its best RIBES score, and its best TER edits with the
    average reference length."""

    bleu: BleuStats
    ribes: RibesScore
    ter: TerScore


def score_segment(hyp: Sequence[str], refs: Sequence[Sequence[str]]) -> SegmentRecord:
    """The record of one tokenized segment against its references."""
    return SegmentRecord(segment_stats(hyp, refs), ribes(hyp, refs), ter(hyp, refs))


class ScoreFold:
    """All three corpus scores as one fold: ``add`` each segment's record
    in segment order, then read ``report()``."""

    def __init__(self):
        self.bleu, self.ribes, self.ter = BleuFold(), RibesFold(), TerFold()

    def add(self, record: SegmentRecord) -> None:
        self.bleu.add(record.bleu)
        self.ribes.add(record.ribes)
        self.ter.add(record.ter)

    def report(self) -> MetricReport:
        return MetricReport(bleu=self.bleu.score(), ribes=self.ribes.score(), ter=self.ter.score())


def score_corpus(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[Sequence[str]]],
) -> MetricReport:
    """Score pre-tokenized segments (``references[i]`` is a list of refs)."""
    return fold_segments(ScoreFold(), score_segment, hypotheses, references).report()


def read_references(hyp_lines: Sequence[str], hyp_path, ref_paths) -> list:
    """Each reference file's lines, checked to align with ``hyp_lines`` (read from ``hyp_path``)."""
    ref_corpora = []
    for ref_path in ref_paths:
        ref_lines = read_lines(ref_path)
        if len(ref_lines) != len(hyp_lines):
            raise LineCountMismatch(len(hyp_lines), len(ref_lines), context=f"{hyp_path} / {ref_path}")
        ref_corpora.append(ref_lines)
    if not hyp_lines:
        raise EmptyCorpus(f"{hyp_path} is empty")
    return ref_corpora


def score_report(
    hyp_path,
    ref_paths,
    lang: str,
    tokenized_input: bool = False,
    lowercase: bool = False,
) -> MetricReport:
    """Score a hypothesis file against one or more line-aligned reference files.

    With ``tokenized_input=False`` (the default), every line is run through
    the rule-based tokenizer for ``lang`` before scoring; otherwise lines
    are split on whitespace as-is. ``lowercase=True`` folds case before
    scoring (scores are case-sensitive by default).
    """
    if isinstance(ref_paths, (str, bytes)) or hasattr(ref_paths, "__fspath__"):
        ref_paths = [ref_paths]
    hyp_lines = read_lines(hyp_path)
    ref_corpora = read_references(hyp_lines, hyp_path, ref_paths)
    rules = None if tokenized_input else resolve_rules(lang)
    tokens = []
    for lines in (hyp_lines, *ref_corpora):
        # case is folded before splitting, never after: the tokenizer reads
        # case, so it splits "casa. Luego" but not "casa. luego"
        if lowercase:
            lines = [line.lower() for line in lines]
        tokens.append([line.split() for line in lines] if rules is None else tokenize_lines(lines, rules))
    hyps, *refs = tokens
    # not zip(*refs): without reference files each segment gets no
    # reference, and scoring it raises ValueError
    return score_corpus(hyps, [[ref[i] for ref in refs] for i in range(len(hyps))])
