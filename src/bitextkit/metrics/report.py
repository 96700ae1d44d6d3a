"""Combined BLEU + RIBES + TER scoring of hypothesis files."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..corpus_io import Lockstep
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
    scoring (scores are case-sensitive by default). The files are read in
    lockstep a chunk at a time, and a reference that fails to read or has
    another line count is reported once the hypothesis is read.
    """
    if isinstance(ref_paths, (str, bytes)) or hasattr(ref_paths, "__fspath__"):
        ref_paths = [ref_paths]
    rules = None if tokenized_input else resolve_rules(lang)
    chunks = Lockstep(hyp_path, ref_paths, ())
    fold, lines = ScoreFold(), 0
    for hyps, *refs in chunks:
        lines += len(hyps)
        if None in refs:
            continue  # a reference ended early or failed to read
        tokens = []
        for chunk in (hyps, *refs):
            # case is folded before splitting, never after: the tokenizer reads
            # case, so it splits "casa. Luego" but not "casa. luego"
            chunk = [line.lower() for line in chunk] if lowercase else chunk
            tokens.append([line.split() for line in chunk] if rules is None else tokenize_lines(chunk, rules))
        # without reference files each segment gets no reference, and
        # scoring it raises ValueError
        for hyp, *seg_refs in zip(*tokens):
            fold.add(score_segment(hyp, seg_refs))
    for ref_path, count, error in zip(ref_paths, chunks.counts, chunks.errors):
        if error is not None:
            raise error
        if count != lines:
            raise LineCountMismatch(lines, count, context=f"{hyp_path} / {ref_path}")
    if not lines:
        raise EmptyCorpus(f"{hyp_path} is empty")
    return fold.report()
