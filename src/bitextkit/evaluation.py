"""The eval pipeline's pass over segments, and the cognate step it shares
with the ``cognates`` command.

The pipeline reads the system output, references and sources with one
``corpus_io.Lockstep`` reader, a chunk of segments at a time.
``eval_chunk`` detokenizes one chunk's system lines, scores its segments
and finds their cognates; the pipeline maps it over the chunks with
``parallel_map`` and folds what it returns in segment order. The
``cognates`` command maps ``cognates_chunk``, the same cognate step, over
the chunks of its own reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cognates import count_examined, extract_cognates, preservation
from .corpus_io import SentencePair
from .metrics.report import score_segment
from .tokenizer import TokenizerRules, detokenize, tokenize_lines


def _cognate_chunk(pairs: list, system_tokens: Optional[list], threshold: float, min_len: int) -> tuple:
    """The cognates of a chunk of tokenized pairs indexed from 0, the number
    of source words examined, and how many of the cognates the system
    output (one token list per pair, or None) preserves."""
    found = extract_cognates(pairs, threshold=threshold, min_len=min_len)
    examined = count_examined(pairs, min_len)
    if system_tokens is None:
        return found, examined, None
    return found, examined, preservation(found, system_tokens, threshold, examined=examined).preserved


def cognates_chunk(job: tuple) -> tuple:
    """The ``cognates`` command's step on one chunk of tokenized lines.
    ``job`` is the threshold, the minimum word length, the source lines,
    the reference lines and, where the command has them, the system lines;
    the chunk of a file that ended early is None.

    Returns the number of lines, the cognates of their pairs indexed from
    0, the number of source words examined, and how many of the cognates
    the system lines preserve (None without them).
    """
    threshold, min_len, sources, refs, *system = job
    (system_lines,) = system or [None]
    if refs is None:
        return len(sources), [], 0, None
    pairs = [SentencePair(i, source, ref, "src", "ref") for i, (source, ref) in enumerate(zip(sources, refs))]
    system_tokens = None if system_lines is None else [line.split() for line in system_lines]
    return len(sources), *_cognate_chunk(pairs, system_tokens, threshold, min_len)


@dataclass(frozen=True)
class EvalSettings:
    """What every chunk of the eval pass needs besides its lines: ``rules``
    detokenize and tokenize the system output and tokenize the references,
    ``src_rules`` tokenize the sources."""

    rules: TokenizerRules
    src_rules: TokenizerRules
    lowercase: bool
    threshold: float
    min_len: int


def eval_chunk(job: tuple) -> tuple:
    """Detokenize a chunk of system lines and, where its references and
    sources were read, score its segments and find their cognates. Each
    line is tokenized once, and once more case-folded with ``lowercase``.

    Returns the detokenized lines, each segment's ``SegmentRecord`` (None
    without references), and the numbers of source words examined,
    cognates and preserved cognates (None without sources).
    """
    settings, hyps, refs, sources = job
    rules = settings.rules
    system = [detokenize(line.split(), rules) for line in hyps]
    if refs is None:
        return system, None, None
    system_tokens = tokenize_lines(system, rules)
    ref_tokens = tokenize_lines(refs, rules)
    scored = system_tokens, ref_tokens
    if settings.lowercase:
        # the tokenizer reads case, so the folded lines are tokenized anew
        scored = [tokenize_lines([line.lower() for line in lines], rules) for lines in (system, refs)]
    records = [score_segment(hyp, [ref]) for hyp, ref in zip(*scored)]
    if sources is None:
        return system, records, None
    pairs = [
        SentencePair(i, " ".join(source), " ".join(ref), "src", "ref")
        for i, (source, ref) in enumerate(zip(tokenize_lines(sources, settings.src_rules), ref_tokens))
    ]
    del ref_tokens, scored  # the pairs hold the reference text now; dropping the lists lowers the peak
    found, examined, preserved = _cognate_chunk(pairs, system_tokens, settings.threshold, settings.min_len)
    return system, records, (examined, len(found), preserved)
