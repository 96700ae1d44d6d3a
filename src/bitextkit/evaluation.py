"""The eval pipeline's pass over segments, and the cognate step it shares
with the CLI.

``EvalChunks`` reads the system output, references and sources in
lockstep, ``EVAL_CHUNK`` segments at a time. ``eval_chunk`` detokenizes
one chunk's system lines, scores its segments and finds their cognates;
the pipeline maps it over the chunks with ``parallel_map`` and folds what
it returns in segment order. ``cognate_report``, behind the ``cognates``
command, maps the same cognate step over chunks of pairs.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import Iterator, Optional

from .cognates import CognateReport, count_examined, extract_cognates, preservation
from .corpus_io import SentencePair, batched, count_lines, decode_lines
from .exceptions import EncodingError
from .metrics.report import score_segment
from .parallel import parallel_map
from .tokenizer import TokenizerRules, detokenize, tokenize_lines

# Segments in one chunk of the eval pass, and pairs in one chunk of
# ``cognate_report``: one parallel_map item each.
EVAL_CHUNK = 128


def _cognate_chunk(job: tuple) -> tuple:
    """The cognates of a chunk of tokenized pairs indexed from 0, the number
    of source words examined, and how many of the cognates the system
    output (one token list per pair, or None) preserves."""
    pairs, system_tokens, threshold, min_len = job
    found = extract_cognates(pairs, threshold=threshold, min_len=min_len)
    examined = count_examined(pairs, min_len)
    if system_tokens is None:
        return found, examined, None
    return found, examined, preservation(found, system_tokens, threshold, examined=examined).preserved


def cognate_report(
    pairs: list, system_tokens: Optional[list], threshold: float, min_len: int, workers: int
) -> tuple[list, dict]:
    """Cognates between the two sides of tokenized ``pairs``, and the report
    body. ``workers`` map over chunks of ``EVAL_CHUNK`` pairs.

    With ``system_tokens`` (one token list per pair) the body measures how
    many cognates the system output preserves; without, its ``preserved``
    and ``preservation_rate`` are None.
    """
    starts = range(0, len(pairs), EVAL_CHUNK)
    jobs = [
        (
            [SentencePair(i, p.source, p.target, p.src_lang, p.tgt_lang) for i, p in enumerate(pairs[start : start + EVAL_CHUNK])],
            None if system_tokens is None else system_tokens[start : start + EVAL_CHUNK],
            threshold,
            min_len,
        )
        for start in starts
    ]
    found, examined, preserved = [], 0, 0
    for start, (chunk_found, chunk_examined, chunk_preserved) in zip(starts, parallel_map(_cognate_chunk, jobs, workers=workers)):
        found += [replace(c, source_sentence_index=pairs[start + c.source_sentence_index].index) for c in chunk_found]
        examined += chunk_examined
        preserved += chunk_preserved or 0
    report = CognateReport.of(examined, len(found), threshold, None if system_tokens is None else preserved)
    return found, report.to_dict()


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
    found, examined, preserved = _cognate_chunk((pairs, system_tokens, settings.threshold, settings.min_len))
    return system, records, (examined, len(found), preserved)


def _take(lines: Iterator[str], n: int) -> Optional[list]:
    """The next ``n`` lines, or None when fewer come back."""
    chunk = list(islice(lines, n))
    return chunk if len(chunk) == n else None


class _Aligned:
    """An input read beside the system output: ``lines`` yields its lines
    and counts them in ``count``. An open or read error ends it and is kept
    in ``error``, not raised."""

    def __init__(self, path):
        self.path = path
        self.count = 0
        self.error: Optional[Exception] = None
        self.lines = self._read()

    def _read(self) -> Iterator[str]:
        try:
            with open(self.path, "rb") as fh:
                for line in decode_lines(fh):
                    self.count += 1
                    yield line
        except (OSError, EncodingError) as exc:
            self.error = exc


class EvalChunks:
    """The jobs of ``eval_chunk``: the ``hyp``, ``ref`` and ``source`` files
    read in lockstep, ``EVAL_CHUNK`` lines at a time. A read error of
    ``hyp`` is raised. The references and sources fail on their own and
    keep their error, if any, in ``refs.error`` and ``sources.error``; once
    ``hyp`` ends they are read to their end, so that ``refs.count`` and
    ``sources.count`` are their line counts."""

    def __init__(self, hyp, ref, source, settings: EvalSettings):
        self.hyp = hyp
        self.settings = settings
        self.refs = _Aligned(ref)
        self.sources = _Aligned(source)

    def __len__(self) -> int:
        # sizes the worker pool
        return -(-count_lines(self.hyp) // EVAL_CHUNK)

    def __iter__(self) -> Iterator[tuple]:
        refs, sources = self.refs.lines, self.sources.lines
        with open(self.hyp, "rb") as fh, closing(refs), closing(sources):
            for chunk in batched(decode_lines(fh), EVAL_CHUNK):
                yield self.settings, chunk, _take(refs, len(chunk)), _take(sources, len(chunk))
            for _ in chain(refs, sources):
                pass
