"""Line-aligned parallel corpus I/O (two-file and TSV formats) and corpus statistics.

The two-file format pairs line i of the source file with line i of the
target file. Files are UTF-8; lines are written LF-terminated.

Every line of user data that the toolkit reads, through the library, a CLI
command or the pipeline, goes through ``decode_lines``. Only LF ends a
line, and a trailing CR is stripped, so CRLF corpora round-trip to the LF
convention. A lone CR, U+2028 and U+0085 stay inside the line. Invalid
UTF-8 raises EncodingError with the byte offset of the bad data.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, TextIO

from .exceptions import EncodingError, LineCountMismatch, MalformedRow, UnwritableField


@dataclass(frozen=True)
class SentencePair:
    """One aligned bitext unit with its claimed language codes."""

    index: int
    source: str
    target: str
    src_lang: str
    tgt_lang: str


@dataclass(frozen=True)
class CorpusStats:
    """Sentence/word counts and corpus-global type-token ratios.

    TTR is distinct tokens over total tokens for the whole corpus side;
    it is None when the side has no tokens at all.
    """

    sentence_count: int
    word_count_source: int
    word_count_target: int
    ttr_source: Optional[float]
    ttr_target: Optional[float]

    def to_dict(self) -> dict:
        return {
            "sentence_count": self.sentence_count,
            "word_count_source": self.word_count_source,
            "word_count_target": self.word_count_target,
            "ttr_source": self.ttr_source,
            "ttr_target": self.ttr_target,
        }


def decode_lines(stream: BinaryIO) -> Iterator[str]:
    """Yield the lines of a binary UTF-8 stream with the trailing LF (and CR)
    stripped.

    Decoding is done per line so that an invalid byte can be reported with
    its absolute offset in the stream.
    """
    offset = 0
    for raw in stream:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(getattr(stream, "name", "<stream>"), offset + exc.start, exc.reason) from exc
        offset += len(raw)
        if line.endswith("\n"):
            line = line[:-1]
        if line.endswith("\r"):
            line = line[:-1]
        yield line


def batched(items: Iterable, size: int) -> Iterator[list]:
    """Consecutive lists of ``size`` items; the last may be shorter."""
    items = iter(items)
    while chunk := list(islice(items, size)):
        yield chunk


def read_lines(path) -> list[str]:
    """All lines of a UTF-8 file, split as ``decode_lines`` splits them."""
    with open(path, "rb") as fh:
        return list(decode_lines(fh))


def count_lines(path) -> int:
    """How many lines ``read_lines`` gives for ``path``, counted without
    decoding."""
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            count += block.count(b"\n")
            last = block[-1:]
    return count + (last != b"\n")


def _count_lines(stream: Iterator[str]) -> int:
    return sum(1 for _ in stream)


def read_parallel(source_path, target_path, src_lang: str, tgt_lang: str) -> Iterator[SentencePair]:
    """Stream pairs from two line-aligned files.

    Raises LineCountMismatch (with both totals) when the files disagree in
    length, and EncodingError with a byte offset on invalid UTF-8.
    """
    with open(source_path, "rb") as src_fh, open(target_path, "rb") as tgt_fh:
        src_lines = decode_lines(src_fh)
        tgt_lines = decode_lines(tgt_fh)
        index = 0
        while True:
            src = next(src_lines, None)
            tgt = next(tgt_lines, None)
            if src is None and tgt is None:
                return
            if src is None or tgt is None:
                n_src = index + (0 if src is None else 1 + _count_lines(src_lines))
                n_tgt = index + (0 if tgt is None else 1 + _count_lines(tgt_lines))
                raise LineCountMismatch(n_src, n_tgt, context=f"{source_path} / {target_path}")
            yield SentencePair(index, src, tgt, src_lang, tgt_lang)
            index += 1


def read_tsv(path, src_lang: str, tgt_lang: str) -> Iterator[SentencePair]:
    """Stream pairs from a single TSV file (source TAB target per line).

    Raises MalformedRow for a line with zero or more than one TAB.
    """
    with open(path, "rb") as fh:
        for index, line in enumerate(decode_lines(fh)):
            tabs = line.count("\t")
            if tabs != 1:
                raise MalformedRow(index, tabs)
            source, target = line.split("\t")
            yield SentencePair(index, source, target, src_lang, tgt_lang)


def _check_writable(pair: SentencePair, forbid_tab: bool = False) -> None:
    """Raise UnwritableField for text that ``decode_lines`` would not read
    back unchanged: an LF anywhere, or a CR at the end (it would be taken for
    a CRLF ending). A CR inside the text round-trips."""
    for side, text in (("source", pair.source), ("target", pair.target)):
        if "\n" in text:
            raise UnwritableField(pair.index, side, "contains a line feed")
        if text.endswith("\r"):
            raise UnwritableField(pair.index, side, "ends in a carriage return")
        if forbid_tab and "\t" in text:
            raise UnwritableField(pair.index, side, "contains a TAB (not representable in TSV)")


def _open_in_place(path) -> TextIO:
    """Open a device, a pipe or a path under ``/dev/`` for writing.
    ``/dev/stdout`` and ``/dev/stderr`` write through a copy of their
    descriptor, so the text lands where that stream has got to, as it would
    through a pipe, even when a shell redirected the stream to a regular
    file."""
    fd = {"/dev/stdout": 1, "/dev/stderr": 2}.get(os.path.abspath(path))
    if fd is None:
        return open(path, "w", encoding="utf-8", newline="")
    sys.stdout.flush()
    sys.stderr.flush()
    return open(os.dup(fd), "w", encoding="utf-8", newline="")


@contextmanager
def atomic_write(*paths) -> Iterator[tuple[TextIO, ...]]:
    """Yield one UTF-8 text handle per path (newlines written as given),
    each writing to a temporary file beside the file the path names.

    When the block completes, every temporary file is closed and only then
    moved onto its file. When it raises, the temporary files are removed
    and the files keep what they held. Files get the mode ``open`` would
    give a new file under the umask. A path naming a device or a pipe, and
    any path under ``/dev/``, is written in place instead.
    """
    files = []  # (file, temporary file or None, handle)
    try:
        for path in paths:
            if os.path.abspath(path).startswith("/dev/") or (os.path.exists(path) and not os.path.isfile(path)):
                files.append((None, None, _open_in_place(path)))
                continue
            final = os.path.realpath(path)
            directory, name = os.path.split(final)
            temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
            files.append((final, temp, open(temp, "x", encoding="utf-8", newline="")))
        yield tuple(fh for _, _, fh in files)
        for _, _, fh in files:
            fh.close()
        for final, temp, _ in files:
            if temp:
                os.replace(temp, final)
    except BaseException:
        for _, temp, fh in files:
            fh.close()
            if temp and os.path.exists(temp):
                os.unlink(temp)
        raise


@contextmanager
def parallel_writer(source_path, target_path) -> Iterator[Callable[[Iterable[SentencePair]], int]]:
    """Yield a function that writes pairs to the two-file format and
    returns how many it wrote; call it as often as needed. Both files are
    replaced whole when the block completes, and left as they were when it
    raises.

    Text that would not read back unchanged is rejected with UnwritableField:
    an LF would silently break the alignment, and a trailing CR would be
    stripped as part of a CRLF ending. A CR inside the text is kept. An
    OSError of the writing names both paths; one raised by the block
    itself passes unchanged.
    """
    ours = True  # whether an OSError comes from the writing, not the block

    def write(pairs: Iterable[SentencePair]) -> int:
        nonlocal ours
        ours = True
        count = 0
        for pair in pairs:
            _check_writable(pair)
            src_fh.write(pair.source + "\n")
            tgt_fh.write(pair.target + "\n")
            count += 1
        ours = False
        return count

    try:
        with atomic_write(source_path, target_path) as (src_fh, tgt_fh):
            ours = False
            yield write
            ours = True
    except OSError as exc:
        if not ours:
            raise
        raise OSError(f"writing parallel corpus to {source_path} / {target_path}: {exc}") from exc


def write_parallel(pairs: Iterable[SentencePair], source_path, target_path) -> int:
    """Write pairs to the two-file format, checked as ``parallel_writer``
    checks them. Returns the number of pairs written. Both files are
    replaced whole, and only once every pair is written."""
    with parallel_writer(source_path, target_path) as write:
        return write(pairs)


def write_tsv(pairs: Iterable[SentencePair], path) -> int:
    """Write pairs as TSV (source TAB target). Fields are checked as in
    ``write_parallel``, and a TAB in a field is rejected too. The file is
    replaced whole."""
    count = 0
    try:
        with atomic_write(path) as (fh,):
            for pair in pairs:
                _check_writable(pair, forbid_tab=True)
                fh.write(pair.source + "\t" + pair.target + "\n")
                count += 1
    except OSError as exc:
        raise OSError(f"writing TSV corpus to {path}: {exc}") from exc
    return count


class StatsFold:
    """``corpus_stats`` as a fold: ``add`` pairs as they come, then read
    ``stats()``. It holds the word types of each side, not the pairs."""

    def __init__(self):
        self.sentences = 0
        self.words_source = self.words_target = 0
        self.types_source: set[str] = set()
        self.types_target: set[str] = set()

    def add(self, pairs: Iterable[SentencePair]) -> None:
        sentences = total_src = total_tgt = 0
        types_src, types_tgt = self.types_source, self.types_target
        for pair in pairs:
            sentences += 1
            src_tokens = pair.source.split()
            tgt_tokens = pair.target.split()
            total_src += len(src_tokens)
            total_tgt += len(tgt_tokens)
            types_src.update(src_tokens)
            types_tgt.update(tgt_tokens)
        self.sentences += sentences
        self.words_source += total_src
        self.words_target += total_tgt

    def stats(self) -> CorpusStats:
        total_src, total_tgt = self.words_source, self.words_target
        return CorpusStats(
            sentence_count=self.sentences,
            word_count_source=total_src,
            word_count_target=total_tgt,
            ttr_source=(len(self.types_source) / total_src) if total_src else None,
            ttr_target=(len(self.types_target) / total_tgt) if total_tgt else None,
        )


def corpus_stats(pairs: Iterable[SentencePair]) -> CorpusStats:
    """Count sentences, whitespace-delimited words, and corpus-global TTR.

    Words are maximal runs of non-whitespace, so already-tokenized text is
    counted token by token.
    """
    fold = StatsFold()
    fold.add(pairs)
    return fold.stats()
