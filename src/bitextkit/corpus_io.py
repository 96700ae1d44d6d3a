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
from dataclasses import asdict, dataclass
from itertools import islice, zip_longest
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, TextIO

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
        return asdict(self)


# Bytes that decode_lines reads at a time.
_READ_BLOCK = 1 << 12

# The one chunk size: each stream of pairs, lines or segments is cut into
# lists of this many once, where it is read, and every stage takes those
# lists as they come. Enough that the langid n-gram walk runs on long
# arrays, few enough that its temporary arrays stay under a megabyte (at
# most 0.8 MB, as tracemalloc counts them, on the chunks of the prep
# benchmark's 16,000 pairs).
_CHUNK = 128


def decode_lines(stream: BinaryIO) -> Iterator[str]:
    """Yield the lines of a binary UTF-8 stream with the trailing LF (and CR)
    stripped.

    The stream is read ``_READ_BLOCK`` bytes at a time, and what has been
    read is decoded up to its last LF, so that no character or CRLF is
    split. An invalid byte raises EncodingError with its absolute offset
    in the stream, once the lines before its own are yielded.
    """
    name = getattr(stream, "name", "<stream>")
    offset = 0
    held: list[bytes] = []  # read since the last LF
    while block := stream.read(_READ_BLOCK):
        cut = block.rfind(b"\n") + 1
        if not cut:
            held.append(block)
            continue
        held.append(block[:cut])
        data = b"".join(held)
        held = [block[cut:]]
        yield from _lines(data, offset, name)
        offset += len(data)
    yield from _lines(b"".join(held), offset, name)


def _lines(data: bytes, offset: int, name: str) -> Iterator[str]:
    """The lines of ``data``, read from byte ``offset`` on of the stream
    ``name``: each ends in an LF, but for a last one at the end of the
    stream."""
    if not data:
        return
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        yield from _lines(data[: data.rfind(b"\n", 0, exc.start) + 1], offset, name)
        raise EncodingError(name, offset + exc.start, exc.reason) from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if data.endswith(b"\n"):
        lines.pop()
    elif lines[-1].endswith("\r"):
        lines[-1] = lines[-1][:-1]
    yield from lines


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


class Lockstep:
    """A ``main`` file and the ``aligned`` files beside it, read in
    lockstep ``_CHUNK`` lines at a time. Each item is the ``head`` tuple
    followed by a chunk of ``main``'s lines and, for each aligned file, its
    same lines, or None where it has fewer left.

    A read error of ``main`` is raised. An aligned file fails on its own:
    an open or read error ends it and is kept in ``errors``, in the order
    of ``aligned``. Once ``main`` ends, the aligned files are read to their
    end, so that ``counts`` holds their line counts.
    """

    def __init__(self, main, aligned: Sequence, head: tuple):
        self.main = main
        self.aligned = aligned
        self.head = head
        self.counts = [0] * len(aligned)
        self.errors: list[Optional[Exception]] = [None] * len(aligned)

    def __len__(self) -> int:
        # sizes a worker pool
        return -(-count_lines(self.main) // _CHUNK)

    def _lines(self, k: int) -> Iterator[str]:
        try:
            with open(self.aligned[k], "rb") as fh:
                yield from decode_lines(fh)
        except (OSError, EncodingError) as exc:
            self.errors[k] = exc

    def __iter__(self) -> Iterator[tuple]:
        readers = [self._lines(k) for k in range(len(self.aligned))]
        try:
            with open(self.main, "rb") as fh:
                for chunk in batched(decode_lines(fh), _CHUNK):
                    taken = [list(islice(lines, len(chunk))) for lines in readers]
                    self.counts = [count + len(lines) for count, lines in zip(self.counts, taken)]
                    yield (*self.head, chunk, *(lines if len(lines) == len(chunk) else None for lines in taken))
            self.counts = [count + _count_lines(lines) for count, lines in zip(self.counts, readers)]
        finally:
            for lines in readers:
                lines.close()


def read_parallel(source_path, target_path, src_lang: str, tgt_lang: str) -> Iterator[SentencePair]:
    """Stream pairs from two line-aligned files.

    Raises LineCountMismatch (with both totals) when the files disagree in
    length, and EncodingError with a byte offset on invalid UTF-8.
    """
    with open(source_path, "rb") as src_fh, open(target_path, "rb") as tgt_fh:
        src_lines = decode_lines(src_fh)
        tgt_lines = decode_lines(tgt_fh)
        for index, (src, tgt) in enumerate(zip_longest(src_lines, tgt_lines)):
            if src is None or tgt is None:
                n_src = index + (src is not None) + _count_lines(src_lines)
                n_tgt = index + (tgt is not None) + _count_lines(tgt_lines)
                raise LineCountMismatch(n_src, n_tgt, context=f"{source_path} / {target_path}")
            yield SentencePair(index, src, tgt, src_lang, tgt_lang)


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


def _check_writable(index: int, source: str, target: str, forbid_tab: bool = False) -> None:
    """Raise UnwritableField for text that ``decode_lines`` would not read
    back unchanged: an LF anywhere, or a CR at the end (it would be taken for
    a CRLF ending). A CR inside the text round-trips."""
    for side, text in (("source", source), ("target", target)):
        if "\n" in text:
            raise UnwritableField(index, side, "contains a line feed")
        if text.endswith("\r"):
            raise UnwritableField(index, side, "ends in a carriage return")
        if forbid_tab and "\t" in text:
            raise UnwritableField(index, side, "contains a TAB (not representable in TSV)")


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
def parallel_writer(source_path, target_path) -> Iterator[Callable[..., int]]:
    """Yield a function that writes a chunk of pairs to the two-file format
    and returns how many it wrote; call it as often as needed. Both files
    are replaced whole when the block completes, and left as they were when
    it raises.

    ``write(pairs)`` writes the pairs' texts, and ``write(pairs, lines)``
    the ``(sources, targets)`` lines in their place, one per pair. Each
    side of a chunk is joined and written as one string. Text that would
    not read back unchanged is rejected with UnwritableField, naming the
    first such pair: an LF would silently break the alignment, and a
    trailing CR would be stripped as part of a CRLF ending. A CR inside
    the text is kept. An OSError of the writing names both paths; one
    raised by the block itself passes unchanged.
    """
    ours = True  # whether an OSError comes from the writing, not the block

    def write(pairs: Sequence[SentencePair], lines: Optional[tuple[list, list]] = None) -> int:
        nonlocal ours
        if not pairs:
            return 0
        ours = True
        sources, targets = lines or ([pair.source for pair in pairs], [pair.target for pair in pairs])
        source = "\n".join(sources) + "\n"
        target = "\n".join(targets) + "\n"
        # one LF per line, and none after a CR, unless some line is unwritable
        if "\r\n" in source or "\r\n" in target or source.count("\n") + target.count("\n") != 2 * len(pairs):
            for pair, src, tgt in zip(pairs, sources, targets):
                _check_writable(pair.index, src, tgt)
        src_fh.write(source)
        tgt_fh.write(target)
        ours = False
        return len(pairs)

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
    checks them, ``_CHUNK`` at a time. Returns the number of
    pairs written. Both files are replaced whole, and only once every pair
    is written."""
    with parallel_writer(source_path, target_path) as write:
        return sum(write(chunk) for chunk in batched(pairs, _CHUNK))


def write_tsv(pairs: Iterable[SentencePair], path) -> int:
    """Write pairs as TSV (source TAB target). Fields are checked as in
    ``write_parallel``, and a TAB in a field is rejected too. The file is
    replaced whole. An OSError of the writing names the path; one raised
    by ``pairs`` passes unchanged."""
    count = 0
    ours = True  # whether an OSError comes from the writing, not from ``pairs``
    try:
        with atomic_write(path) as (fh,):
            ours = False
            for pair in pairs:
                ours = True
                _check_writable(pair.index, pair.source, pair.target, forbid_tab=True)
                fh.write(pair.source + "\t" + pair.target + "\n")
                count += 1
                ours = False
            ours = True
    except OSError as exc:
        if not ours:
            raise
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

    def add(self, pairs: Sequence[SentencePair]) -> None:
        """Fold a chunk of pairs. Each side of the chunk is joined with
        spaces and split once: a space joins no two words, so that gives
        the pairs' words in order."""
        words_src = " ".join([pair.source for pair in pairs]).split()
        words_tgt = " ".join([pair.target for pair in pairs]).split()
        self.sentences += len(pairs)
        self.words_source += len(words_src)
        self.words_target += len(words_tgt)
        self.types_source.update(words_src)
        self.types_target.update(words_tgt)

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
    for chunk in batched(pairs, _CHUNK):
        fold.add(chunk)
    return fold.stats()
