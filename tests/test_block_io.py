"""Reading in blocks and writing whole chunks, against the one-line-at-a-time
reader and the one-pair-at-a-time writer in ``oracles.py``.

``decode_lines`` reads ``_READ_BLOCK`` bytes at a time; here every block
size from 1 to 16 cuts CRLFs, multi-byte characters and lines at every
place they can be cut. The lines, and the offset and reason of an
EncodingError, are the oracle's, and so are the lines yielded before the
error. ``parallel_writer`` writes each side of a chunk as one string; the
bytes it writes, and the pair and side that an UnwritableField names, are
the per-pair writer's, and a failed write leaves no file."""

import io
import random

import pytest

import oracles
from bitextkit import corpus_io
from bitextkit.corpus_io import SentencePair, decode_lines, parallel_writer, read_parallel, write_parallel
from bitextkit.exceptions import EncodingError, LineCountMismatch, UnwritableField

BLOCKS = (*range(1, 17), 1 << 12)

STREAMS = {
    "empty file": b"",
    "one LF": b"\n",
    "no final LF": "uno\ndos\ntres".encode(),
    "a final CR and no LF": b"uno\ndos\r",
    "only a CR": b"\r",
    "CRLFs": b"uno\r\ndos\r\n\r\ntres\r\r\n\r\r\ncuatro\r\n",
    "2- to 4-byte characters": "añ€😀 ç\nü€\n😀😀\r\n€\n".encode(),
    "a line longer than a block": ("x" * 10_000 + "\n" + "y€" * 3_000 + "\nz").encode(),
    "a lone CR, U+2028 and NEL inside lines": "a\rb c\x85d\r\n\re\n".encode(),
    "invalid UTF-8 in a later block": b"bien\r\n" * 30 + "d€\n".encode() + b"mal \xff aqu\xc3\xad\n" + b"fin\n",
    "a truncated character in a later line": "línea\n".encode() * 9 + b"corta \xe2\x82\nfin\n",
    "a truncated character at the end": "línea\n".encode() * 9 + b"corta \xf0\x9f\x98",
    "an invalid continuation after a CR": b"uno\r\n\r\xe2(\xa1\n",
    "a surrogate": b"uno\n\xed\xa0\x80\n",
}


def _outcome(lines):
    """The lines read, and the offset and message of the EncodingError
    that ended the read, if one did."""
    read = []
    try:
        for line in lines:
            read.append(line)
    except EncodingError as exc:
        return read, (exc.byte_offset, str(exc))
    return read, None


class _Named(io.BytesIO):
    name = "corpus.txt"


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("case", sorted(STREAMS))
def test_block_reads_match_the_per_line_reader(monkeypatch, case, block):
    monkeypatch.setattr(corpus_io, "_READ_BLOCK", block)
    data = STREAMS[case]
    assert _outcome(decode_lines(_Named(data))) == _outcome(oracles.decode_lines_per_line(_Named(data)))


def test_the_cases_read_as_they_should():
    read = {case: _outcome(oracles.decode_lines_per_line(_Named(data))) for case, data in STREAMS.items()}
    assert read["empty file"] == ([], None)
    assert read["one LF"] == ([""], None)
    assert read["CRLFs"] == (["uno", "dos", "", "tres\r", "\r", "cuatro"], None)
    lines, (offset, message) = read["invalid UTF-8 in a later block"]
    assert (len(lines), offset) == (31, 30 * 6 + 5 + 4)
    assert message == f"corpus.txt: invalid UTF-8 at byte offset {offset} (invalid start byte)"
    assert read["a truncated character at the end"][1][1].endswith("(unexpected end of data)")


@pytest.mark.parametrize("block", (1, 5, 1 << 12))
def test_read_parallel_counts_both_files_when_they_differ(tmp_path, monkeypatch, block):
    # pairing the streams must not drop the line that one file has more
    monkeypatch.setattr(corpus_io, "_READ_BLOCK", block)
    (tmp_path / "a.src").write_bytes("uno\ndós\ntres\n".encode())
    (tmp_path / "a.tgt").write_bytes("un\ndos\n".encode())
    for first, second, counts in (("a.src", "a.tgt", (3, 2)), ("a.tgt", "a.src", (2, 3))):
        with pytest.raises(LineCountMismatch) as err:
            list(read_parallel(tmp_path / first, tmp_path / second, "es", "ca"))
        assert (err.value.first_count, err.value.second_count) == counts


def _pairs(rng, count):
    words = ["uno", "dós", "€", "😀", "a\rb", " ", "\x85", "", " ", "\t"]
    return [
        SentencePair(i, " ".join(rng.choices(words, k=rng.randrange(5))), " ".join(rng.choices(words, k=rng.randrange(5))), "es", "ca")
        for i in range(count)
    ]


def test_whole_chunk_writes_match_the_per_pair_writer(tmp_path):
    rng = random.Random("writer")
    pairs = _pairs(rng, 300)
    paths = tmp_path / "o.es", tmp_path / "o.ca"
    with parallel_writer(*paths) as write:
        cuts = [0, *sorted(rng.sample(range(1, 300), 12)), 300]
        written = sum(write(pairs[start:end]) for start, end in zip(cuts, cuts[1:]))
        assert write([]) == 0
    assert written == 300
    assert tuple(path.read_bytes() for path in paths) == oracles.parallel_bytes_per_pair(pairs)
    assert write_parallel(iter(pairs), *paths) == 300
    assert tuple(path.read_bytes() for path in paths) == oracles.parallel_bytes_per_pair(pairs)


def test_lines_written_in_place_of_the_pairs_texts(tmp_path):
    pairs = _pairs(random.Random("lines"), 20)
    sources, targets = [f"s {p.index}" for p in pairs], [f"t {p.index}" for p in pairs]
    paths = tmp_path / "o.es", tmp_path / "o.ca"
    with parallel_writer(*paths) as write:
        assert write(pairs, (sources, targets)) == 20
    expected = [SentencePair(p.index, s, t, "es", "ca") for p, s, t in zip(pairs, sources, targets)]
    assert tuple(path.read_bytes() for path in paths) == oracles.parallel_bytes_per_pair(expected)


# a middle pair's unwritable side: (source, target), the side named
_UNWRITABLE = [
    (("con\nLF", "bé"), "source"),
    (("bien", "amb\nLF"), "target"),
    (("acaba en CR\r", "bé"), "source"),
    (("bien", "acaba en CR\r"), "target"),
    (("\n", "\r"), "source"),
    (("\r\n", "bé"), "source"),
    (("bien", "\r"), "target"),
]


@pytest.mark.parametrize("texts, side", _UNWRITABLE)
@pytest.mark.parametrize("as_lines", [False, True])
def test_an_unwritable_middle_pair_is_named_and_leaves_no_file(tmp_path, texts, side, as_lines):
    pairs = [SentencePair(i, f"fuente {i}", f"font {i}", "es", "ca") for i in range(9)]
    pairs[4] = SentencePair(4, *texts, "es", "ca")
    pairs[6] = SentencePair(6, "después\r", "després\n", "es", "ca")  # a later bad pair is not the one named
    with pytest.raises(UnwritableField) as expected:
        oracles.parallel_bytes_per_pair(pairs)
    assert (expected.value.index, expected.value.side) == (4, side)
    with pytest.raises(UnwritableField) as got:
        with parallel_writer(tmp_path / "o.es", tmp_path / "o.ca") as write:
            write(pairs[:2])
            if as_lines:
                clean = [SentencePair(p.index, "x", "y", "es", "ca") for p in pairs]
                write(clean[2:], ([p.source for p in pairs[2:]], [p.target for p in pairs[2:]]))
            else:
                write(pairs[2:])
    assert (got.value.index, got.value.side, str(got.value)) == (4, side, str(expected.value))
    assert list(tmp_path.iterdir()) == []
