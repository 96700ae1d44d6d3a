import os
import random
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import stats_fold_per_pair

from bitextkit.corpus_io import (
    SentencePair,
    StatsFold,
    corpus_stats,
    read_lines,
    read_parallel,
    read_tsv,
    write_parallel,
    write_tsv,
)
from bitextkit.exceptions import EncodingError, LineCountMismatch, MalformedRow, UnwritableField


def _pairs(*rows, langs=("es", "ca")):
    return [SentencePair(i, s, t, *langs) for i, (s, t) in enumerate(rows)]


class TestReadParallel:
    def test_three_lines(self, tmp_path):
        (tmp_path / "a.src").write_text("uno\ndos\ntres\n", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("un\ndeux\ntrois\n", encoding="utf-8")
        pairs = list(read_parallel(tmp_path / "a.src", tmp_path / "a.tgt", "es", "fr"))
        assert [p.index for p in pairs] == [0, 1, 2]
        assert pairs[1].source == "dos" and pairs[1].target == "deux"
        assert pairs[0].src_lang == "es" and pairs[0].tgt_lang == "fr"

    def test_line_count_mismatch_reports_both_counts(self, tmp_path):
        (tmp_path / "a.src").write_text("1\n2\n3\n4\n5\n", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("1\n2\n3\n4\n", encoding="utf-8")
        with pytest.raises(LineCountMismatch) as err:
            list(read_parallel(tmp_path / "a.src", tmp_path / "a.tgt", "es", "ca"))
        assert (err.value.first_count, err.value.second_count) == (5, 4)

    def test_empty_pair_of_files(self, tmp_path):
        (tmp_path / "a.src").write_text("", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("", encoding="utf-8")
        assert list(read_parallel(tmp_path / "a.src", tmp_path / "a.tgt", "es", "ca")) == []

    def test_invalid_utf8_reports_byte_offset(self, tmp_path):
        (tmp_path / "a.src").write_bytes(b"bien\n\xff\xfe mal\n")
        (tmp_path / "a.tgt").write_text("x\ny\n", encoding="utf-8")
        with pytest.raises(EncodingError) as err:
            list(read_parallel(tmp_path / "a.src", tmp_path / "a.tgt", "es", "ca"))
        assert err.value.byte_offset == 5

    @pytest.mark.parametrize("inner", ["\r", "\u2028", "\x85"])
    def test_only_lf_ends_a_line(self, tmp_path, inner):
        (tmp_path / "a.src").write_text(f"uno{inner}dos\ntres\r\n", encoding="utf-8", newline="")
        (tmp_path / "a.tgt").write_text("un\ntrois\n", encoding="utf-8")
        pairs = list(read_parallel(tmp_path / "a.src", tmp_path / "a.tgt", "es", "fr"))
        assert [p.source for p in pairs] == [f"uno{inner}dos", "tres"]
        assert read_lines(tmp_path / "a.src") == [p.source for p in pairs]

    def test_missing_trailing_newline(self, tmp_path):
        (tmp_path / "a.src").write_text("uno\ndos", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("un\ndeux\n", encoding="utf-8")
        pairs = list(read_parallel(tmp_path / "a.src", tmp_path / "a.tgt", "es", "fr"))
        assert [p.source for p in pairs] == ["uno", "dos"]


class TestReadTsv:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("hola\thello\n", encoding="utf-8")
        (pair,) = read_tsv(path, "es", "en")
        assert (pair.source, pair.target) == ("hola", "hello")

    def test_two_tabs_is_malformed(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            list(read_tsv(path, "es", "en"))
        assert err.value.index == 0
        assert str(err.value) == "malformed row at line index 0 (2 tabs)"

    def test_no_tab_is_malformed(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("ok\tfine\nbroken row\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            list(read_tsv(path, "es", "en"))
        assert err.value.index == 1
        assert str(err.value) == "malformed row at line index 1 (0 tabs)"

    def test_crlf_strips_trailing_cr(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes("hola\thello\r\nadios\tbye\r\n".encode("utf-8"))
        pairs = list(read_tsv(path, "es", "en"))
        assert [p.target for p in pairs] == ["hello", "bye"]


class TestWriteParallel:
    def test_round_trip_byte_exact(self, tmp_path):
        pairs = _pairs(("uno dos", "un deux"), ("", ""), ("con\ttab", "avec\ttab"))
        write_parallel(pairs, tmp_path / "o.src", tmp_path / "o.tgt")
        again = list(read_parallel(tmp_path / "o.src", tmp_path / "o.tgt", "es", "ca"))
        assert again == pairs

    def test_empty_stream_writes_empty_files(self, tmp_path):
        write_parallel([], tmp_path / "o.src", tmp_path / "o.tgt")
        assert (tmp_path / "o.src").read_bytes() == b""
        assert (tmp_path / "o.tgt").read_bytes() == b""

    def test_line_break_rejected(self, tmp_path):
        pairs = _pairs(("bad\nline", "x"))
        with pytest.raises(ValueError):
            write_parallel(pairs, tmp_path / "o.src", tmp_path / "o.tgt")

    def test_lone_cr_inside_a_line_round_trips(self, tmp_path):
        pairs = _pairs(("el gato\rnegro duerme", "el gat\rnegre dorm"), ("la casa", "la\r casa"))
        write_parallel(pairs, tmp_path / "o.src", tmp_path / "o.tgt")
        assert list(read_parallel(tmp_path / "o.src", tmp_path / "o.tgt", "es", "ca")) == pairs

    @pytest.mark.parametrize("text", ["bad\nline", "ends in cr\r", "\r"])
    def test_unreadable_text_rejected_as_bitext_error(self, tmp_path, text):
        with pytest.raises(UnwritableField, match="pair 1: target"):
            write_parallel(_pairs(("ok", "ok"), ("ok", text)), tmp_path / "o.src", tmp_path / "o.tgt")
        with pytest.raises(UnwritableField, match="pair 0: source"):
            write_tsv(_pairs((text, "ok")), tmp_path / "o.tsv")

    def test_lf_line_endings_on_write(self, tmp_path):
        write_parallel(_pairs(("a", "b")), tmp_path / "o.src", tmp_path / "o.tgt")
        assert (tmp_path / "o.src").read_bytes() == b"a\n"

    def test_tsv_round_trip_and_tab_rejection(self, tmp_path):
        pairs = _pairs(("hola que tal", "hello there"))
        write_tsv(pairs, tmp_path / "o.tsv")
        assert list(read_tsv(tmp_path / "o.tsv", "es", "ca")) == pairs
        with pytest.raises(ValueError):
            write_tsv(_pairs(("con\ttab", "x")), tmp_path / "o.tsv")
        with pytest.raises(UnwritableField, match="TAB"):
            write_tsv(_pairs(("x", "con\ttab")), tmp_path / "o.tsv")


class TestWholeOrNothing:
    def test_pairs_raising_midway_leave_no_file(self, tmp_path):
        def pairs():
            yield from _pairs(("uno", "un"))
            raise RuntimeError("source went away")

        with pytest.raises(RuntimeError):
            write_parallel(pairs(), tmp_path / "o.src", tmp_path / "o.tgt")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_files(self, tmp_path):
        write_parallel(_pairs(("viejo", "vell")), tmp_path / "o.src", tmp_path / "o.tgt")
        write_tsv(_pairs(("viejo", "vell")), tmp_path / "o.tsv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(UnwritableField):
            write_parallel(_pairs(("nuevo", "nou"), ("malo\r", "dolent")), tmp_path / "o.src", tmp_path / "o.tgt")
        with pytest.raises(UnwritableField):
            write_tsv(_pairs(("nuevo", "nou"), ("malo", "dol\tent")), tmp_path / "o.tsv")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_new_files_get_the_mode_open_gives(self, tmp_path):
        (tmp_path / "plain").open("w").close()
        write_parallel(_pairs(("a", "b")), tmp_path / "o.src", tmp_path / "o.tgt")
        write_tsv(_pairs(("a", "b")), tmp_path / "o.tsv")
        mode = (tmp_path / "plain").stat().st_mode
        assert [(tmp_path / name).stat().st_mode for name in ("o.src", "o.tgt", "o.tsv")] == [mode] * 3

    def test_symlink_and_pipe_are_written_through(self, tmp_path):
        target = tmp_path / "target.tsv"
        target.write_bytes(b"old\n")
        (tmp_path / "link.tsv").symlink_to(target)
        write_tsv(_pairs(("a", "b")), tmp_path / "link.tsv")
        assert (tmp_path / "link.tsv").is_symlink()
        assert target.read_bytes() == b"a\tb\n"
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_tsv(_pairs(("a", "b")), fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"a\tb\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.text(alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)), max_size=30),
            st.text(alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)), max_size=30),
        ),
        max_size=20,
    )
)
def test_round_trip_property(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("rt")
    pairs = _pairs(*rows) if rows else []
    write_parallel(pairs, tmp / "p.src", tmp / "p.tgt")
    assert list(read_parallel(tmp / "p.src", tmp / "p.tgt", "es", "ca")) == pairs


def test_round_trip_100_random_printable_pairs(tmp_path):
    import random

    rng = random.Random(64)
    alphabet = "abcdefงhij KLM ñé¿?.,;:!()'\"$%&@<>-_=+ 0123456789"
    rows = [
        (
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))),
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))),
        )
        for _ in range(100)
    ]
    pairs = _pairs(*rows)
    write_parallel(pairs, tmp_path / "r.src", tmp_path / "r.tgt")
    assert list(read_parallel(tmp_path / "r.src", tmp_path / "r.tgt", "es", "ca")) == pairs


class TestCorpusStats:
    def test_simple_side(self):
        stats = corpus_stats(_pairs(("a b a", "x")))
        assert stats.word_count_source == 3
        assert stats.ttr_source == pytest.approx(2 / 3)

    def test_two_pairs_all_distinct(self):
        stats = corpus_stats(_pairs(("x", "p q"), ("y", "r s")))
        assert stats.sentence_count == 2
        assert stats.word_count_source == 2
        assert stats.ttr_source == 1.0

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats.sentence_count == 0
        assert stats.ttr_source is None and stats.ttr_target is None
        assert stats.word_count_source == 0

    def test_brute_force_recount(self):
        # independent recount with plain dict bookkeeping
        rows = [(f"w{i % 7} w{i % 3} fin", f"t{i % 5} t{i % 2}") for i in range(1000)]
        pairs = _pairs(*rows)
        stats = corpus_stats(pairs)
        src_tokens = []
        tgt_tokens = []
        for s, t in rows:
            src_tokens.extend(s.split())
            tgt_tokens.extend(t.split())
        assert stats.word_count_source == len(src_tokens)
        assert stats.word_count_target == len(tgt_tokens)
        assert stats.ttr_source == len(set(src_tokens)) / len(src_tokens)
        assert stats.ttr_target == len(set(tgt_tokens)) / len(tgt_tokens)

    @given(st.permutations(list(range(8))))
    def test_permutation_invariance(self, order):
        rows = [(f"alpha beta w{i}", f"g{i} gamma") for i in range(8)]
        base = corpus_stats(_pairs(*rows))
        shuffled = corpus_stats(_pairs(*[rows[i] for i in order]))
        assert shuffled == base

    # whitespace that str.split cuts at, and word characters that it does not
    SPLIT_AT = [
        "\u0085", "\u2028", "\u2029", "\u00a0", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", "\t", "\x0b", "\x0c", "\r", " "
    ]
    WORDS = ["a", "b", "de", "la", "é", "e\u0301", "\u200b", "x\x00y", "\ufeff", "😀"]

    def _gap(self, rng):
        return "".join(rng.choice(self.SPLIT_AT) for _ in range(rng.randrange(1, 3)))

    def _side(self, rng):
        shape = rng.random()
        if shape < 0.15:  # empty or whitespace alone
            return self._gap(rng)[: rng.randrange(3)]
        if shape < 0.3:
            return rng.choice(self.WORDS)
        words = [rng.choice(self.WORDS) for _ in range(rng.randrange(1, 6))]
        head, tail = (self._gap(rng) if rng.random() < 0.5 else "" for _ in range(2))
        return head + "".join(word + self._gap(rng) for word in words[:-1]) + words[-1] + tail

    def _assert_fold_matches_per_pair(self, fold, pairs):
        sentences, words_src, words_tgt, types_src, types_tgt = stats_fold_per_pair(pairs)
        assert (fold.sentences, fold.words_source, fold.words_target) == (sentences, words_src, words_tgt)
        assert (fold.types_source, fold.types_target) == (types_src, types_tgt)

    def test_chunk_fold_matches_the_per_pair_fold(self):
        rng = random.Random("stats-fold")
        pairs = _pairs(*[(self._side(rng), self._side(rng)) for _ in range(3000)])
        assert {min(len(p.source.split()), 2) for p in pairs} == {0, 1, 2}
        fold, start = StatsFold(), 0
        while start < len(pairs):
            size = rng.choice([0, 1, 2, 7, 128, 300])
            fold.add(pairs[start : start + size])
            start += size
        self._assert_fold_matches_per_pair(fold, pairs)
        assert corpus_stats(iter(pairs)) == fold.stats()

    def test_chunks_of_empty_and_single_token_sides(self):
        for rows in ([("", "")], [("", " ")] * 3, [("a", "")], [("a", "a"), ("", "b")], [("\u2028", "x\u0085y")]):
            fold = StatsFold()
            fold.add(_pairs(*rows))
            self._assert_fold_matches_per_pair(fold, _pairs(*rows))

    def test_ttr_bounds(self):
        stats = corpus_stats(_pairs(("a a a a", "b b c")))
        assert 0 < stats.ttr_source <= 1
        assert 0 < stats.ttr_target <= 1
