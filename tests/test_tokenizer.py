import random
import sys
import time
import tracemalloc
import unicodedata
from pathlib import Path

import pytest
import regex
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import detokenize_whole_prefix, tokenize_per_line
from synth import seed_lines

from bitextkit import tokenizer
from bitextkit.tokenizer import (
    TokenizerRules,
    detokenize,
    parse_prefix_file,
    resolve_rules,
    tokenize,
    tokenize_joined,
    tokenize_lines,
)


def prefix_languages():
    """Languages with a bundled nonbreaking-prefix list."""
    prefix_dir = Path(tokenizer.__file__).parent / "data" / "nonbreaking_prefixes"
    return {path.suffix[1:] for path in prefix_dir.glob("nonbreaking_prefix.*")}


def load_cases(data_dir, lang):
    rows = []
    for line in (data_dir / f"tokenizer_cases_{lang}.tsv").read_text(encoding="utf-8").splitlines():
        rt, text, expected = line.split("\t")
        rows.append((rt == "1", text, expected))
    return rows


class TestResolveRules:
    def test_direct_hit(self):
        assert resolve_rules("es", "ca").lang == "es"

    def test_bambara_falls_back_to_french(self):
        rules = resolve_rules("bm", "fr")
        assert rules.lang == "fr"
        assert rules.nonbreaking_prefixes == resolve_rules("fr").nonbreaking_prefixes

    def test_double_miss_gives_neutral(self):
        rules = resolve_rules("xx", "yy")
        assert rules.nonbreaking_prefixes == frozenset()
        assert rules.apostrophe_class == "isolate"

    def test_supported_set(self):
        assert prefix_languages() >= {"en", "es", "ca", "pt", "fr"}

    def test_apostrophe_classes(self):
        assert resolve_rules("fr").apostrophe_class == "left"
        assert resolve_rules("ca").apostrophe_class == "left"
        assert resolve_rules("en").apostrophe_class == "right"
        assert resolve_rules("es").apostrophe_class == "isolate"
        assert resolve_rules("pt").apostrophe_class == "isolate"


def test_prefix_file_parsing():
    text = "# comment\nDr\nSr\n\nNo #NUMERIC_ONLY#\nArt #NUMERIC_ONLY# \n"
    plain, numeric = parse_prefix_file(text)
    assert plain == {"Dr", "Sr"}
    assert numeric == {"No", "Art"}


@pytest.mark.parametrize("lang", ["en", "es", "ca", "pt", "fr"])
def test_frozen_fixture_table(data_dir, lang):
    rules = resolve_rules(lang)
    mismatches = []
    for _, text, expected in load_cases(data_dir, lang):
        got = " ".join(tokenize(text, rules))
        if got != expected:
            mismatches.append((text, expected, got))
    assert not mismatches, mismatches[:3]


@pytest.mark.parametrize("lang", ["en", "es", "ca", "pt", "fr"])
def test_round_trip_on_prose_subset(data_dir, lang):
    rules = resolve_rules(lang)
    for rt, text, _ in load_cases(data_dir, lang):
        if rt:
            assert detokenize(tokenize(text, rules), rules) == text


def test_empty_line():
    assert tokenize("", resolve_rules("en")) == []
    assert detokenize([], resolve_rules("en")) == ""


def test_detokenize_examples():
    rules = resolve_rules("en")
    assert detokenize(["Hello", ",", "world", "!"], rules) == "Hello, world!"
    assert detokenize(["x"], rules) == "x"
    assert detokenize(["(", "a", ")"], rules) == "(a)"


def test_aggressive_hyphen_mode():
    rules = resolve_rules("en", aggressive_hyphen=True)
    assert tokenize("cost-effective plan", rules) == ["cost", "@-@", "effective", "plan"]
    assert detokenize(["cost", "@-@", "effective", "plan"], rules) == "cost-effective plan"


def test_multidot_lengths_preserved():
    rules = resolve_rules("en")
    assert tokenize("wait.. go.... now", rules) == ["wait", "..", "go", "....", "now"]


def test_idempotent_on_own_output():
    rules = resolve_rules("es")
    text = "¿Seguro?, dijo el Sr. García... (en voz baja)"
    once = " ".join(tokenize(text, rules))
    assert " ".join(tokenize(once, rules)) == once


_SAFE_TEXT = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd", "Po", "Ps", "Pe", "Zs"),
        blacklist_characters="\t\n\r\x0b\x0c  ",
        max_codepoint=0x2FF,
    ),
    max_size=60,
)


@settings(max_examples=150)
@given(_SAFE_TEXT)
def test_character_conservation(text):
    # whatever splitting happens, no character may be added or lost
    rules = resolve_rules("es")
    tokens = tokenize(text, rules)
    assert "".join(tokens).replace(" ", "") == "".join(text.split())


@settings(max_examples=150)
@given(_SAFE_TEXT)
def test_no_token_contains_whitespace(text):
    rules = resolve_rules("fr")
    for token in tokenize(text, rules):
        assert token and not any(ch.isspace() for ch in token)


def test_nonbreaking_prefix_with_numeric_only_class():
    rules = resolve_rules("es")
    assert tokenize("en la pág. 12", rules) == ["en", "la", "pág.", "12"]
    # before a non-number, followed by an uppercase word, the period splits
    assert tokenize("Ver pág. Siguiente", rules) == ["Ver", "pág", ".", "Siguiente"]


def test_lowercase_next_word_keeps_period():
    rules = TokenizerRules("en")
    assert tokenize("The etc. rule applies", rules) == ["The", "etc.", "rule", "applies"]


def test_acronym_period_kept():
    rules = resolve_rules("en")
    assert tokenize("U.S. officials spoke", rules) == ["U.S.", "officials", "spoke"]


SEED_TEXT = [line for lang in ("es", "ca", "pt", "fr") for line in seed_lines(lang)]
RULE_LANGS = sorted(prefix_languages()) + ["xx"]

_FRAGMENTS = (
    "\x00", "\n", "\r", "\t", "\x0b", "\x0c", "\x1f", "\x7f", "\x85", "\u2028", "\u2029", "\u00a0", "\u3000",
    "\u0301", "\u0308", "e\u0301", "\u0344", "A\u030a", "\u1100\u1161",
    ".", "..", "...", "....", "a..", "x.y.", "U.S.", "3.5.", "12.", "1,000", ",", ",a", "a,", "5,", ",5",
    "'", "`", "l'", "d'", "'s", "don't", "1990's", "'hola'", "s'il", "-", "--", "cost-effective", "a-b-c", "-x", "x-",
    "?", "!", "¿", "¡", "(", ")", "«", "»", '"', ":", ";", "%", "$", "/", "@", "&", "’", "…",
    "MULTIDOT3", "MULTIDOT12", "MULTIDOT", "THISISPROTECTED000", "THISISPROTECTED001", "THISISPROTECTED5",
    "Sr.", "Dr.", "pág.", "No.", "Art.", "etc.", "p.", "M.", "<a href='x'>", "<b>",
    "a...b", "...'", "'...", ",..", "..,", "...-", "Sr..", "U.S..", "1...2", "x. ..", "MULTIDOT5", "MULTIDOTQ..",
    "casa", "Casa", "luego", "Luego", "42", "٣", "ñandú", "ÉCOLE", "l'aigua",
)
_SEPARATORS = ("", " ", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2028", "\r", ".")


def fuzz_lines(seed: int, count: int) -> list:
    """Seeded lines mixing control characters, Unicode spaces, combining
    marks, dots, placeholders, prefixes, apostrophes and seed words."""
    rng = random.Random(seed)
    words = [word for line in SEED_TEXT[:40] for word in line.split()]
    lines = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randrange(16)):
            parts.append(rng.choice(_FRAGMENTS) if rng.random() < 0.6 else rng.choice(words))
            parts.append(rng.choice(_SEPARATORS))
        lines.append("".join(parts))
    return lines


FUZZ = fuzz_lines(9, 2500)


@pytest.mark.parametrize("aggressive_hyphen", [False, True])
@pytest.mark.parametrize("lang", RULE_LANGS)
def test_tokenize_lines_equals_per_line_oracle(lang, aggressive_hyphen):
    rules = resolve_rules(lang, aggressive_hyphen=aggressive_hyphen)
    lines = SEED_TEXT + FUZZ
    want = [tokenize_per_line(line, rules) for line in lines]
    got = tokenize_lines(lines, rules)
    assert len(got) == len(lines)
    assert [(line, w, g) for line, w, g in zip(lines, want, got) if w != g] == []


def test_tokenize_equals_oracle_on_every_case(data_dir):
    cases = [text for lang in ("en", "es", "ca", "pt", "fr") for _, text, _ in load_cases(data_dir, lang)]
    for lang in ("en", "ca", "xx"):
        rules = resolve_rules(lang)
        for text in cases + FUZZ[:300]:
            assert tokenize(text, rules) == tokenize_per_line(text, rules)


@pytest.mark.parametrize("chunk_lines", [1, 7, 128, "whole"])
def test_tokens_do_not_depend_on_chunk_size(chunk_lines):
    """Callers cut a stream into chunks and tokenize each in one call; a
    line's tokens must not depend on where the cuts fall."""
    lines = FUZZ[:600] + SEED_TEXT[:300]
    size = len(lines) if chunk_lines == "whole" else chunk_lines
    chunks = [lines[start : start + size] for start in range(0, len(lines), size)]
    for rules in (resolve_rules("es"), resolve_rules("fr", aggressive_hyphen=True)):
        expected = [tokenize_per_line(line, rules) for line in lines]
        assert [tokens for chunk in chunks for tokens in tokenize_lines(chunk, rules)] == expected
        assert [line for chunk in chunks for line in tokenize_joined(chunk, rules)] == [" ".join(t) for t in expected]


def test_empty_input_gives_no_lines():
    assert tokenize_lines([], resolve_rules("es")) == []
    assert tokenize_joined([], resolve_rules("es")) == []


def test_str_whitespace_is_regex_whitespace_outside_junk():
    # The tokenizer collapses whitespace with str.split and splits words on
    # " " and LF, where the rules speak of regex's \s: the two must agree on
    # every code point that survives the control-character removal.
    space = regex.compile(r"\s")
    junk = regex.compile("[\\x00-\\x1f\\x7f]")
    disagree = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if not junk.match(chr(cp)) and bool(space.match(chr(cp))) != chr(cp).isspace()
    ]
    assert disagree == []


def test_input_words_shaped_like_placeholders_tokenize_like_other_words():
    en = resolve_rules("en")
    assert tokenize("see MULTIDOT5 now", en) == ["see", "MULTIDOT5", "now"]
    assert tokenize("wait... (MULTIDOT2) MULTIDOTQ.. x", en) == [
        "wait", "...", "(", "MULTIDOT2", ")", "MULTIDOTQ", "..", "x",
    ]
    # the control character is removed before the rules run
    assert tokenize("MULTI\x00DOT5 ...", en) == ["MULTIDOT5", "..."]
    # one line's look-alike does not change how another line is restored
    lines = ["MULTIDOT3 MULTIDOTQ7", "a... <b> c", "<u>.."]
    assert tokenize_lines(lines, en) == [
        ["MULTIDOT3", "MULTIDOTQ7"], ["a", "...", "<", "b", ">", "c"], ["<", "u", ">", ".."],
    ]
    assert tokenize_lines(lines, en) == [tokenize_per_line(line, en) for line in lines]


def test_multidot_and_a_long_digit_run_allocates_nothing_large():
    word = "MULTIDOT" + "9" * 30
    tracemalloc.start()
    try:
        got = tokenize(f"see {word} now...", resolve_rules("en"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ["see", word, "now", "..."]
    assert peak < 1_000_000


def _padded_always_substituted(line: str) -> str:
    text = tokenizer._JUNK.sub("", unicodedata.normalize("NFC", line))
    return " " + " ".join(text.split()) + " "


def test_padded_equals_junk_removal_on_every_control_character():
    controls = [chr(cp) for cp in range(sys.maxunicode + 1) if unicodedata.category(chr(cp)) == "Cc"]
    assert len(controls) == 65 and all(not ch.isprintable() for ch in controls)
    assert all(not tokenizer._JUNK.match(ch) or ch in controls for ch in map(chr, range(0x80)))
    for ch in controls:
        for line in (ch, f"a{ch}b", f" {ch} ", f"e{ch}\u0301", f"{ch}{ch}la\u2028{ch}", f"de{ch}la casa"):
            assert tokenizer._padded(line) == _padded_always_substituted(line), repr(line)
    # the other unprintable characters of the BMP, which keep their place
    for cp in range(0x10000):
        if not chr(cp).isprintable():
            line = f"a{chr(cp)}b \x00"
            assert tokenizer._padded(line) == _padded_always_substituted(line), hex(cp)


# tokens of each shape the detokenizer treats apart, and tokens ending in LF
DETOK_TOKENS = [
    "l'", "d'", "aigua", "'t", "'s", "don", "x\n", "l'\n", "'", '"', ",", ".", "(", "¿", "@-@", "1", "é", "'\n", "\n", "œ'"
]


@pytest.mark.parametrize("lang", ["es", "ca", "fr", "en", "pt"])
def test_detokenize_equals_whole_prefix_search(lang):
    rules = resolve_rules(lang)
    rng = random.Random(f"detok:{lang}")
    for _ in range(3000):
        tokens = [rng.choice(DETOK_TOKENS) for _ in range(rng.randrange(8))]
        assert detokenize(tokens, rules) == detokenize_whole_prefix(tokens, rules), tokens


@pytest.mark.parametrize("lang, loop", [("ca", "de l' aigua"), ("fr", "de l' eau"), ("en", "don 't")])
def test_detokenize_time_grows_linearly(lang, loop):
    rules = resolve_rules(lang)

    def best_of_3(n):
        tokens = (loop.split() * n)[:n]
        times = []
        for _ in range(3):
            start = time.perf_counter()
            detokenize(tokens, rules)
            times.append(time.perf_counter() - start)
        return min(times)

    # linear work takes about 4x from n to 4n tokens, quadratic about 16x
    assert best_of_3(8000) / best_of_3(2000) < 8


# One long line of each adversarial shape, as (loop, repetitions in n),
# with n chosen so that 4n takes 50 ms or more on a 2-vCPU machine.
# Cognates, RIBES and TER are outside this check: cognate extraction
# compares every source word with every target word by definition, and
# RIBES and TER have growth checks of their own.
GROWTH_SHAPES = {
    "dot runs": ("a... b.. ", 10_000),
    "apostrophes": ("l'aigua d'en don't qu' 'x ", 6_000),
    "commas": ("a, b,c 1,000, ,d ", 6_000),
    "quotes": ("\"cita\" 'x' «y» ", 6_000),
    "prefixes": ("Sr. García pág. 12 etc. y Dr. Casa. ", 2_000),
    "no spaces": ("l'a,b.c\"d...e-f", 6_000),
}


@pytest.mark.parametrize("shape", sorted(GROWTH_SHAPES))
@pytest.mark.parametrize("lang", ["ca", "en", "es"])
def test_tokenize_time_grows_linearly_in_the_line(lang, shape):
    rules = resolve_rules(lang)
    loop, n = GROWTH_SHAPES[shape]

    def best_of_3(repeats):
        line = loop * repeats
        times = []
        for _ in range(3):
            start = time.perf_counter()
            tokenize_lines([line], rules)
            times.append(time.perf_counter() - start)
        return min(times)

    # linear work takes about 4x from n to 4n, quadratic about 16x
    assert best_of_3(4 * n) / best_of_3(n) < 8
