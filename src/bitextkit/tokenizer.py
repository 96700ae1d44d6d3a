"""Moses-convention rule-based tokenizer and detokenizer.

Implements the core rule set: punctuation separation, nonbreaking prefixes,
runs of periods kept whole, digit-internal punctuation protection, and
per-language apostrophe handling (clitic-attaching for French/Catalan,
contraction-attaching for English, isolating otherwise). Languages without
a bundled prefix list fall back to the rules of the language they are
paired with, and to neutral rules when neither is available.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import regex

_ALPHA = r"\p{L}\p{M}"
_NUM = r"\p{N}"
_ALNUM = _ALPHA + _NUM

# Languages whose apostrophe attaches to the preceding clitic ("l' aigua").
_APOS_LEFT_LANGS = frozenset({"fr", "ca", "it", "ga"})
# Languages whose apostrophe attaches to the following contraction ("don 't").
_APOS_RIGHT_LANGS = frozenset({"en"})

_JUNK = regex.compile("[\\x00-\\x1f\\x7f]")
_SPECIALS = regex.compile(rf"([^{_ALNUM}\s.'`,\-])")
_AGGRESSIVE_HYPHEN = regex.compile(rf"([{_ALNUM}])-(?=[{_ALNUM}])")
_MULTIDOT = regex.compile(r"\.{2,}")
_COMMA_RULES = (
    (regex.compile(rf"([^{_NUM}]),"), r"\1 , "),
    (regex.compile(rf",([^{_NUM}])"), r" , \1"),
)
_APOS_RULES = {
    "right": (
        (regex.compile(rf"([^{_ALPHA}])'([^{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([^{_ALPHA}{_NUM}])'([{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([{_ALPHA}])'([^{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([{_ALPHA}])'([{_ALPHA}])"), r"\1 '\2"),
        (regex.compile(rf"([{_NUM}])'(s)"), r"\1 '\2"),
    ),
    "left": (
        (regex.compile(rf"([^{_ALPHA}])'([^{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([^{_ALPHA}])'([{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([{_ALPHA}])'([^{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([{_ALPHA}])'([{_ALPHA}])"), r"\1' \2"),
    ),
    "isolate": ((regex.compile(r"'"), r" ' "),),
}
# The period that ends a word, and the first character of the next word on
# its line, if there is one. In a padded chunk the only whitespace is the
# space and the LF between lines. A period after a period ends a run of
# periods, which is a token of its own.
_PERIOD_END = regex.compile(r"(?<!\.)\.(?= +([^ \n])?)")
_HAS_ALPHA = regex.compile(rf"[{_ALPHA}]")
_STARTS_LOWER = regex.compile(r"^\p{Ll}")
_STARTS_DIGIT = regex.compile(rf"^[{_NUM}]")

_PREFIX_PACKAGE_DIR = "data/nonbreaking_prefixes"


@dataclass(frozen=True)
class TokenizerRules:
    """Per-language tokenization settings."""

    lang: str
    nonbreaking_prefixes: frozenset = frozenset()
    numeric_only_prefixes: frozenset = frozenset()
    aggressive_hyphen: bool = False

    @property
    def apostrophe_class(self) -> str:
        if self.lang in _APOS_LEFT_LANGS:
            return "left"
        if self.lang in _APOS_RIGHT_LANGS:
            return "right"
        return "isolate"


def parse_prefix_file(text: str) -> tuple[frozenset, frozenset]:
    """Parse a Moses ``nonbreaking_prefix.<lang>`` file.

    One prefix per line; lines starting with '#' are comments; a
    ``#NUMERIC_ONLY#`` annotation marks prefixes that keep their period
    only before a number.
    """
    plain = set()
    numeric = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if "#NUMERIC_ONLY#" in line:
            prefix = line.split("#NUMERIC_ONLY#")[0].strip()
            if prefix:
                numeric.add(prefix)
            continue
        if line.startswith("#"):
            continue
        plain.add(line)
    return frozenset(plain), frozenset(numeric)


def _prefix_resource(lang: str):
    return resources.files("bitextkit").joinpath(f"{_PREFIX_PACKAGE_DIR}/nonbreaking_prefix.{lang}")


def _rules_for(lang: str, aggressive_hyphen: bool) -> TokenizerRules | None:
    res = _prefix_resource(lang)
    if not res.is_file():
        return None
    plain, numeric = parse_prefix_file(res.read_text(encoding="utf-8"))
    return TokenizerRules(lang, plain, numeric, aggressive_hyphen)


def resolve_rules(lang: str, pair_other_lang: str | None = None, aggressive_hyphen: bool = False) -> TokenizerRules:
    """Rules for ``lang``, falling back to the paired language's rules when
    ``lang`` is unsupported, and to neutral rules when both are.

    The returned ``lang`` field names the rule set actually resolved, so a
    fallback is observable (e.g. Bambara paired with French resolves to the
    French rules).
    """
    rules = _rules_for(lang.lower(), aggressive_hyphen)
    if rules is None and pair_other_lang:
        rules = _rules_for(pair_other_lang.lower(), aggressive_hyphen)
    if rules is None:
        rules = TokenizerRules(lang.lower(), aggressive_hyphen=aggressive_hyphen)
    return rules


def _padded(line: str) -> str:
    """``line`` normalized to NFC, cleaned of control characters, its
    whitespace collapsed and padded with a space on either side."""
    text = unicodedata.normalize("NFC", line)
    if not text.isprintable():  # every junk character is unprintable
        text = _JUNK.sub("", text)
    # after the junk is gone, str.split's whitespace is exactly regex's \s
    return " " + " ".join(text.split()) + " "


def _split_periods(text: str, rules: TokenizerRules) -> str:
    """Split word-final periods from their word, except after nonbreaking
    prefixes, in words with an inner period and a letter, and before a
    lowercase word (or a number, for numeric-only prefixes)."""
    cuts = [0]
    for m in _PERIOD_END.finditer(text):
        end = m.start()
        stem = text[text.rfind(" ", 0, end) + 1 : end]  # a space starts every line
        following = m.group(1)
        keep = (
            not stem
            or ("." in stem and _HAS_ALPHA.search(stem))
            or stem in rules.nonbreaking_prefixes
            or (
                following is not None
                and (
                    _STARTS_LOWER.match(following)
                    or (stem in rules.numeric_only_prefixes and _STARTS_DIGIT.match(following))
                )
            )
        )
        if not keep:
            cuts.append(end)
    cuts.append(len(text))
    return " ".join([text[a:b] for a, b in zip(cuts, cuts[1:])])


def _segments(lines: Sequence[str], rules: TokenizerRules) -> list[str]:
    """Each line's tokens, with runs of spaces between them: the lines are
    padded, joined with LF and run through every rule once."""
    if not lines:
        return []
    # An LF inside a line is junk, so LF joins the lines unambiguously. Every
    # line starts and ends with a space, so no rule's match or context
    # reaches past its line, and no rule writes an LF.
    text = "\n".join([_padded(line) for line in lines])
    text = _SPECIALS.sub(r" \1 ", text)
    if rules.aggressive_hyphen:
        text = _AGGRESSIVE_HYPHEN.sub(r"\1 @-@ ", text)
    # a run of periods is one token: no comma, apostrophe or period rule
    # reads a period of a run once spaces bound it
    text = _MULTIDOT.sub(r" \g<0> ", text)
    for pattern, repl in _COMMA_RULES:
        text = pattern.sub(repl, text)
    for pattern, repl in _APOS_RULES[rules.apostrophe_class]:
        text = pattern.sub(repl, text)
    return _split_periods(text, rules).split("\n")


def tokenize_lines(lines: Sequence[str], rules: TokenizerRules) -> list[list[str]]:
    """Tokenize each line into Moses-convention tokens, one list per line.

    Each line is normalized and padded on its own; then the lines are
    joined with LF, so that each rule runs once over all of them. A line's
    tokens do not depend on the other lines. Callers with a stream hand
    over a chunk of it at a time.
    """
    return [segment.split() for segment in _segments(lines, rules)]


def tokenize_joined(lines: Sequence[str], rules: TokenizerRules) -> list[str]:
    """``tokenize_lines`` with each line's tokens joined by single spaces,
    as a tokenized corpus is written."""
    return [" ".join(segment.split()) for segment in _segments(lines, rules)]


def tokenize(text: str, rules: TokenizerRules) -> list:
    """Tokenize one logical line into Moses-convention tokens."""
    return tokenize_lines([text], rules)[0]


_RIGHT_PUNCT = regex.compile(r"^[,.?!:;%…\\}\])»›]+$")
_LEFT_PUNCT = regex.compile(r"^[\[({«‹¿¡$]+$")
_EN_CONTRACTION = regex.compile(rf"^'[{_ALPHA}]")
# Searched in the last three characters of the text built so far: "$"
# matches at the end and before a final LF, so no match starts earlier.
_ENDS_ALNUM = regex.compile(rf"[{_ALNUM}]$")
_CLITIC_END = regex.compile(rf"[{_ALPHA}]'$")
_STARTS_ALPHA = regex.compile(rf"^[{_ALPHA}]")


def detokenize(tokens, rules: TokenizerRules) -> str:
    """Inverse of the Moses conventions: attach closing punctuation to the
    left, opening punctuation to the right, and rebuild apostrophe
    contractions per language. Paired straight quotes alternate between
    opening and closing."""
    apos_class = rules.apostrophe_class
    text = ""
    pending = ""
    quote_parity: dict = {}
    for token in tokens:
        attach_left = False
        no_space_after = False
        if _RIGHT_PUNCT.match(token):
            attach_left = True
        elif _LEFT_PUNCT.match(token):
            no_space_after = True
        elif token == "@-@":
            token = "-"
            attach_left = True
            no_space_after = True
        elif token in ("'", '"'):
            count = quote_parity.get(token, 0)
            quote_parity[token] = count + 1
            if count % 2 == 0:
                no_space_after = True
            else:
                attach_left = True
        elif (
            apos_class == "right"
            and _EN_CONTRACTION.match(token)
            and _ENDS_ALNUM.search(text[-3:])
        ):
            attach_left = True
        if apos_class == "left" and _CLITIC_END.search(text[-3:]) and _STARTS_ALPHA.match(token):
            attach_left = True

        text += token if attach_left else pending + token
        pending = "" if no_space_after else " "
    return text

