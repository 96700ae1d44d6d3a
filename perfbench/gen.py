"""Seeded input generator for the benchmark workloads (standard library only).

Every input is built from the seed corpora bundled with the package
(``src/bitextkit/data/seeds``). The same ``(family, seed)`` always gives the
same files. Besides the program's inputs, the generator returns the labels
the output checks need: each prep pair's noise class and, for eval, the
token lists of every reference, hypothesis and source segment, with the
edits applied to each hypothesis. Those labels never reach the program.

The composition of each workload is fixed (exact counts of each kind of pair
or edit; for eval-reorder also every segment's length and edit positions);
the seed only chooses which seed lines and words fill it, so the amount of
work does not drift from seed to seed.
"""

from __future__ import annotations

import random
from pathlib import Path

SEED_DIR = Path("src/bitextkit/data/seeds")
PREFIX_DIR = Path("src/bitextkit/data/nonbreaking_prefixes")

# prep: es->ca bitext with labelled noise; counts are shares of PREP_PAIRS
PREP_PAIRS = 16_000
PREP_WARMUP_PAIRS = 400
PREP_MIX = (("clean", 0.84), ("identical", 0.07), ("french", 0.07), ("empty", 0.02))

# eval-light: ca->es near-copy output (paper: 82.79 BLEU for ca->es)
LIGHT_SEGMENTS = 1_500
LIGHT_MIX = (("copy", 0.55), ("substitute", 0.25), ("swap", 0.20))

# eval-reorder: pt->es output with moved word blocks; lengths 15..35 tokens
REORDER_LENGTHS = tuple(range(15, 36))
REORDER_ROUNDS = 4  # each length appears this many times
REORDER_MOVES = 3
REORDER_SUBSTITUTIONS = 2

EVAL_WARMUP_SEGMENTS = 20


def seed_lines(root: Path, lang: str) -> list:
    text = (root / SEED_DIR / f"{lang}.txt").read_text(encoding="utf-8")
    return [line for line in text.split("\n") if line.strip()]


def spliced(lines: list, i: int, j: int) -> str:
    """First half of line i joined to the second half of line j: text that is
    true to its language but not a verbatim seed line."""
    a = lines[i].split()
    b = lines[j].split()
    return " ".join(a[: max(3, len(a) // 2)] + b[len(b) // 2 :])


def _counts(total: int, mix) -> list:
    counts = [(name, int(total * share)) for name, share in mix]
    first, n = counts[0]
    counts[0] = (first, n + total - sum(c for _, c in counts))
    return counts


def make_prep(root: Path, seed: int) -> dict:
    """es->ca pairs and their noise labels (clean, identical, french, empty)."""
    rng = random.Random(f"prep:{seed}")
    es, ca, fr = (seed_lines(root, lang) for lang in ("es", "ca", "fr"))
    n_lines = min(len(es), len(ca), len(fr))
    labels = []
    for name, count in _counts(PREP_PAIRS, PREP_MIX):
        labels.extend([name] * count)
    rng.shuffle(labels)
    sources, targets = [], []
    for label in labels:
        i, j = rng.randrange(n_lines), rng.randrange(n_lines)
        src = spliced(es, i, j)
        if label == "clean":
            tgt = spliced(ca, i, j)
        elif label == "identical":
            tgt = src
        elif label == "french":
            tgt = spliced(fr, i, j)
        else:
            tgt = spliced(ca, i, j)
            if rng.random() < 0.5:
                src = ""
            else:
                tgt = ""
        sources.append(src)
        targets.append(tgt)
    return {"source": sources, "target": targets, "labels": labels}


def _prefixes(root: Path, lang: str) -> set:
    text = (root / PREFIX_DIR / f"nonbreaking_prefix.{lang}").read_text(encoding="utf-8")
    found = set()
    for line in text.split("\n"):
        line = line.split("#", 1)[0].strip()
        if line:
            found.add(line)
    return found


def clean_tokens(line: str, prefixes: set) -> list:
    """A seed line as plain tokens: alphabetic words, the commas that follow
    them, and one final period. Such text tokenizes to exactly these tokens
    in every supported language, so the checks know the scored tokens."""
    tokens = []
    for raw in line.split():
        comma = raw.endswith(",")
        word = raw.rstrip(",.;:")
        if word.isalpha() and word not in prefixes:
            tokens.append(word)
            if comma:
                tokens.append(",")
    return _trim(tokens) + ["."]


def _trim(tokens: list) -> list:
    while tokens and tokens[-1] == ",":
        tokens = tokens[:-1]
    return tokens


def detokenized(tokens: list) -> str:
    """Plain text of clean_tokens output: punctuation attaches to the left."""
    text = ""
    for tok in tokens:
        text += tok if tok in (",", ".") or not text else " " + tok
    return text


def _word_positions(tokens: list) -> list:
    return [k for k, tok in enumerate(tokens[:-1]) if tok not in (",", ".")]


def _substitute(where, what, tokens: list, pool: list) -> None:
    k = where.choice(_word_positions(tokens))
    word = what.choice(pool)
    while word == tokens[k]:
        word = what.choice(pool)
    tokens[k] = word


def _swap(rng, tokens: list) -> None:
    body = len(tokens) - 1
    pairs = [k for k in range(body - 1) if tokens[k] != tokens[k + 1]]
    k = rng.choice(pairs)
    tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]


def _move_block(rng, tokens: list) -> None:
    """Move a block of 1-4 tokens to another place before the final period."""
    body = tokens[:-1]
    size = rng.randint(1, min(4, len(body) - 1))
    start = rng.randrange(len(body) - size + 1)
    block = body[start : start + size]
    rest = body[:start] + body[start + size :]
    dest = rng.randrange(len(rest) + 1)
    while dest == start:
        dest = rng.randrange(len(rest) + 1)
    tokens[:-1] = rest[:dest] + block + rest[dest:]


def _eval_pool(root: Path, lang: str, prefixes: set) -> list:
    return sorted({t for line in seed_lines(root, lang) for t in clean_tokens(line, prefixes) if t not in (",", ".")})


def make_eval_light(root: Path, seed: int) -> dict:
    """ca->es near-copy segments: most hypotheses equal their reference, the
    rest carry one substitution or one adjacent swap."""
    rng = random.Random(f"eval-light:{seed}")
    es_pre, ca_pre = _prefixes(root, "es"), _prefixes(root, "ca")
    es, ca = seed_lines(root, "es"), seed_lines(root, "ca")
    pool = _eval_pool(root, "es", es_pre)
    kinds = []
    for name, count in _counts(LIGHT_SEGMENTS, LIGHT_MIX):
        kinds.extend([name] * count)
    rng.shuffle(kinds)
    segments = []
    for kind in kinds:
        i = rng.randrange(min(len(es), len(ca)))
        ref = clean_tokens(es[i], es_pre)
        hyp = list(ref)
        if kind == "substitute":
            _substitute(rng, rng, hyp, pool)
        elif kind == "swap":
            _swap(rng, hyp)
        segments.append({"src": clean_tokens(ca[i], ca_pre), "ref": ref, "hyp": hyp, "edits": [kind]})
    return {"src_lang": "ca", "tgt_lang": "es", "segments": segments}


def make_eval_reorder(root: Path, seed: int) -> dict:
    """pt->es segments of 15-35 tokens, each hypothesis with several moved
    word blocks, a few substituted words, and in two of three segments one
    deleted or inserted word.

    The shape of every segment (its length, which blocks move where, which
    positions change) is the same for every seed, and no word occurs twice
    in a reference; the seed chooses the seed lines and the words. TER's
    shift search tries every hypothesis span at every place it occurs in the
    reference, so with a seed-chosen shape or repeated words the work of a
    run would depend on the seed."""
    shape = random.Random("eval-reorder:shape")
    rng = random.Random(f"eval-reorder:{seed}")
    es_pre, pt_pre = _prefixes(root, "es"), _prefixes(root, "pt")
    es, pt = seed_lines(root, "es"), seed_lines(root, "pt")
    n_lines = min(len(es), len(pt))
    pool = _eval_pool(root, "es", es_pre)
    lengths = list(REORDER_LENGTHS) * REORDER_ROUNDS
    shape.shuffle(lengths)
    segments = []
    for n, length in enumerate(lengths):
        ref_words, src_words = [], []
        while len(ref_words) < length - 1:
            i = rng.randrange(n_lines)
            for word in clean_tokens(es[i], es_pre)[:-1]:
                if word != "," and word not in ref_words:
                    ref_words.append(word)
            src_words += clean_tokens(pt[i], pt_pre)[:-1]
        ref = ref_words[: length - 1] + ["."]
        src = _trim(src_words[: round(len(src_words) * (length - 1) / len(ref_words))]) + ["."]
        unused = [word for word in pool if word not in ref_words]
        hyp = list(ref)
        edits = []
        for _ in range(REORDER_MOVES):
            _move_block(shape, hyp)
            edits.append("move")
        for _ in range(REORDER_SUBSTITUTIONS):
            _substitute(shape, rng, hyp, unused)
            edits.append("substitute")
        if n % 3 == 1:
            del hyp[shape.choice(_word_positions(hyp))]
            edits.append("delete")
        elif n % 3 == 2:
            hyp.insert(shape.randrange(len(hyp)), rng.choice(unused))
            edits.append("insert")
        segments.append({"src": src, "ref": ref, "hyp": hyp, "edits": edits})
    return {"src_lang": "pt", "tgt_lang": "es", "segments": segments}
