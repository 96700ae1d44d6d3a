"""Golden digests: SHA-256 of every output of both pipelines and of the CLI
commands, on fixed inputs, for ``tests/test_golden.py``.

Each case writes its inputs' outputs (artifacts, standard output and
standard error) under a directory of its own; ``digests`` hashes them
after dropping what changes from run to run: the manifest's
``created_unix``, the ``workers`` echoed in a config, and the paths of
the input and output directories. A case gives the same digests for any
number of workers and any chunk size (``patched_chunks``).

Inputs come from the bundled seeds through ``synth.py``, with hostile
lines mixed in. To rewrite ``tests/golden.json`` after a change that
alters an output on purpose, run from the repository root::

    PYTHONPATH=src python tests/golden.py

It runs every case with 1 and 2 workers and with every chunk size, and
writes nothing if two runs of a case disagree.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from click.testing import CliRunner
from synth import seed_lines, spliced, synthetic_noisy_corpus

from bitextkit import corpus_io, parallel
from bitextkit.cli import cli
from bitextkit.langid import save_model, train
from bitextkit.pipeline import run_pipeline, validate_config

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# the chunk sizes besides the defaults that every case runs with
CHUNK_SIZES = (1, 7)

# (source, target) pairs that no clean corpus holds
HOSTILE_PAIRS = (
    ("una línea\rcon CR suelto", "una línia\ramb CR solt"),
    ("texto\u2028con separador de línea", "text\u2028amb separador de línia"),
    ("salto\u0085de línea NEL", "salt\u0085de línia NEL"),
    ("con\x00 un NUL dentro", "amb\x00 un NUL a dins"),
    ("", "el costat font és buit"),
    ("el lado destino está vacío", ""),
    ("Hola", "Adéu"),
    ("espera... ¿qué pasa..? Bien.. vale.", "espera... què passa..? Bé.. d'acord."),
    ("el Sr.. García y U.S.. y 1...2 y x. .. fin", "el Sr.. Garcia i U.S.. i 1...2 i x. .. fi"),
    ("la palabra MULTIDOT5 y MULTIDOTQ.. aquí", "la paraula MULTIDOT5 i MULTIDOTQ.. aquí"),
    ("a...b '...' ,.. .., ...- fin", "a...b '...' ,.. .., ...- fi"),
    ("   ", "\t"),
    ("l'home d'aquí, 1,000.5 y don't", "l'home d'aquí, 1,000.5 i don't"),
)


def _hostile_segments():
    return [side for pair in HOSTILE_PAIRS for side in pair]


def crude_tokens(line: str) -> list:
    """Words of ``line`` with final punctuation split off: tokenized input
    made without the tokenizer under test."""
    tokens = []
    for word in line.split():
        tail = []
        while len(word) > 1 and word[-1] in ".,;:?!":
            tail.insert(0, word[-1])
            word = word[:-1]
        tokens += [word] + tail
    return tokens


def _near_copy(rng, tokens: list, pool: list) -> list:
    hyp = list(tokens)
    roll = rng.random()
    if roll < 0.3 and hyp:
        hyp[rng.randrange(len(hyp))] = rng.choice(pool)
    elif roll < 0.5 and len(hyp) > 1:
        i = rng.randrange(len(hyp) - 1)
        hyp[i], hyp[i + 1] = hyp[i + 1], hyp[i]
    return hyp


def _moved_blocks(rng, tokens: list, moves: int) -> list:
    hyp = list(tokens)
    for _ in range(moves):
        start = rng.randrange(len(hyp) - 3)
        block = hyp[start : start + rng.randint(2, 3)]
        rest = hyp[:start] + hyp[start + len(block) :]
        dest = rng.randrange(len(rest) + 1)
        hyp = rest[:dest] + block + rest[dest:]
    return hyp


def _write(path: Path, lines) -> None:
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))


def write_inputs(root: Path, model) -> None:
    """Every input file of the cases, under ``root``."""
    pairs, _ = synthetic_noisy_corpus(n_clean=400, n_copied=40, n_wrong=40)
    src = [pair.source for pair in pairs]
    tgt = [pair.target for pair in pairs]
    for k, (s, t) in enumerate(HOSTILE_PAIRS):
        src.insert(37 * k + 5, s)
        tgt.insert(37 * k + 5, t)
    _write(root / "corpus.es", src)
    _write(root / "corpus.ca", tgt)
    save_model(model, root / "model.lidm")

    rng = random.Random("golden:eval")
    es, ca, pt = seed_lines("es"), seed_lines("ca"), seed_lines("pt")
    pool = sorted({word for line in es for word in crude_tokens(line)})
    # eval-light: short ca->es near copies
    light = [(spliced(ca, k, k * 3 + 1), spliced(es, k, k * 3 + 1)) for k in range(260)]
    light += list(zip(_hostile_segments(), reversed(_hostile_segments())))
    _write_eval(root, "light", light, [" ".join(_near_copy(rng, crude_tokens(r), pool)) for _, r in light])
    # eval-reorder: pt->es segments of 15-35 tokens with moved word blocks
    reorder, hyps = [], []
    for k in range(36):
        ref = crude_tokens(es[k] + " " + es[k + 50])[: rng.randint(15, 35)]
        reorder.append((pt[k] + " " + pt[k + 50], " ".join(ref)))
        hyps.append(" ".join(_moved_blocks(rng, ref, 3)))
    reorder += [(s, s) for s in _hostile_segments()]
    _write_eval(root, "reorder", reorder, hyps + _hostile_segments())


def _write_eval(root: Path, name: str, pairs: list, hyps: list) -> None:
    """``name``.src, .ref and .hyp, and the sources and references made
    into tokens by ``crude_tokens`` in .src.tok and .ref.tok."""
    for suffix, lines in (("src", [s for s, _ in pairs]), ("ref", [r for _, r in pairs]), ("hyp", hyps)):
        _write(root / f"{name}.{suffix}", lines)
        if suffix != "hyp":
            _write(root / f"{name}.{suffix}.tok", [" ".join(crude_tokens(line)) for line in lines])


def chunk_modules() -> list:
    """Every loaded ``bitextkit`` module that binds the chunk size
    ``_CHUNK``: its own copy of the constant is what it cuts by."""
    loaded = sorted(sys.modules.items())
    return [module for name, module in loaded if name.partition(".")[0] == "bitextkit" and hasattr(module, "_CHUNK")]


@contextmanager
def patched_chunks(size):
    """Every chunk constant set to ``size`` (kept as it is for None): each
    module's ``_CHUNK``, ``_READ_BLOCK`` and ``_WINDOW_PER_PROCESS``. At 1
    and 7 bytes, ``_READ_BLOCK`` cuts multi-byte characters, and the lines
    with a CR inside, across blocks."""
    targets = [(corpus_io, "_READ_BLOCK"), (parallel, "_WINDOW_PER_PROCESS")]
    targets += [(module, "_CHUNK") for module in chunk_modules()]
    saved = [getattr(module, name) for module, name in targets]
    try:
        if size is not None:
            for module, name in targets:
                setattr(module, name, size)
        yield
    finally:
        for (module, name), value in zip(targets, saved):
            setattr(module, name, value)


def _pipeline(root: Path, out: Path, workers: int, **keys) -> dict:
    config, errors = validate_config(overrides={"out_dir": str(out), "workers": str(workers), **keys}, env={})
    assert not errors, errors
    run_pipeline(config)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _prep(clean_enabled: bool):
    def run(root: Path, out: Path, workers: int) -> dict:
        return _pipeline(
            root, out, workers, task="prep", src_lang="es", tgt_lang="ca", source=str(root / "corpus.es"),
            target=str(root / "corpus.ca"), model=str(root / "model.lidm"), clean_enabled=str(clean_enabled),
        )

    return run


def _eval(name: str, src_lang: str, lowercase: bool):
    def run(root: Path, out: Path, workers: int) -> dict:
        return _pipeline(
            root, out, workers, task="eval", src_lang=src_lang, tgt_lang="es", hyp=str(root / f"{name}.hyp"),
            ref=str(root / f"{name}.ref"), source=str(root / f"{name}.src"), lowercase=str(lowercase),
        )

    return run


def _invoke(outputs: dict, label: str, args: list) -> None:
    result = CliRunner().invoke(cli, args, catch_exceptions=False)
    outputs[f"{label}.exit"] = str(result.exit_code).encode()
    outputs[f"{label}.stdout"] = result.stdout_bytes
    outputs[f"{label}.stderr"] = result.stderr_bytes


def _cli(*invocations, files=()):
    """A case of CLI invocations ``(label, args)``; ``{in}``, ``{out}`` and
    ``{workers}`` in an argument name the input and output directories and
    the worker count. The ``files`` it writes are outputs too."""

    def run(root: Path, out: Path, workers: int) -> dict:
        outputs: dict = {}
        for label, args in invocations:
            _invoke(outputs, label, [arg.format(**{"in": root, "out": out, "workers": workers}) for arg in args])
        for name in files:
            outputs[name] = (out / name).read_bytes()
        return outputs

    return run


_CLEAN = ["clean", "--src", "{in}/corpus.es", "--tgt", "{in}/corpus.ca", "--src-lang", "es", "--tgt-lang", "ca"]
_CLEAN += ["--model", "{in}/model.lidm", "--workers", "{workers}"]

# name -> (run(root, out, workers) -> {output name: bytes}, reads workers)
CASES = {
    "prep-clean": (_prep(True), True),
    "prep-no-clean": (_prep(False), True),
    "eval-light": (_eval("light", "ca", False), True),
    "eval-light-lowercase": (_eval("light", "ca", True), True),
    "eval-reorder": (_eval("reorder", "pt", False), True),
    "eval-reorder-lowercase": (_eval("reorder", "pt", True), True),
    "cli-tokenize": (
        _cli(
            ("es", ["tokenize", "--lang", "es", "--input", "{in}/corpus.es"]),
            ("ca", ["tokenize", "--lang", "ca", "--input", "{in}/corpus.ca"]),
            ("en-hyphen", ["tokenize", "--lang", "en", "--aggressive-hyphen", "--input", "{in}/corpus.ca"]),
            ("xx", ["tokenize", "--lang", "xx", "--input", "{in}/light.hyp", "--output", "{out}/light.xx"]),
            files=("light.xx",),
        ),
        False,
    ),
    "cli-detokenize": (
        _cli(
            ("ca", ["detokenize", "--lang", "ca", "--input", "{in}/light.ref.tok"]),
            ("en", ["detokenize", "--lang", "en", "--input", "{in}/reorder.src.tok"]),
        ),
        False,
    ),
    "cli-score": (
        _cli(
            ("light", ["score", "--hyp", "{in}/light.hyp", "--ref", "{in}/light.ref", "--lang", "es"]),
            ("lowercase", ["score", "--hyp", "{in}/reorder.hyp", "--ref", "{in}/reorder.ref", "--lang", "es", "--lowercase"]),
            (
                "tokenized",
                ["score", "--hyp", "{in}/light.hyp", "--ref", "{in}/light.ref.tok", "--ref", "{in}/light.src.tok"]
                + ["--lang", "es", "--tokenized"],
            ),
        ),
        False,
    ),
    "cli-cognates": (
        _cli(
            (
                "cognates",
                ["cognates", "--src", "{in}/light.src.tok", "--ref", "{in}/light.ref.tok", "--sys", "{in}/light.hyp"]
                + ["--dump", "{out}/cognates.tsv", "--workers", "{workers}"],
            ),
            ("plain", ["cognates", "--src", "{in}/reorder.src.tok", "--ref", "{in}/reorder.ref.tok", "--workers", "{workers}"]),
            files=("cognates.tsv",),
        ),
        True,
    ),
    "cli-clean": (
        _cli(
            ("clean", _CLEAN + ["--out-prefix", "{out}/kept", "--full-report", "--audit", "tsv"]),
            ("concat", _CLEAN + ["--mode", "concat", "--out-prefix", "{out}/concat", "--report", "{out}/concat.json"]),
            files=("kept.es", "kept.ca", "concat.es", "concat.ca", "concat.json"),
        ),
        True,
    ),
    "cli-stats": (_cli(("stats", ["stats", "--src", "{in}/corpus.es", "--tgt", "{in}/corpus.ca"])), False),
    "cli-langid-classify": (
        _cli(
            ("es", ["langid-classify", "--model", "{in}/model.lidm", "--file", "{in}/corpus.es"]),
            ("ca", ["langid-classify", "--model", "{in}/model.lidm", "--file", "{in}/corpus.ca"]),
        ),
        False,
    ),
}


def _canonical(text: str):
    """The JSON document in ``text`` without the manifest's ``created_unix``
    and the ``workers`` of a ``config_echo``, or None when ``text`` is not
    a JSON object."""
    if not text.startswith("{"):
        return None
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    payload.pop("created_unix", None)
    if isinstance(payload.get("config_echo"), dict):
        payload["config_echo"].pop("workers", None)
    # a report's own digest reads its paths and workers: it is hashed apart
    for stage in payload.get("stages", ()):
        for side in ("inputs", "outputs"):
            for path in stage.get(side, {}):
                if path.endswith(".json"):
                    stage[side][path] = "<report>"
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


def digests(outputs: dict, root: Path, out: Path) -> dict:
    """SHA-256 of each output, with the directories' paths replaced by
    ``<out>`` and ``<in>``, and JSON documents without ``created_unix`` or
    an echoed ``workers``."""
    result = {}
    for name, data in sorted(outputs.items()):
        text = data.decode("utf-8", "surrogateescape").replace(str(out), "<out>").replace(str(root), "<in>")
        canonical = _canonical(text)
        if canonical is not None:
            text = canonical
        result[name] = hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()
    return result


def run_case(name: str, root: Path, out: Path, workers: int, chunk) -> dict:
    """The digests of case ``name`` run with ``workers`` and every chunk
    constant at ``chunk`` (None for the defaults)."""
    run, _ = CASES[name]
    out.mkdir(parents=True)
    with patched_chunks(chunk):
        outputs = run(root, out, workers)
    return digests(outputs, root, out)


def variants(name: str) -> list:
    """``(workers, chunk)`` of every run of case ``name``."""
    _, reads_workers = CASES[name]
    return [(workers, chunk) for workers in ((1, 2) if reads_workers else (1,)) for chunk in (None, *CHUNK_SIZES)]


def main() -> int:
    model = train({lang: seed_lines(lang) for lang in ("es", "ca", "pt", "fr")})
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "in"
        root.mkdir()
        write_inputs(root, model)
        for name in CASES:
            runs = {
                (workers, chunk): run_case(name, root, Path(tmp) / "out" / f"{name}-{workers}-{chunk}", workers, chunk)
                for workers, chunk in variants(name)
            }
            first = runs[1, None]
            differ = [variant for variant, got in runs.items() if got != first]
            if differ:
                print(f"{name}: runs {differ} differ from the run with 1 worker and default chunks", file=sys.stderr)
                return 1
            golden[name] = first
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
