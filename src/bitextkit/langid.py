"""Trainable character-n-gram naive-Bayes language identifier.

Text is NFC-normalized, lowercased, and whitespace-collapsed before n-gram
extraction, so diacritic-bearing input produces stable features. The model
is a multinomial naive Bayes over the ``vocab_size`` most frequent n-grams
of the training seeds, with add-alpha smoothing and line-count priors.
Classification is deterministic: ties break by the model's language order.
Evidence is computed for many texts at once, by walking a trie of the
vocabulary (:class:`GramTrie`) one n-gram length at a time over every
text position. A text with no vocabulary n-gram has 0.0 evidence for
every language, so the priors alone classify it.

numpy is imported inside the functions that build arrays (the trie, the
evidence walk, training, and the model's save and load), not at module
level: the eval commands import this module through the CLI but never
touch a model, and numpy's import was about a third of their start-up.
"""

from __future__ import annotations

import struct
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from .corpus_io import atomic_write
from .exceptions import EmptySeed, InsufficientLanguages, ModelFormatError, VersionMismatch

if TYPE_CHECKING:
    import numpy as np

MAGIC = b"LIDM"
FORMAT_VERSION = 1

DEFAULT_NGRAM_RANGE = (1, 4)
DEFAULT_VOCAB_SIZE = 10_000
DEFAULT_ALPHA = 0.5


@dataclass(frozen=True, eq=False)
class LangIdModel:
    languages: tuple[str, ...]
    ngram_range: tuple[int, int]
    vocabulary: dict  # n-gram -> feature index
    log_likelihood: np.ndarray  # (n_languages, n_features)
    log_prior: np.ndarray  # (n_languages,)
    smoothing_alpha: float

    def __post_init__(self):
        self.log_likelihood.setflags(write=False)
        self.log_prior.setflags(write=False)

    @cached_property
    def trie(self) -> "GramTrie":
        """The vocabulary as a trie, built on first use."""
        return GramTrie(self.vocabulary, self.ngram_range, self.log_likelihood)


class GramTrie:
    """The vocabulary's n-grams as a trie over symbol ids, walked one
    n-gram length at a time over every position of many texts at once.

    Symbols number the sorted alphabet of the vocabulary's characters
    1..A; 0 stands for every other character and for the gap after each
    text, and leads to the dead node. A vocabulary gram is node
    ``feature + 1``, prefixes outside the vocabulary get the nodes after
    those, and the dead node comes last. ``trans[offset[node] + symbol]``
    is the node one symbol on; nodes shorter than the longest gram have a
    row of ``trans`` each, and all others share the dead row, so the dead
    node absorbs every symbol. ``weights[lang, node]`` is the node's
    log-likelihood, 0.0 for the root, prefix and dead nodes.
    """

    def __init__(self, vocabulary: Mapping[str, int], ngram_range: tuple[int, int], log_likelihood: np.ndarray):
        import numpy as np

        self.min_n, self.max_n = ngram_range
        self.n_features = len(vocabulary)
        grams = [gram for gram in vocabulary if self.min_n <= len(gram) <= self.max_n]
        node_of = {"": 0}
        node_of.update((gram, vocabulary[gram] + 1) for gram in grams)
        extra = self.n_features + 1
        for gram in grams:
            for k in range(1, len(gram)):
                if gram[:k] not in node_of:
                    node_of[gram[:k]] = extra
                    extra += 1
        self.dead = extra
        # symbol of each code point up to the alphabet's largest, then a 0
        # that every larger code point is clipped to
        alphabet = sorted({ord(ch) for gram in grams for ch in gram})
        self.lookup = np.zeros(max(alphabet, default=-1) + 2, dtype=np.int32)
        self.lookup[alphabet] = np.arange(1, len(alphabet) + 1)
        base = len(alphabet) + 1

        walked = np.fromiter((node for gram, node in node_of.items() if len(gram) < self.max_n), dtype=np.intp)
        size = (len(walked) + 1) * base
        self.offset = np.full(self.dead + 1, len(walked) * base, dtype=np.int32 if size < 2**31 else np.int64)
        self.offset[walked] = np.arange(len(walked)) * base
        self.trans = np.full(size, self.dead, dtype=np.int32)
        count = len(node_of) - 1
        child = np.fromiter(node_of.values(), dtype=np.int32, count=count + 1)[1:]
        parent = np.fromiter((node_of[gram[:-1]] for gram in node_of if gram), dtype=np.intp, count=count)
        last = np.fromiter((ord(gram[-1]) for gram in node_of if gram), dtype=np.intp, count=count)
        self.trans[self.offset[parent] + self.lookup[last]] = child
        self.weights = np.zeros((len(log_likelihood), self.dead + 1))
        self.weights[:, 1 : self.n_features + 1] = log_likelihood

    def _symbols(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The texts' symbols laid end to end, each text followed by a 0,
        then ``max_n - 1`` symbols of padding, and the span of each text
        with its 0. Every walk reaches a 0, and with it the dead node,
        before it reads the padding."""
        import numpy as np

        spans = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts)) + 1
        codes = np.frombuffer(("\0".join(texts) + "\0" * self.max_n).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        syms = self.lookup[np.minimum(codes, len(self.lookup) - 1)]
        syms[np.cumsum(spans) - 1] = 0  # where NUL is in the alphabet too
        return syms, spans

    def evidence(self, texts: Sequence[str], spaces: Optional[np.ndarray] = None) -> np.ndarray:
        """Summed log-likelihoods of the vocabulary n-grams of each text,
        ``(n_texts, n_languages)``; a text with none reads 0.0. With
        ``spaces``, only grams covering character ``spaces[i]`` of text i
        count.

        Each n-gram length is one step of every position's node, dead or
        not: a gram that is not in the vocabulary, or that misses the
        space, reads the dead node's 0.0. So each (text, language, length)
        sum adds the grams' log-likelihoods in position order, and exact
        zeros between them."""
        import numpy as np

        syms, spans = self._symbols(texts)
        size = int(spans.sum())
        text_at = np.repeat(np.arange(len(texts)), spans)
        gap = None
        if spaces is not None:
            # how far each position lies before its text's space
            gap = (np.cumsum(spans) - spans + spaces)[text_at] - np.arange(size)
        state = np.zeros(size, dtype=np.int32)
        sums = np.zeros((len(self.weights), len(texts)))
        for n in range(1, self.max_n + 1):
            state = self.trans[self.offset[state] + syms[n - 1 : n - 1 + size]]
            if n < self.min_n:
                continue
            node = state.astype(np.intp)
            if gap is not None:
                node[(gap < 0) | (gap >= n)] = self.dead
            for lang, row in enumerate(self.weights):
                sums[lang] += np.bincount(text_at, weights=row[node], minlength=len(texts))
        return sums.T


@dataclass(frozen=True)
class Prediction:
    lang: str
    log_posterior: float
    margin: float


def normalize_text(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).lower().split())


def _iter_ngrams(text: str, min_n: int, max_n: int) -> Iterator[str]:
    for n in range(min_n, max_n + 1):
        for i in range(len(text) - n + 1):
            yield text[i : i + n]


def train(
    seed_corpora: Mapping[str, Sequence[str]],
    ngram_range: tuple[int, int] = DEFAULT_NGRAM_RANGE,
    vocab_size: int = DEFAULT_VOCAB_SIZE,
    smoothing_alpha: float = DEFAULT_ALPHA,
) -> LangIdModel:
    """Train from per-language line collections.

    The vocabulary is the ``vocab_size`` character n-grams most frequent
    across all seeds (ties broken lexicographically); likelihoods are
    add-alpha multinomials over it; priors are proportional to each
    language's non-empty line count.
    """
    if len(seed_corpora) < 2:
        raise InsufficientLanguages(len(seed_corpora))
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be positive, got {vocab_size}")
    if smoothing_alpha <= 0:
        raise ValueError(f"smoothing_alpha must be positive, got {smoothing_alpha}")
    min_n, max_n = ngram_range
    if not (1 <= min_n <= max_n <= 255):  # the model format stores each bound in one byte
        raise ValueError(f"invalid ngram_range {ngram_range}")

    languages = tuple(seed_corpora)
    per_lang_counts: dict[str, dict] = {}
    line_counts: dict[str, int] = {}
    for lang in languages:
        counts: dict = {}
        lines = 0
        for line in seed_corpora[lang]:
            text = normalize_text(line)
            if not text:
                continue
            lines += 1
            for gram in _iter_ngrams(text, min_n, max_n):
                counts[gram] = counts.get(gram, 0) + 1
        if lines == 0:
            raise EmptySeed(lang)
        per_lang_counts[lang] = counts
        line_counts[lang] = lines

    total_counts: dict = {}
    for counts in per_lang_counts.values():
        for gram, count in counts.items():
            total_counts[gram] = total_counts.get(gram, 0) + count
    ranked = sorted(total_counts.items(), key=lambda item: (-item[1], item[0]))
    vocabulary = {gram: idx for idx, (gram, _) in enumerate(ranked[:vocab_size])}
    if not vocabulary:
        raise ValueError(f"seeds produced no n-grams for ngram_range {ngram_range}")

    import numpy as np

    n_langs = len(languages)
    n_feats = len(vocabulary)
    counts_matrix = np.zeros((n_langs, n_feats), dtype=np.float64)
    for row, lang in enumerate(languages):
        for gram, count in per_lang_counts[lang].items():
            idx = vocabulary.get(gram)
            if idx is not None:
                counts_matrix[row, idx] = count

    smoothed = counts_matrix + smoothing_alpha
    log_likelihood = np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))
    lines = np.array([line_counts[lang] for lang in languages], dtype=np.float64)
    log_prior = np.log(lines) - np.log(lines.sum())
    return LangIdModel(
        languages=languages,
        ngram_range=(min_n, max_n),
        vocabulary=vocabulary,
        log_likelihood=log_likelihood,
        log_prior=log_prior,
        smoothing_alpha=float(smoothing_alpha),
    )


def evidence(model: LangIdModel, texts: Sequence[str]) -> np.ndarray:
    """Per-language log-likelihood evidence of each already-normalized text,
    as an ``(n_texts, n_languages)`` matrix. A text with no vocabulary
    n-gram reads 0.0 in every column, so adding it to the priors leaves
    them as they are."""
    return model.trie.evidence(texts)


def boundary_evidence(model: LangIdModel, lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
    """Evidence of the n-grams that straddle the space joining each pair of
    normalized texts: exactly the grams of ``left + " " + right`` counted
    by neither side alone. Returned as by :func:`evidence`."""
    import numpy as np

    keep = model.ngram_range[1] - 1
    tails = [left[-keep:] if keep else "" for left in lefts]
    windows = [tail + " " + right[:keep] for tail, right in zip(tails, rights)]
    spaces = np.fromiter(map(len, tails), dtype=np.int32, count=len(tails))
    return model.trie.evidence(windows, spaces)


def _log_softmax(raw: np.ndarray) -> np.ndarray:
    import numpy as np

    peak = raw.max()
    return raw - (peak + np.log(np.exp(raw - peak).sum()))


def classify_lines(model: LangIdModel, texts: Sequence[str]) -> list[Prediction]:
    """``classify`` of each text, from one batched evidence walk over all."""
    ev = evidence(model, [normalize_text(text) for text in texts])
    predictions = []
    for raw in model.log_prior + ev:
        posterior = _log_softmax(raw).tolist()
        best = posterior.index(max(posterior))
        runner_up = max(posterior[:best] + posterior[best + 1 :], default=posterior[best])
        predictions.append(Prediction(model.languages[best], posterior[best], posterior[best] - runner_up))
    return predictions


def classify(model: LangIdModel, text: str) -> Prediction:
    """Most probable language; empty or fully out-of-vocabulary text falls
    back to the priors. Ties break by language order."""
    return classify_lines(model, [text])[0]


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def raw(self, data: bytes):
        self.parts.append(data)

    def pack(self, fmt: str, *values):
        self.parts.append(struct.pack("<" + fmt, *values))

    def string(self, text: str):
        data = text.encode("utf-8")
        self.pack("H", len(data))
        self.raw(data)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, size: int, what: str) -> bytes:
        if self.offset + size > len(self.data):
            raise ModelFormatError(self.offset, f"truncated while reading {what}")
        chunk = self.data[self.offset : self.offset + size]
        self.offset += size
        return chunk

    def unpack(self, fmt: str, what: str):
        fmt = "<" + fmt
        values = struct.unpack(fmt, self.take(struct.calcsize(fmt), what))
        return values[0] if len(values) == 1 else values

    def string(self, what: str) -> str:
        length = self.unpack("H", what + " length")
        raw = self.take(length, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(self.offset - length + exc.start, f"bad UTF-8 in {what}") from exc


def save_model(model: LangIdModel, path) -> None:
    """Write the versioned binary model format (magic ``LIDM``). The file
    is replaced whole, or not at all."""
    import numpy as np

    w = _Writer()
    w.raw(MAGIC)
    w.pack("B", FORMAT_VERSION)
    w.pack("H", len(model.languages))
    for lang in model.languages:
        w.string(lang)
    w.pack("BB", *model.ngram_range)
    w.pack("d", model.smoothing_alpha)
    inverse = sorted(model.vocabulary.items(), key=lambda item: item[1])
    w.pack("I", len(inverse))
    for gram, _ in inverse:
        w.string(gram)
    w.raw(np.ascontiguousarray(model.log_prior, dtype="<f8").tobytes())
    w.raw(np.ascontiguousarray(model.log_likelihood, dtype="<f8").tobytes())
    with atomic_write(path) as (fh,):
        fh.buffer.write(b"".join(w.parts))


def load_model(path) -> LangIdModel:
    """Read a model written by :func:`save_model`; the round trip is exact."""
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise ModelFormatError(0, "bad magic (not a LIDM model file)")
    version = r.unpack("B", "version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(version, FORMAT_VERSION)
    n_langs = r.unpack("H", "language count")
    languages = tuple(r.string("language code") for _ in range(n_langs))
    min_n, max_n = r.unpack("BB", "ngram range")
    alpha = r.unpack("d", "smoothing alpha")
    n_feats = r.unpack("I", "vocabulary size")
    vocabulary = {r.string("vocabulary entry"): idx for idx in range(n_feats)}
    prior_bytes = r.take(8 * n_langs, "log priors")
    log_prior = np.frombuffer(prior_bytes, dtype="<f8").astype(np.float64)
    lik_bytes = r.take(8 * n_langs * n_feats, "log likelihoods")
    log_likelihood = np.frombuffer(lik_bytes, dtype="<f8").astype(np.float64).reshape(n_langs, n_feats)
    if r.offset != len(data):
        raise ModelFormatError(r.offset, f"{len(data) - r.offset} trailing bytes")
    return LangIdModel(
        languages=languages,
        ngram_range=(min_n, max_n),
        vocabulary=vocabulary,
        log_likelihood=log_likelihood,
        log_prior=log_prior,
        smoothing_alpha=alpha,
    )
