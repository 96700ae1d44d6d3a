"""Trainable character-n-gram naive-Bayes language identifier.

Text is NFC-normalized, lowercased, and whitespace-collapsed before n-gram
extraction, so diacritic-bearing input produces stable features. The model
is a multinomial naive Bayes over the ``vocab_size`` most frequent n-grams
of the training seeds, with add-alpha smoothing and line-count priors.
Classification is deterministic: ties break by the model's language order.
"""

from __future__ import annotations

import struct
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .corpus_io import SentencePair
from .exceptions import EmptySeed, InsufficientLanguages, ModelFormatError, VersionMismatch

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
    if not (1 <= min_n <= max_n):
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


def _evidence_from_counts(model: LangIdModel, counts: Counter) -> Optional[np.ndarray]:
    lookup = model.vocabulary.get
    idx_list = []
    cnt_list = []
    for gram, count in counts.items():
        idx = lookup(gram)
        if idx is not None:
            idx_list.append(idx)
            cnt_list.append(count)
    if not idx_list:
        return None
    idx = np.array(idx_list, dtype=np.intp)
    cnt = np.array(cnt_list, dtype=np.float64)
    return model.log_likelihood[:, idx] @ cnt


def evidence(model: LangIdModel, normalized: str) -> Optional[np.ndarray]:
    """Per-language log-likelihood evidence of already-normalized text;
    None when no n-gram hits the vocabulary."""
    min_n, max_n = model.ngram_range
    length = len(normalized)
    counts: Counter = Counter()
    for n in range(min_n, max_n + 1):
        counts.update([normalized[i : i + n] for i in range(length - n + 1)])
    return _evidence_from_counts(model, counts)


def boundary_evidence(model: LangIdModel, left: str, right: str) -> Optional[np.ndarray]:
    """Evidence of the n-grams that straddle the space joining two
    normalized texts: exactly the grams of ``left + " " + right`` counted
    by neither side alone."""
    min_n, max_n = model.ngram_range
    tail = left[-(max_n - 1) :] if max_n > 1 else ""
    head = right[: max_n - 1] if max_n > 1 else ""
    window = tail + " " + head
    space_at = len(tail)
    counts: Counter = Counter()
    for n in range(min_n, max_n + 1):
        start = max(0, space_at - n + 1)
        stop = min(space_at, len(window) - n)
        counts.update([window[i : i + n] for i in range(start, stop + 1)])
    return _evidence_from_counts(model, counts)


def scores(model: LangIdModel, text: str) -> np.ndarray:
    """Unnormalized per-language log scores (prior + likelihood evidence)."""
    ev = evidence(model, normalize_text(text))
    if ev is None:
        return model.log_prior.copy()
    return model.log_prior + ev


def log_posteriors(model: LangIdModel, text: str) -> np.ndarray:
    """Log of the softmax-normalized per-language posterior."""
    raw = scores(model, text)
    peak = raw.max()
    return raw - (peak + np.log(np.exp(raw - peak).sum()))


def classify(model: LangIdModel, text: str) -> Prediction:
    """Most probable language; empty or fully out-of-vocabulary text falls
    back to the priors. Ties break by language order."""
    posterior = log_posteriors(model, text)
    best = int(np.argmax(posterior))
    runner_up = np.delete(posterior, best).max() if len(posterior) > 1 else posterior[best]
    return Prediction(
        lang=model.languages[best],
        log_posterior=float(posterior[best]),
        margin=float(posterior[best] - runner_up),
    )


def classify_pair_concat(model: LangIdModel, pair: SentencePair) -> Prediction:
    """Classify the space-joined concatenation of both sides of a pair."""
    return classify(model, pair.source + " " + pair.target)


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
    """Write the versioned binary model format (magic ``LIDM``)."""
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
    with open(path, "wb") as fh:
        fh.write(b"".join(w.parts))


def load_model(path) -> LangIdModel:
    """Read a model written by :func:`save_model`; the round trip is exact."""
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
