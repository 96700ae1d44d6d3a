"""
Reading, writing, and measuring parallel corpora
================================================

A bitext lives in two line-aligned files (or one TSV). This demo writes a
tiny Spanish-Catalan corpus, reads it back, and computes sentence/word
counts and type-token ratios.
"""

import tempfile
from pathlib import Path

from bitextkit import SentencePair, corpus_stats, read_parallel, write_parallel

pairs = [
    SentencePair(0, "El gato duerme en la cocina.", "El gat dorm a la cuina.", "es", "ca"),
    SentencePair(1, "La reunión empezó tarde.", "La reunió va començar tard.", "es", "ca"),
    SentencePair(2, "Compramos pan y queso.", "Vam comprar pa i formatge.", "es", "ca"),
]

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    write_parallel(pairs, workdir / "demo.es", workdir / "demo.ca")
    print("wrote", workdir / "demo.es", "and", workdir / "demo.ca")

    # reading streams the pairs back in order, with consecutive indices
    again = list(read_parallel(workdir / "demo.es", workdir / "demo.ca", "es", "ca"))
    assert again == pairs
    print("round-trip intact:", len(again), "pairs")

    # corpus statistics: whitespace-delimited words, corpus-global TTR
    stats = corpus_stats(again)
    print("sentences:", stats.sentence_count)
    print("words (es / ca):", stats.word_count_source, "/", stats.word_count_target)
    print("TTR (es / ca):  %.3f / %.3f" % (stats.ttr_source, stats.ttr_target))
