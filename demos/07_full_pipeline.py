"""
The end-to-end pipeline
=======================

The ``prep`` task takes a raw training bitext through stats -> clean ->
tokenize; the ``eval`` task takes tokenized system output through
detokenize -> score -> cognates. Both are driven by a flat key = value
config file, write one JSON report per stage, and finish with a manifest
of input/output hashes. The same machinery backs the ``bitextkit
pipeline`` subcommand.
"""

import json
import tempfile
from importlib import resources
from pathlib import Path

from bitextkit import SentencePair, write_parallel
from bitextkit.langid import save_model, train
from bitextkit.pipeline import run_pipeline, validate_config

with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)

    # a tiny corpus: three good pairs and one copied-source pair
    rows = [
        ("El gobierno anunció nuevas medidas económicas.", "El govern va anunciar noves mesures econòmiques."),
        ("La biblioteca cierra a mediodía los sábados.", "La biblioteca tanca al migdia els dissabtes."),
        ("El viento del norte trajo nieve a la sierra.", "El vent del nord va portar neu a la serra."),
        ("Los precios subieron este verano.", "Los precios subieron este verano."),
    ]
    pairs = [SentencePair(i, s, t, "es", "ca") for i, (s, t) in enumerate(rows)]
    write_parallel(pairs, work / "corpus.es", work / "corpus.ca")

    seeds = {
        lang: resources.files("bitextkit").joinpath(f"data/seeds/{lang}.txt").read_text(encoding="utf-8").splitlines()
        for lang in ("es", "ca", "pt", "fr")
    }
    save_model(train(seeds), work / "model.lidm")

    (work / "prep.cfg").write_text(
        "# training-data preparation\n"
        "task = prep\n"
        "src_lang = es\n"
        "tgt_lang = ca\n"
        f"source = {work / 'corpus.es'}\n"
        f"target = {work / 'corpus.ca'}\n"
        f"model = {work / 'model.lidm'}\n"
        f"out_dir = {work / 'out'}\n",
        encoding="utf-8",
    )

    config, errors = validate_config(work / "prep.cfg")
    assert not errors, errors
    run_pipeline(config)

    out = work / "out"
    print("artifacts:", sorted(p.name for p in out.iterdir()))
    cleaning = json.loads((out / "cleaning_report.json").read_text(encoding="utf-8"))
    print("cleaning:", cleaning["kept"], "kept of", cleaning["total"], "|", cleaning["removed_by_reason"])
    print("tokenized sample:", (out / "tokenized.ca").read_text(encoding="utf-8").splitlines()[0])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    print("stages:", [s["name"] for s in manifest["stages"]])
