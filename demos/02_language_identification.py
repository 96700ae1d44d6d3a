"""
Training and using the character-n-gram language identifier
===========================================================

The classifier is a multinomial naive Bayes over character 1-4-grams.
Trained on the bundled es/ca/pt/fr seed corpora it separates these
Romance languages well enough to audit corpus quality, including the
classic failure mode of a "Catalan" line that is actually Spanish.
"""

import tempfile
from importlib import resources
from pathlib import Path

from bitextkit.langid import classify, load_model, save_model, train

seeds = {}
for lang in ("es", "ca", "pt", "fr"):
    text = resources.files("bitextkit").joinpath(f"data/seeds/{lang}.txt").read_text(encoding="utf-8")
    seeds[lang] = text.splitlines()
    print(f"seed {lang}: {len(seeds[lang])} lines")

model = train(seeds)
print("vocabulary:", len(model.vocabulary), "n-grams, languages:", model.languages)

probes = [
    "La sombra del caudillo",            # looks Catalan in a ca corpus, is Spanish
    "L'aigua de l'estany és freda",
    "O comboio chega às oito da manhã",
    "Le facteur passe toujours à midi",
]
for text in probes:
    pred = classify(model, text)
    print(f"{pred.lang}  margin={pred.margin:6.2f}  {text}")

# models serialize to a compact versioned binary format
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "romance.lidm"
    save_model(model, path)
    reloaded = load_model(path)
    assert classify(reloaded, probes[0]) == classify(model, probes[0])
    print("saved and reloaded:", path, f"({path.stat().st_size} bytes)")
