"""
Scoring translations with BLEU, RIBES, and TER
==============================================

BLEU counts clipped n-gram matches, RIBES rewards getting the word order
right, and TER counts the edits (including block shifts) needed to fix
the hypothesis. The three disagree in instructive ways: a word-order
error costs RIBES and TER more than BLEU's n-gram view suggests.
"""

import json

from bitextkit.metrics import bleu_sentence, score_corpus
from bitextkit.metrics.ribes import ribes
from bitextkit.metrics.ter import ter

reference = "el fondo debe movilizarse para aportar una contribución financiera".split()

candidates = {
    "perfect": list(reference),
    "one substitution": "el fondo puede movilizarse para aportar una contribución financiera".split(),
    "block moved": "para aportar una contribución financiera el fondo debe movilizarse".split(),
    "short": "el fondo debe movilizarse".split(),
}

for name, hyp in candidates.items():
    b = bleu_sentence(hyp, [reference], smoothing="add_one_on_zero")
    r = ribes(hyp, [reference])
    t = ter(hyp, [reference])
    print(f"{name:18s} BLEU {b.bleu:6.2f}   RIBES {r.ribes:5.3f}   TER {t.ter:5.3f} "
          f"(shifts={t.edits.shifts})")

# corpus-level report over several segments at once
hyps = [candidates["perfect"], candidates["one substitution"]]
refs = [[reference], [reference]]
report = score_corpus(hyps, refs)
print()
print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
