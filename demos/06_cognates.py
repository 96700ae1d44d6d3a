"""
Cognate extraction and preservation
===================================

Closely related languages share many cognates: word pairs within a small
normalized edit distance. Extracting them from a source/reference bitext
and checking whether a system translation keeps the reference-side form
quantifies how well a model handles shared vocabulary.
"""

from bitextkit import SentencePair
from bitextkit.cognates import count_examined, extract_cognates, preservation
from bitextkit.editdist import levenshtein

print("levenshtein('contribució', 'contribución') =", levenshtein("contribució", "contribución"))
print()

pairs = [
    SentencePair(0, "el fons s'ha de mobilitzar per aportar una contribució financera",
                 "el fondo debe movilizarse para aportar una contribución financiera", "ca", "es"),
    SentencePair(1, "la situació econòmica va millorar durant el segon trimestre",
                 "la situación económica mejoró durante el segundo trimestre", "ca", "es"),
    SentencePair(2, "els resultats de l'avaluació es publicaran al desembre",
                 "los resultados de la evaluación se publicarán en diciembre", "ca", "es"),
]

cognates = extract_cognates(pairs, threshold=0.3, min_len=4)
print(f"{len(cognates)} cognates among {count_examined(pairs)} candidate source words:")
for c in cognates:
    print(f"  [{c.source_sentence_index}] {c.source_word:14s} ~ {c.target_word:14s} "
          f"d={c.distance} nd={c.normalized_distance:.2f}")

# a system output that dropped two cognate words
system = [
    "el fondo debe movilizarse para aportar una ayuda monetaria".split(),
    "la situación económica mejoró durante el segundo trimestre".split(),
    "los resultados de la evaluación se publicarán en diciembre".split(),
]
report = preservation(cognates, system, threshold=0.3, examined=count_examined(pairs))
print()
print(f"preserved {report.preserved}/{report.cognate_pairs} "
      f"-> preservation rate {report.preservation_rate:.2f}")
