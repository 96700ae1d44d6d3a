"""Output checks: every figure the pipeline writes is compared with a
recount made here from the generated inputs, or with a property the method
must have. Nothing is compared with stored output. Each check function
returns a list of failures (empty when the output is right).

The recounts share no code with the package: words are counted by
whitespace splitting, BLEU by naive n-gram scans, word and character edit
distance by a full dynamic-programming table.
"""

from __future__ import annotations

import json
import math
import unicodedata
from pathlib import Path

TOL = 1e-9


def read_lines(path) -> list:
    data = Path(path).read_bytes().decode("utf-8")
    if not data:
        return []
    if not data.endswith("\n"):
        raise ValueError(f"{path}: last line has no LF")
    return data[:-1].split("\n")


def _report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


# ----------------------------------------------------------------- prep


def word_stats(sources: list, targets: list) -> dict:
    src_words = [w for line in sources for w in line.split()]
    tgt_words = [w for line in targets for w in line.split()]
    return {
        "sentence_count": len(sources),
        "word_count_source": len(src_words),
        "word_count_target": len(tgt_words),
        "ttr_source": len(set(src_words)) / len(src_words) if src_words else None,
        "ttr_target": len(set(tgt_words)) / len(tgt_words) if tgt_words else None,
    }


def _stats_differ(report: dict, expected: dict) -> list:
    bad = []
    for key, want in expected.items():
        got = report.get(key)
        if want is None or got is None:
            if got != want:
                bad.append(f"{key}: {got} != {want}")
        elif not _close(got, want):
            bad.append(f"{key}: {got} != {want}")
    return bad


def check_prep(out: Path, corpus: dict, src_lang: str, tgt_lang: str) -> list:
    sources, targets, labels = corpus["source"], corpus["target"], corpus["labels"]
    fails = []
    fails += [f"stats_before {m}" for m in _stats_differ(_report(out / "stats_before.json"), corpus["stats"])]

    report = _report(out / "cleaning_report.json")
    total, kept = report["total"], report["kept"]
    removed = report["removed_by_reason"]
    if total != len(sources) or kept + sum(removed.values()) != total:
        fails.append(f"cleaning tally: kept {kept} + removed {sum(removed.values())} vs total {total} of {len(sources)}")

    cleaned_src = read_lines(out / f"cleaned.{src_lang}")
    cleaned_tgt = read_lines(out / f"cleaned.{tgt_lang}")
    if len(cleaned_src) != kept or len(cleaned_tgt) != kept:
        fails.append(f"cleaned lines {len(cleaned_src)}/{len(cleaned_tgt)} != kept {kept}")
        return fails
    fails += [f"stats_after {m}" for m in _stats_differ(_report(out / "stats_after.json"), word_stats(cleaned_src, cleaned_tgt))]

    # in-order subsequence of the input
    at = 0
    for pair in zip(cleaned_src, cleaned_tgt):
        while at < len(sources) and (sources[at], targets[at]) != pair:
            at += 1
        if at == len(sources):
            fails.append("cleaned pairs are not an in-order subsequence of the input")
            break
        at += 1

    label_of = {(s, t): label for s, t, label in zip(sources, targets, labels)}
    kept_by_label: dict = {}
    for pair in zip(cleaned_src, cleaned_tgt):
        label = label_of.get(pair, "unknown")
        kept_by_label[label] = kept_by_label.get(label, 0) + 1
    n_by_label: dict = {}
    for label in labels:
        n_by_label[label] = n_by_label.get(label, 0) + 1
    if kept_by_label.get("empty", 0) or removed.get("EmptySide", 0) != n_by_label.get("empty", 0):
        fails.append(f"empty-side pairs: {kept_by_label.get('empty', 0)} kept, {removed.get('EmptySide', 0)} EmptySide of {n_by_label.get('empty', 0)}")
    if kept_by_label.get("identical", 0):
        fails.append(f"{kept_by_label['identical']} pairs with identical sides kept")
    if kept_by_label.get("unknown", 0):
        fails.append(f"{kept_by_label['unknown']} cleaned pairs not in the input")
    french = n_by_label.get("french", 0)
    if french and (french - kept_by_label.get("french", 0)) / french < 0.90:
        fails.append(f"French-target recall {(french - kept_by_label.get('french', 0)) / french:.3f} < 0.90")
    clean = n_by_label.get("clean", 0)
    if clean and (clean - kept_by_label.get("clean", 0)) / clean > 0.05:
        fails.append(f"clean pairs removed {(clean - kept_by_label.get('clean', 0)) / clean:.3f} > 0.05")

    tok_src = read_lines(out / f"tokenized.{src_lang}")
    tok_tgt = read_lines(out / f"tokenized.{tgt_lang}")
    if len(tok_src) != kept or len(tok_tgt) != kept:
        fails.append(f"tokenized lines {len(tok_src)}/{len(tok_tgt)} != kept {kept}")
    else:
        for tok, raw in zip(tok_src + tok_tgt, cleaned_src + cleaned_tgt):
            if "".join(tok.split()) != "".join(raw.split()):
                fails.append(f"tokenized line changes characters: {raw!r} -> {tok!r}")
                break
    return fails


# ----------------------------------------------------------------- eval


def _ngrams(tokens: list, n: int) -> list:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def bleu_recount(hyps: list, refs: list) -> dict:
    """Corpus BLEU (one reference per segment) by naive n-gram scans."""
    correct, total = [0] * 4, [0] * 4
    for hyp, ref in zip(hyps, refs):
        for n in range(1, 5):
            hyp_grams, ref_grams = _ngrams(hyp, n), _ngrams(ref, n)
            for gram in set(hyp_grams):
                correct[n - 1] += min(hyp_grams.count(gram), ref_grams.count(gram))
            total[n - 1] += len(hyp_grams)
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    precisions = [c / t if t else 0.0 for c, t in zip(correct, total)]
    bp = 1.0 if hyp_len >= ref_len else (math.exp(1 - ref_len / hyp_len) if hyp_len else 0.0)
    score = 0.0 if min(precisions) == 0 else 100 * bp * math.exp(sum(math.log(p) for p in precisions) / 4)
    return {"bleu": score, "precisions": precisions, "brevity_penalty": bp, "hyp_len": hyp_len, "ref_len": ref_len}


def edit_distance(a, b) -> int:
    """Levenshtein distance over sequences, full table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]), table[i - 1][j] + 1, table[i][j - 1] + 1
            )
    return table[len(a)][len(b)]


def cognate_recount(srcs: list, refs: list, threshold: float, min_len: int) -> tuple:
    """(words examined, cognate pairs): source words of at least ``min_len``
    characters against every reference word, case-folded and NFC-normalized,
    then matched one to one, greedily by ascending normalized distance."""
    examined = found = 0
    for src, ref in zip(srcs, refs):
        eligible = [(i, unicodedata.normalize("NFC", w).casefold()) for i, w in enumerate(src) if len(w) >= min_len]
        examined += len(eligible)
        targets = [unicodedata.normalize("NFC", w).casefold() for w in ref]
        candidates = []
        for i, a in eligible:
            for j, b in enumerate(targets):
                longest = max(len(a), len(b))
                # the distance is at least the length difference
                if abs(len(a) - len(b)) > threshold * longest:
                    continue
                nd = edit_distance(a, b) / longest
                if nd <= threshold:
                    candidates.append((nd, i, j))
        used_i, used_j = set(), set()
        for nd, i, j in sorted(candidates):
            if i not in used_i and j not in used_j:
                used_i.add(i)
                used_j.add(j)
                found += 1
    return examined, found


def eval_expectations(segments: list, threshold: float, min_len: int) -> dict:
    hyps = [s["hyp"] for s in segments]
    refs = [s["ref"] for s in segments]
    examined, cognates = cognate_recount([s["src"] for s in segments], refs, threshold, min_len)
    return {
        "bleu": bleu_recount(hyps, refs),
        "len_diff": sum(len(r) for r in refs) - sum(len(h) for h in hyps),
        "ref_words": sum(len(r) for r in refs),
        "word_edits": sum(edit_distance(h, r) for h, r in zip(hyps, refs)),
        "examined": examined,
        "cognates": cognates,
        "segments": len(segments),
    }


def check_eval(out: Path, expected: dict) -> list:
    fails = []
    score = _report(out / "score.json")
    bleu = expected["bleu"]
    for key in ("bleu", "brevity_penalty", "hyp_len", "ref_len"):
        if not _close(score[key], bleu[key]):
            fails.append(f"{key}: {score[key]} != recount {bleu[key]}")
    for n, (got, want) in enumerate(zip(score["precisions"], bleu["precisions"]), start=1):
        if not _close(got, want):
            fails.append(f"{n}-gram precision: {got} != recount {want}")

    edits = score["edits"]
    total = edits["ins"] + edits["del"] + edits["sub"] + edits["shift"]
    if edits["ins"] - edits["del"] != expected["len_diff"]:
        fails.append(f"TER ins - del = {edits['ins'] - edits['del']} != {expected['len_diff']}")
    if total > expected["word_edits"]:
        fails.append(f"TER edits {total} exceed the word edit distance {expected['word_edits']}")
    if not _close(score["ter_ref_len"], expected["ref_words"]):
        fails.append(f"ter_ref_len {score['ter_ref_len']} != {expected['ref_words']}")
    if not _close(score["ter"], total / score["ter_ref_len"]):
        fails.append(f"ter {score['ter']} != edits / ter_ref_len")

    cognates = _report(out / "cognates.json")
    if cognates["pairs_examined"] != expected["examined"]:
        fails.append(f"pairs_examined {cognates['pairs_examined']} != recount {expected['examined']}")
    if cognates["cognate_pairs"] != expected["cognates"]:
        fails.append(f"cognate_pairs {cognates['cognate_pairs']} != recount {expected['cognates']}")
    if cognates["preserved"] > cognates["cognate_pairs"]:
        fails.append(f"preserved {cognates['preserved']} > cognate_pairs {cognates['cognate_pairs']}")
    if len(read_lines(out / "detokenized.hyp")) != expected["segments"]:
        fails.append("detokenized.hyp line count != segments")
    return fails
