"""Independent brute-force reference implementations used to check the
library. These deliberately share no code with the package: n-grams are
counted by naive list scans, edit distance by a full DP matrix (TER's
greedy shift search rescores every candidate with one), rank correlation
by all-pairs counting, RIBES alignment by rescanning both sides for every
context window, Levenshtein by plain recursion, langid evidence by a
Counter of each text's n-gram strings, one pair at a time, Moses
tokenization by every rule pass over one padded line at a time,
detokenization by searching the whole text built so far, corpus
statistics by splitting one pair at a time, a UTF-8 stream by decoding one
line at a time, and a parallel corpus by writing one pair at a time.

The cognate oracles are the exception: they call the package's
``levenshtein`` (itself checked against the DP matrix here) on every word
pair, one sentence at a time, and build its ``CognatePair`` and
``CognateReport``, so that what they check is the pruning and chunking.
So are the compacted and the bincount langid walks: they walk the
package's ``GramTrie``, so that what they check is how the package walks
it.
"""

import math
import unicodedata
from collections import Counter

import numpy as np
import regex


def count_ngram(tokens, gram):
    n = len(gram)
    return sum(1 for i in range(len(tokens) - n + 1) if tuple(tokens[i : i + n]) == gram)


def bleu_brute(hypotheses, references):
    """(bleu, precisions, bp) by direct application of the corpus definition."""
    correct = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hypotheses, references):
        hyp_len += len(hyp)
        best = None
        for ref in refs:
            diff = abs(len(ref) - len(hyp))
            if best is None or diff < best[0] or (diff == best[0] and len(ref) < best[1]):
                best = (diff, len(ref))
        ref_len += best[1]
        for n in range(1, 5):
            seen = set()
            for i in range(len(hyp) - n + 1):
                gram = tuple(hyp[i : i + n])
                if gram in seen:
                    continue
                seen.add(gram)
                h_count = count_ngram(hyp, gram)
                r_count = max((count_ngram(ref, gram) for ref in refs), default=0)
                correct[n - 1] += min(h_count, r_count)
                total[n - 1] += h_count
    precisions = [(c / t if t else 0.0) for c, t in zip(correct, total)]
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        return 0.0, precisions, bp
    return 100.0 * bp * math.exp(sum(map(math.log, precisions)) / 4.0), precisions, bp


def _edit_table(hyp, ref):
    n, m = len(hyp), len(ref)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            table[i][j] = min(
                table[i - 1][j - 1] + (0 if hyp[i - 1] == ref[j - 1] else 1),
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
            )
    return table


def edit_distance_matrix(hyp, ref):
    """Word-level edit distance with a full DP matrix."""
    return _edit_table(hyp, ref)[len(hyp)][len(ref)]


def _span_positions(ref, span):
    n = len(span)
    return [k for k in range(len(ref) - n + 1) if list(ref[k : k + n]) == list(span)]


def _best_shift(hyp, ref, max_shift_size):
    """Every candidate shift scored by a full DP of its own."""
    best_dist = None
    best_hyp = None
    seen = {tuple(hyp)}
    for start in range(len(hyp)):
        for size in range(1, min(max_shift_size, len(hyp) - start) + 1):
            span = hyp[start : start + size]
            if not _span_positions(ref, span):
                continue
            remainder = hyp[:start] + hyp[start + size :]
            for k in _span_positions(ref, span):
                dest = min(k, len(remainder))
                candidate = remainder[:dest] + span + remainder[dest:]
                key = tuple(candidate)
                if key in seen:
                    continue
                seen.add(key)
                dist = edit_distance_matrix(candidate, ref)
                if best_dist is None or dist < best_dist:
                    best_dist = dist
                    best_hyp = candidate
    if best_hyp is None:
        return None
    return best_dist, best_hyp


def ter_edits_greedy(hyp, ref, max_shift_size):
    """(insertions, deletions, substitutions, shifts) of tercom's greedy
    block-shift search: apply the best distance-reducing shift until none
    reduces it, then backtrace the final matrix preferring the diagonal,
    then a hypothesis deletion, then an insertion."""
    current = list(hyp)
    n_shifts = 0
    current_dist = edit_distance_matrix(current, ref)
    while current_dist > 0:
        found = _best_shift(current, ref, max_shift_size)
        if found is None or found[0] >= current_dist:
            break
        current_dist, current = found
        n_shifts += 1
    table = _edit_table(current, ref)
    ins = dels = subs = 0
    i, j = len(current), len(ref)
    while i > 0 or j > 0:
        mismatch = 0 if i == 0 or j == 0 or current[i - 1] == ref[j - 1] else 1
        if i > 0 and j > 0 and table[i][j] == table[i - 1][j - 1] + mismatch:
            subs += mismatch
            i, j = i - 1, j - 1
        elif i > 0 and table[i][j] == table[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return ins, dels, subs, n_shifts


def ascending_fraction(positions):
    """All-pairs ascending count over C(n, 2); 0.0 when n < 2."""
    n = len(positions)
    if n < 2:
        return 0.0
    ascending = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            if positions[i] < positions[j]:
                ascending += 1
    return ascending / (n * (n - 1) / 2)


def distinct_word_alignment(ref, hyp):
    """Reference ranks of hypothesis words when every word is unique."""
    return [ref.index(w) for w in hyp if w in ref]


def _occurrences(seq, gram):
    """Start positions of (possibly overlapping) occurrences of gram in seq."""
    n = len(gram)
    return [i for i in range(len(seq) - n + 1) if tuple(seq[i : i + n]) == gram]


def ribes_alignment_rescan(ref, hyp):
    """RIBES word alignment that rescans both sides for every context gram:
    a word unique to both sides aligns directly; otherwise windows grow one
    word at a time, left before right, until a gram is unique in both."""
    ref = list(ref)
    hyp = list(hyp)
    aligned = []
    for i, word in enumerate(hyp):
        ref_count = ref.count(word)
        if ref_count == 0:
            continue
        if ref_count == 1 and hyp.count(word) == 1:
            aligned.append(ref.index(word))
            continue
        for window in range(1, max(i + 1, len(hyp) - i)):
            if window <= i:
                gram = tuple(hyp[i - window : i + 1])
                in_ref = _occurrences(ref, gram)
                if len(in_ref) == 1 and len(_occurrences(hyp, gram)) == 1:
                    aligned.append(in_ref[0] + window)
                    break
            if i + window < len(hyp):
                gram = tuple(hyp[i : i + window + 1])
                in_ref = _occurrences(ref, gram)
                if len(in_ref) == 1 and len(_occurrences(hyp, gram)) == 1:
                    aligned.append(in_ref[0])
                    break
    return aligned


def levenshtein_recursive(a, b):
    """Exponential-time recursion; only usable for short strings."""

    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        cost = 0 if a[i] == b[j] else 1
        return min(go(i + 1, j + 1) + cost, go(i + 1, j) + 1, go(i, j + 1) + 1)

    return go(0, 0)


def _cognate_norm(word):
    return unicodedata.normalize("NFC", word).casefold()


def normalized_distance(a, b):
    """``levenshtein`` over the longer word's length; 0.0 for two empties."""
    from bitextkit.editdist import levenshtein

    longest = max(len(a), len(b))
    return levenshtein(a, b) / longest if longest else 0.0


def cognates_per_pair(pairs, threshold, min_len):
    """Cognates of tokenized pairs: ``levenshtein`` on every eligible source
    word x target word of each sentence, then one-to-one greedy matching by
    ascending ``(normalized distance, source position, target position)``."""
    from bitextkit.cognates import CognatePair
    from bitextkit.editdist import levenshtein

    cognates = []
    for pair in pairs:
        src_tokens = pair.source.split()
        tgt_tokens = pair.target.split()
        eligible = [i for i, tok in enumerate(src_tokens) if len(tok) >= min_len]
        if not eligible or not tgt_tokens:
            continue
        norm_tgt = [_cognate_norm(tok) for tok in tgt_tokens]
        candidates = []
        for i in eligible:
            src_norm = _cognate_norm(src_tokens[i])
            for j, tgt_norm in enumerate(norm_tgt):
                dist = levenshtein(src_norm, tgt_norm)
                nd = dist / max(len(src_norm), len(tgt_norm))
                if nd <= threshold:
                    candidates.append((nd, i, j, dist))
        candidates.sort()
        used_src, used_tgt, found = set(), set(), []
        for nd, i, j, dist in candidates:
            if i in used_src or j in used_tgt:
                continue
            used_src.add(i)
            used_tgt.add(j)
            found.append(CognatePair(src_tokens[i], tgt_tokens[j], dist, nd, pair.index, i, j))
        found.sort(key=lambda c: c.source_position)
        cognates.extend(found)
    return cognates


def cognate_dump(cognates):
    """The text that ``bitextkit cognates --dump`` writes for ``cognates``
    found in pairs numbered from 0."""
    header = "sentence\tsource_word\ttarget_word\tdistance\tnormalized_distance\tsource_position\ttarget_position\n"
    return header + "".join(
        f"{c.source_sentence_index}\t{c.source_word}\t{c.target_word}\t{c.distance}"
        f"\t{c.normalized_distance:.6f}\t{c.source_position}\t{c.target_position}\n"
        for c in cognates
    )


def preservation_per_token(cognates, system_output, threshold, examined=None):
    """The cognate report with ``normalized_distance`` against every system
    token of each cognate's sentence."""
    from bitextkit.cognates import CognateReport

    preserved = 0
    for cognate in cognates:
        target = _cognate_norm(cognate.target_word)
        tokens = [_cognate_norm(tok) for tok in system_output[cognate.source_sentence_index]]
        if any(normalized_distance(target, tok) <= threshold for tok in tokens):
            preserved += 1
    total = len(cognates)
    pool = examined if examined is not None else total
    return CognateReport(
        pairs_examined=pool,
        cognate_pairs=total,
        cognate_rate=(total / pool) if pool else 0.0,
        preserved=preserved,
        preservation_rate=(preserved / total) if total else 0.0,
        threshold=threshold,
    )


def _normalize(text):
    return " ".join(unicodedata.normalize("NFC", text).lower().split())


def _evidence_from_counts(model, counts):
    idx_list = []
    cnt_list = []
    for gram, count in counts.items():
        idx = model.vocabulary.get(gram)
        if idx is not None:
            idx_list.append(idx)
            cnt_list.append(count)
    if not idx_list:
        return None
    idx = np.array(idx_list, dtype=np.intp)
    cnt = np.array(cnt_list, dtype=np.float64)
    return model.log_likelihood[:, idx] @ cnt


def langid_evidence_counter(model, normalized):
    """Per-language evidence of one normalized text from a Counter of its
    n-gram strings; None when no n-gram is in the vocabulary."""
    min_n, max_n = model.ngram_range
    length = len(normalized)
    counts = Counter()
    for n in range(min_n, max_n + 1):
        counts.update([normalized[i : i + n] for i in range(length - n + 1)])
    return _evidence_from_counts(model, counts)


def langid_boundary_evidence_counter(model, left, right):
    """Evidence of the n-grams of ``left + " " + right`` that cover the
    joining space; None when none is in the vocabulary."""
    min_n, max_n = model.ngram_range
    tail = left[-(max_n - 1) :] if max_n > 1 else ""
    head = right[: max_n - 1] if max_n > 1 else ""
    window = tail + " " + head
    space_at = len(tail)
    counts = Counter()
    for n in range(min_n, max_n + 1):
        start = max(0, space_at - n + 1)
        stop = min(space_at, len(window) - n)
        counts.update([window[i : i + n] for i in range(start, stop + 1)])
    return _evidence_from_counts(model, counts)


def _trie_symbols_searched(trie, texts):
    """The texts' symbols laid end to end, each text followed by a 0, by a
    binary search of the trie's alphabet, and the span of each text with
    its 0."""
    alphabet = np.append(np.flatnonzero(trie.lookup), 0xFFFFFFFF).astype(np.uint32)
    spans = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts)) + 1
    codes = np.frombuffer(("\0".join(texts) + "\0").encode("utf-32-le", "surrogatepass"), dtype="<u4")
    at = np.searchsorted(alphabet, codes)
    syms = (at + 1).astype(np.int32)
    syms[alphabet[at] != codes] = 0
    syms[np.cumsum(spans) - 1] = 0
    syms[-1] = 0  # the final 0 of an empty list too, which no span ends at
    return syms, spans


def langid_walk_compacted(model, texts, spaces=None):
    """``GramTrie.evidence`` as a walk that keeps, after each n-gram length,
    only the positions still inside some vocabulary gram, and sums the
    log-likelihoods of the vocabulary grams it hits, in position order.
    Also returns the mask of the texts with any vocabulary gram."""
    trie = model.trie
    syms, spans = _trie_symbols_searched(trie, texts)
    text_at = np.repeat(np.arange(len(texts)), spans)
    pos = np.arange(len(syms), dtype=np.int32)
    reach = None
    if spaces is not None:
        space = (np.cumsum(spans) - spans + spaces)[text_at]
        pos = pos[pos <= space]
        reach = space[pos]
    state = np.zeros(len(pos), dtype=np.int32)
    sums = np.zeros((len(model.log_likelihood), len(texts)))
    has = np.zeros(len(texts), dtype=bool)
    for n in range(1, trie.max_n + 1):
        state = trie.trans[trie.offset[state] + syms[pos + (n - 1)]]
        alive = state != trie.dead
        pos, state = pos[alive], state[alive]
        if reach is not None:
            reach = reach[alive]
        if n >= trie.min_n:
            hit = state <= trie.n_features
            if reach is not None:
                hit &= pos + (n - 1) >= reach
            text_of = text_at[pos[hit]]
            feats = state[hit] - 1
            has[text_of] = True
            for lang, row in enumerate(model.log_likelihood):
                sums[lang] += np.bincount(text_of, weights=row[feats], minlength=len(texts))
    return sums.T, has


def langid_walk_bincount(model, texts, spaces=None):
    """``GramTrie.evidence`` as a walk over every position of the texts laid
    end to end, each followed by a 0, that sums each (text, language,
    length) with a weighted ``np.bincount`` by text."""
    trie = model.trie
    codes = np.frombuffer(("\0".join(texts) + "\0" * trie.max_n).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    syms = trie.lookup[np.minimum(codes, len(trie.lookup) - 1)]
    spans = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts)) + 1
    syms[np.cumsum(spans) - 1] = 0  # where NUL is in the alphabet too
    size = int(spans.sum())
    text_at = np.repeat(np.arange(len(texts)), spans)
    gap = None
    if spaces is not None:
        gap = (np.cumsum(spans) - spans + spaces)[text_at] - np.arange(size)
    state = np.zeros(size, dtype=np.intp)
    sums = np.zeros((len(trie.weights), len(texts)))
    for n in range(1, trie.max_n + 1):
        state = trie.trans[trie.offset[state] + syms[n - 1 : n - 1 + size]]
        if n < trie.min_n:
            continue
        node = state.astype(np.intp)
        if gap is not None:
            node[(gap < 0) | (gap >= n)] = trie.dead
        for lang, row in enumerate(trie.weights):
            sums[lang] += np.bincount(text_at, weights=row[node], minlength=len(texts))
    return sums.T


def langid_boundary_walk_bincount(model, lefts, rights):
    """``langid.boundary_evidence`` through ``langid_walk_bincount``."""
    keep = model.ngram_range[1] - 1
    tails = [left[-keep:] if keep else "" for left in lefts]
    windows = [tail + " " + right[:keep] for tail, right in zip(tails, rights)]
    spaces = np.fromiter(map(len, tails), dtype=np.int32, count=len(tails))
    return langid_walk_bincount(model, windows, spaces)


def langid_boundary_walk_compacted(model, lefts, rights):
    """``langid.boundary_evidence`` through ``langid_walk_compacted``."""
    keep = model.ngram_range[1] - 1
    tails = [left[-keep:] if keep else "" for left in lefts]
    windows = [tail + " " + right[:keep] for tail, right in zip(tails, rights)]
    spaces = np.fromiter(map(len, tails), dtype=np.int32, count=len(tails))
    return langid_walk_compacted(model, windows, spaces)


def clean_decide_counter(pair, model, mode):
    """One pair's cleaning decision as ``CleaningDecision.to_dict()`` would
    give it, and each (field, score vector) whose argmax set a predicted
    language, so that callers can spot near-ties."""
    decision = {
        "index": pair.index,
        "keep": False,
        "reason": "EmptySide",
        "predicted_source": None,
        "predicted_target": None,
        "predicted_concat": None,
    }
    if not pair.source.strip() or not pair.target.strip():
        return decision, []
    src_norm = _normalize(pair.source)
    tgt_norm = _normalize(pair.target)
    languages = model.languages
    ev_src = langid_evidence_counter(model, src_norm)
    ev_tgt = langid_evidence_counter(model, tgt_norm)
    argmaxed = []
    if mode in ("concat", "both"):
        concat_scores = model.log_prior.copy()
        for part in (ev_src, ev_tgt, langid_boundary_evidence_counter(model, src_norm, tgt_norm)):
            if part is not None:
                concat_scores = concat_scores + part
        argmaxed.append(("predicted_concat", concat_scores))
        decision["predicted_concat"] = languages[int(np.argmax(concat_scores))]
        if decision["predicted_concat"] not in (pair.src_lang, pair.tgt_lang):
            decision["reason"] = "ConcatLangMismatch"
            return decision, argmaxed
        if mode == "concat":
            decision.update(keep=True, reason="Kept")
            return decision, argmaxed
    prior = model.log_prior
    for side, ev in (("source", ev_src), ("target", ev_tgt)):
        side_scores = prior if ev is None else prior + ev
        argmaxed.append((f"predicted_{side}", side_scores))
        decision[f"predicted_{side}"] = languages[int(np.argmax(side_scores))]
    predicted_source, predicted_target = decision["predicted_source"], decision["predicted_target"]
    if predicted_source == predicted_target:
        decision["reason"] = "SameLanguagePredicted"
    elif predicted_source != pair.src_lang:
        decision["reason"] = "SourceLangMismatch"
    elif predicted_target != pair.tgt_lang:
        decision["reason"] = "TargetLangMismatch"
    else:
        decision.update(keep=True, reason="Kept")
    return decision, argmaxed


_ALPHA = r"\p{L}\p{M}"
_NUM = r"\p{N}"
_ALNUM = _ALPHA + _NUM
_JUNK = regex.compile("[\\x00-\\x1f\\x7f]")
_WS = regex.compile(r"\s+")
_SPECIALS = regex.compile(rf"([^{_ALNUM}\s.'`,\-])")
_AGGRESSIVE_HYPHEN = regex.compile(rf"([{_ALNUM}])-(?=[{_ALNUM}])")
_MULTIDOT = regex.compile(r"\.{2,}")
_COMMA_RULES = (
    (regex.compile(rf"([^{_NUM}]),"), r"\1 , "),
    (regex.compile(rf",([^{_NUM}])"), r" , \1"),
)
_APOS_RULES = {
    "right": (
        (regex.compile(rf"([^{_ALPHA}])'([^{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([^{_ALPHA}{_NUM}])'([{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([{_ALPHA}])'([^{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([{_ALPHA}])'([{_ALPHA}])"), r"\1 '\2"),
        (regex.compile(rf"([{_NUM}])'(s)"), r"\1 '\2"),
    ),
    "left": (
        (regex.compile(rf"([^{_ALPHA}])'([^{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([^{_ALPHA}])'([{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([{_ALPHA}])'([^{_ALPHA}])"), r"\1 ' \2"),
        (regex.compile(rf"([{_ALPHA}])'([{_ALPHA}])"), r"\1' \2"),
    ),
    "isolate": ((regex.compile(r"'"), r" ' "),),
}
_ENDS_WITH_PERIOD = regex.compile(r"^(\S+)\.$")
_HAS_ALPHA = regex.compile(rf"[{_ALPHA}]")
_STARTS_LOWER = regex.compile(r"^\p{Ll}")
_STARTS_DIGIT = regex.compile(rf"^[{_NUM}]")


def _handle_periods(words, rules):
    out = []
    last = len(words) - 1
    for i, word in enumerate(words):
        m = _ENDS_WITH_PERIOD.match(word)
        if m:
            stem = m.group(1)
            keep = (
                ("." in stem and _HAS_ALPHA.search(stem))
                or stem in rules.nonbreaking_prefixes
                or (i < last and _STARTS_LOWER.match(words[i + 1]))
                or (
                    stem in rules.numeric_only_prefixes
                    and i < last
                    and _STARTS_DIGIT.match(words[i + 1])
                )
            )
            if not keep:
                out.append(stem)
                out.append(".")
                continue
        out.append(word)
    return out


def tokenize_per_line(text, rules):
    """Moses-convention tokens of one line: every rule pass runs over that
    line alone, and periods are judged word by word."""
    text = unicodedata.normalize("NFC", text)
    text = _JUNK.sub("", text)
    text = " " + _WS.sub(" ", text).strip() + " "
    text = _SPECIALS.sub(r" \1 ", text)
    if rules.aggressive_hyphen:
        text = _AGGRESSIVE_HYPHEN.sub(r"\1 @-@ ", text)
    # a placeholder tag the line does not contain, so that only the words
    # written here are restored
    multidot_tag = "MULTIDOT"
    while multidot_tag in text:
        multidot_tag += "Q"
    text = _MULTIDOT.sub(lambda m: f" {multidot_tag}{len(m.group(0))} ", text)
    for pattern, repl in _COMMA_RULES:
        text = pattern.sub(repl, text)
    for pattern, repl in _APOS_RULES[rules.apostrophe_class]:
        text = pattern.sub(repl, text)

    tokens = _handle_periods(text.split(), rules)

    multidot_token = regex.compile(rf"^{multidot_tag}(\d+)$")
    restored = []
    for token in tokens:
        m = multidot_token.match(token)
        restored.append("." * int(m.group(1)) if m else token)
    return restored


_RIGHT_PUNCT = regex.compile(r"^[,.?!:;%…\\}\])»›]+$")
_LEFT_PUNCT = regex.compile(r"^[\[({«‹¿¡$]+$")
_EN_CONTRACTION = regex.compile(rf"^'[{_ALPHA}]")
_ENDS_ALNUM = regex.compile(rf"[{_ALNUM}]$")
_CLITIC_END = regex.compile(rf"[{_ALPHA}]'$")
_STARTS_ALPHA = regex.compile(rf"^[{_ALPHA}]")


def detokenize_whole_prefix(tokens, rules):
    """Moses-convention detokenization that searches the whole text built
    so far, once per token, for the alphanumeric or clitic it ends in."""
    text = ""
    pending = ""
    quote_parity = {}
    for token in tokens:
        attach_left = False
        no_space_after = False
        if _RIGHT_PUNCT.match(token):
            attach_left = True
        elif _LEFT_PUNCT.match(token):
            no_space_after = True
        elif token == "@-@":
            token = "-"
            attach_left = no_space_after = True
        elif token in ("'", '"'):
            count = quote_parity.get(token, 0)
            quote_parity[token] = count + 1
            if count % 2 == 0:
                no_space_after = True
            else:
                attach_left = True
        elif rules.apostrophe_class == "right" and _EN_CONTRACTION.match(token) and _ENDS_ALNUM.search(text):
            attach_left = True
        if rules.apostrophe_class == "left" and _CLITIC_END.search(text) and _STARTS_ALPHA.match(token):
            attach_left = True
        text += token if attach_left else pending + token
        pending = "" if no_space_after else " "
    return text


def stats_fold_per_pair(pairs):
    """Sentences, words of each side and word types of each side, counted
    one pair at a time."""
    sentences = words_src = words_tgt = 0
    types_src, types_tgt = set(), set()
    for pair in pairs:
        sentences += 1
        src, tgt = pair.source.split(), pair.target.split()
        words_src += len(src)
        words_tgt += len(tgt)
        types_src.update(src)
        types_tgt.update(tgt)
    return sentences, words_src, words_tgt, types_src, types_tgt


def decode_lines_per_line(stream):
    """Lines of a binary UTF-8 stream, read and decoded one line at a time:
    the LF and then one CR are stripped from each, and invalid UTF-8 raises
    EncodingError with the offset of the line plus the offset in it."""
    from bitextkit.exceptions import EncodingError

    offset = 0
    for raw in stream:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(getattr(stream, "name", "<stream>"), offset + exc.start, exc.reason) from exc
        offset += len(raw)
        if line.endswith("\n"):
            line = line[:-1]
        if line.endswith("\r"):
            line = line[:-1]
        yield line


def parallel_bytes_per_pair(pairs):
    """The two files' bytes that pairs are written as, one pair at a time,
    each pair checked before it is written: UnwritableField for the first
    side with an LF or a trailing CR."""
    from bitextkit.exceptions import UnwritableField

    source, target = [], []
    for pair in pairs:
        for side, text in (("source", pair.source), ("target", pair.target)):
            if "\n" in text:
                raise UnwritableField(pair.index, side, "contains a line feed")
            if text.endswith("\r"):
                raise UnwritableField(pair.index, side, "ends in a carriage return")
        source.append(pair.source + "\n")
        target.append(pair.target + "\n")
    return "".join(source).encode("utf-8"), "".join(target).encode("utf-8")
