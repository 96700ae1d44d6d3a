"""Command-line interface: every pipeline stage as a subcommand.

Exit codes: 0 on success, 1 on configuration/validation errors, 2 on a
runtime stage failure, including an input or output the command cannot
read or write. All options can also be set through environment variables
prefixed ``BITEXTKIT_``.
"""

from __future__ import annotations

import json
import sys
from contextlib import closing, nullcontext
from typing import Iterable

import click

from . import __version__
from .cleaner import MODES, CleaningReport, audit_table, clean_chunks, report_body
from .corpus_io import (
    _CHUNK,
    atomic_write,
    batched,
    corpus_stats,
    count_lines,
    decode_lines,
    parallel_writer,
    read_lines,
    read_parallel,
    read_tsv,
)
from .evaluation import cognate_report
from .exceptions import BitextError, LineCountMismatch
from .langid import classify_lines, load_model, save_model, train
from .metrics import score_report
from .pipeline import dump_json, run_pipeline, validate_config, with_provenance
from .tokenizer import detokenize, resolve_rules, tokenize_joined


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _echo_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


class _Cli(click.Group):
    """Reports a runtime failure of any subcommand as ``error: <message>``
    with exit 2; a broken stdout pipe keeps click's own handling."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (BitextError, OSError) as exc:
            _fail(str(exc), 2)


@click.group(cls=_Cli)
@click.version_option(version=__version__)
def cli():
    """Parallel-corpus cleaning and MT evaluation toolkit."""


@cli.command()
@click.option("--src", "src_path", type=click.Path(exists=True, dir_okay=False), help="Source-side file.")
@click.option("--tgt", "tgt_path", type=click.Path(exists=True, dir_okay=False), help="Target-side file.")
@click.option("--tsv", "tsv_path", type=click.Path(exists=True, dir_okay=False), help="Single TSV corpus instead of --src/--tgt.")
def stats(src_path, tgt_path, tsv_path):
    """Sentence/word counts and type-token ratios of a corpus."""
    if tsv_path and (src_path or tgt_path):
        _fail("give either --tsv or --src and --tgt, not both", 1)
    if tsv_path:
        pairs = read_tsv(tsv_path, "src", "tgt")
    elif src_path and tgt_path:
        pairs = read_parallel(src_path, tgt_path, "src", "tgt")
    else:
        _fail("provide --tsv or both --src and --tgt", 1)
    result = corpus_stats(pairs)
    _echo_json(with_provenance(result.to_dict(), {"src": src_path, "tgt": tgt_path, "tsv": tsv_path}))


def _parse_seed(args) -> dict:
    seeds = {}
    for item in args:
        if "=" not in item:
            _fail(f"--seed expects LANG=FILE, got {item!r}", 1)
        lang, _, path = item.partition("=")
        try:
            seeds[lang] = read_lines(path)
        except (OSError, BitextError) as exc:
            _fail(f"cannot read seed for {lang!r}: {exc}", 1)
    return seeds


@cli.command("langid-train")
@click.option("--seed", "seeds", multiple=True, required=True, help="LANG=FILE, one per language.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--ngram-min", default=1, show_default=True)
@click.option("--ngram-max", default=4, show_default=True)
@click.option("--vocab-size", default=10000, show_default=True)
@click.option("--alpha", default=0.5, show_default=True)
def langid_train(seeds, out_path, ngram_min, ngram_max, vocab_size, alpha):
    """Train a character-n-gram language identifier from seed corpora."""
    corpus = _parse_seed(seeds)
    try:
        model = train(corpus, ngram_range=(ngram_min, ngram_max), vocab_size=vocab_size, smoothing_alpha=alpha)
        save_model(model, out_path)
    except (BitextError, ValueError) as exc:
        _fail(str(exc), 1)
    click.echo(f"trained {'/'.join(model.languages)} model with {len(model.vocabulary)} features -> {out_path}", err=True)


@cli.command("langid-classify")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--file", "input_path", type=click.File("rb"), default="-", help="Input lines (default stdin).")
def langid_classify(model_path, input_path):
    """Classify lines; emits TSV: text, predicted language, margin."""
    model = load_model(model_path)
    for texts in batched(decode_lines(input_path), _CHUNK):
        for text, prediction in zip(texts, classify_lines(model, texts)):
            click.echo(f"{text}\t{prediction.lang}\t{prediction.margin:.6f}")


@cli.command("clean")
@click.option("--src", "src_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tgt", "tgt_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--src-lang", required=True)
@click.option("--tgt-lang", required=True)
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(MODES), default="both", show_default=True)
@click.option("--out-prefix", required=True, help="Kept pairs go to PREFIX.<src-lang> / PREFIX.<tgt-lang>.")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), help="Write the JSON cleaning report here.")
@click.option("--full-report", is_flag=True, help="Include every per-pair decision in the report.")
@click.option("--audit", type=click.Choice(["tsv", "text"]), help="Print a removed-pairs audit table to stderr.")
@click.option("--no-clean", is_flag=True, help="Pass-through: keep everything (policy escape hatch for tiny corpora).")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
def clean_cmd(src_path, tgt_path, src_lang, tgt_lang, model_path, mode, out_prefix, report_path, full_report, audit, no_clean, workers):
    """Remove noisy pairs using language identification."""
    if src_lang == tgt_lang:
        _fail("--src-lang and --tgt-lang must differ", 1)
    if not no_clean and not model_path:
        _fail("--model is required unless --no-clean is given", 1)
    out_src = f"{out_prefix}.{src_lang}"
    out_tgt = f"{out_prefix}.{tgt_lang}"
    pairs = read_parallel(src_path, tgt_path, src_lang, tgt_lang)
    total = count_lines(src_path)
    model = None if no_clean else load_model(model_path)
    decided = clean_chunks(batched(pairs, _CHUNK), total, model, mode, workers)
    report = CleaningReport(0, 0, {}, [] if full_report and not no_clean else None)
    removed: tuple[list, list] = ([], [])
    # closed on an error too, so that a worker pool ends with the pass
    with parallel_writer(out_src, out_tgt) as write, closing(decided):
        for chunk, decisions in decided:
            write(report.add(chunk, decisions))
            if audit:
                for pair, decision in zip(chunk, decisions):
                    if not decision.keep:
                        removed[0].append(decision)
                        removed[1].append(pair)
    if audit and not no_clean:
        click.echo(audit_table(*removed, fmt=audit), err=True)
    payload = with_provenance(
        report_body(report, model),
        {
            "src": src_path,
            "tgt": tgt_path,
            "src_lang": src_lang,
            "tgt_lang": tgt_lang,
            "mode": mode if not no_clean else "no-clean",
            "workers": workers,
        },
    )
    if report_path:
        dump_json(report_path, payload)
    else:
        _echo_json(payload)
    click.echo(f"kept {report.kept}/{report.total} pairs -> {out_src}, {out_tgt}", err=True)


def _write_lines(output_path: str, lines: Iterable[str]) -> None:
    """Write lines to standard output for ``-``, else to a file that
    appears whole or not at all."""
    if output_path == "-":
        out = click.get_text_stream("stdout", encoding="utf-8")
        context = nullcontext((out,))
    else:
        context = atomic_write(output_path)
    with context as (fh,):
        for line in lines:
            fh.write(line + "\n")


@cli.command("tokenize")
@click.option("--lang", required=True)
@click.option("--fallback-of", "fallback_of", default=None, help="Paired language whose rules apply when --lang is unsupported.")
@click.option("--aggressive-hyphen", is_flag=True)
@click.option("--input", "input_file", type=click.File("rb"), default="-")
@click.option("--output", "output_path", type=click.Path(dir_okay=False, allow_dash=True), default="-")
def tokenize_cmd(lang, fallback_of, aggressive_hyphen, input_file, output_path):
    """Tokenize lines (stdin to stdout by default)."""
    rules = resolve_rules(lang, fallback_of, aggressive_hyphen=aggressive_hyphen)
    chunks = batched(decode_lines(input_file), _CHUNK)
    _write_lines(output_path, (line for chunk in chunks for line in tokenize_joined(chunk, rules)))


@cli.command("detokenize")
@click.option("--lang", required=True)
@click.option("--fallback-of", "fallback_of", default=None)
@click.option("--input", "input_file", type=click.File("rb"), default="-")
@click.option("--output", "output_path", type=click.Path(dir_okay=False, allow_dash=True), default="-")
def detokenize_cmd(lang, fallback_of, input_file, output_path):
    """Reverse Moses-style tokenization (stdin to stdout by default)."""
    rules = resolve_rules(lang, fallback_of)
    _write_lines(output_path, (detokenize(text.split(), rules) for text in decode_lines(input_file)))


@cli.command("score")
@click.option("--hyp", "hyp_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--ref", "ref_paths", multiple=True, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--lang", required=True, help="Language whose tokenizer rules apply before scoring.")
@click.option("--tokenized", is_flag=True, help="Inputs are already tokenized; split on whitespace only.")
@click.option("--lowercase", is_flag=True, help="Case-insensitive scoring.")
def score_cmd(hyp_path, ref_paths, lang, tokenized, lowercase):
    """BLEU, RIBES, and TER of a hypothesis file against reference files."""
    report = score_report(hyp_path, list(ref_paths), lang=lang, tokenized_input=tokenized, lowercase=lowercase)
    _echo_json(
        with_provenance(
            report.to_dict(),
            {"hyp": hyp_path, "refs": list(ref_paths), "lang": lang, "tokenized": tokenized, "lowercase": lowercase},
        )
    )
    click.echo(report.summary(), err=True)


@cli.command("cognates")
@click.option("--src", "src_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--ref", "ref_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--sys", "sys_path", type=click.Path(exists=True, dir_okay=False), help="System output to measure preservation on.")
@click.option("--threshold", type=click.FloatRange(0, 1, min_open=True), default=0.3, show_default=True)
@click.option("--min-len", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--dump", "dump_path", type=click.Path(dir_okay=False), help="Also write extracted pairs as TSV here.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
def cognates_cmd(src_path, ref_path, sys_path, threshold, min_len, dump_path, workers):
    """Extract cognates between source and reference; optionally measure
    how many a system output preserves. Inputs must be tokenized."""
    pairs = list(read_parallel(src_path, ref_path, "src", "ref"))
    sys_tokens = [line.split() for line in read_lines(sys_path)] if sys_path else None
    if sys_tokens is not None and len(sys_tokens) != len(pairs):
        raise LineCountMismatch(len(sys_tokens), len(pairs), context=f"{sys_path} / {ref_path}")
    found, body = cognate_report(pairs, sys_tokens, threshold, min_len, workers)
    if dump_path:
        with atomic_write(dump_path) as (fh,):
            fh.write("sentence\tsource_word\ttarget_word\tdistance\tnormalized_distance\tsource_position\ttarget_position\n")
            for c in found:
                fh.write(
                    f"{c.source_sentence_index}\t{c.source_word}\t{c.target_word}\t{c.distance}"
                    f"\t{c.normalized_distance:.6f}\t{c.source_position}\t{c.target_position}\n"
                )
    _echo_json(
        with_provenance(body, {"src": src_path, "ref": ref_path, "sys": sys_path, "threshold": threshold, "min_len": min_len})
    )


@cli.command("pipeline")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), help="key = value config file.")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE", help="Override a config key (wins over file and env).")
def pipeline_cmd(config_path, overrides):
    """Run the full prep or eval pipeline from a config file."""
    override_map = {}
    for item in overrides:
        if "=" not in item:
            _fail(f"--set expects KEY=VALUE, got {item!r}", 1)
        key, _, value = item.partition("=")
        override_map[key.strip()] = value.strip()
    try:
        config, errors = validate_config(config_path, overrides=override_map)
    except BitextError as exc:
        _fail(str(exc), 1)
    if errors:
        for err in errors:
            click.echo(f"config error: {err}", err=True)
        sys.exit(1)
    run_pipeline(config)
    click.echo(f"pipeline complete -> {config.out_dir}", err=True)


def main():
    cli(auto_envvar_prefix="BITEXTKIT")


if __name__ == "__main__":
    main()
