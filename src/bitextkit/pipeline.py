"""Pipeline configuration and stage orchestration.

A config file is flat ``key = value`` text ('#' starts a comment). Values
resolve in order: defaults, file, ``BITEXTKIT_<KEY>`` environment
variables, explicit overrides (the command line). The ``prep`` task runs
stats -> clean -> stats -> tokenize over a training corpus in one streaming
pass: it reads the corpus once, in chunks of 128 pairs, and writes, counts
and tokenizes each chunk's kept pairs as the cleaner decides them. It
records ``stats_before`` as soon as the read ends, while the later
stages' writers are still open, so a ``stats_before`` failure leaves no
later stage's artifact. It holds a few chunks, the word types the
statistics count and the langid model,
never the corpus: with one worker its peak RSS was 40.1 MB at 16,000 pairs
and 40.5 MB at 96,000 (48.8 and 99.1 MB when prep held the corpus whole;
2 vCPU, Python 3.11). The ``eval`` task runs detokenize -> score ->
cognates over system output in one streaming pass too: it reads the
system output, references and sources in lockstep, 128 segments at a time,
and maps ``evaluation.eval_chunk`` over the chunks with ``workers``; each
chunk's lines are tokenized once and shared by scoring and cognates. The
parent writes the detokenized lines as they come and folds each segment's
scoring record and each chunk's cognate counts in segment order into
running totals, so it holds a few chunks, never the segments. With one
worker its peak RSS was 23.9, 24.1 and 24.4 MB at 500, 1,000 and 3,000
segments of ``eval-light``-shaped input (24.4, 25.9 and 32.1 MB when eval
held every segment). Every stage writes a JSON report stamped by
``with_provenance`` (tool version, effective config), as do the CLI
subcommands, which run the same stage bodies; a manifest records stage
order and input/output hashes. Every artifact is replaced whole, so a
failed stage leaves none half-written.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from . import __version__
from .cleaner import MODES, CleaningReport, clean_chunks, report_body
from .cognates import CognateReport
from .corpus_io import (
    _CHUNK,
    Lockstep,
    StatsFold,
    atomic_write,
    batched,
    count_lines,
    parallel_writer,
    read_lines,
    read_parallel,
)
from .evaluation import EvalSettings, eval_chunk
from .exceptions import BitextError, EmptyCorpus, LineCountMismatch
from .langid import load_model
from .metrics.report import ScoreFold
from .parallel import parallel_map
from .tokenizer import resolve_rules, tokenize_joined

ENV_PREFIX = "BITEXTKIT_"

_TASKS = ("prep", "eval")


class ConfigParseError(BitextError):
    def __init__(self, path, line: int, column: int, detail: str):
        self.path = path
        self.line = line
        self.column = column
        super().__init__(f"{path}:{line}:{column}: {detail}")


@dataclass
class PipelineConfig:
    task: str = "prep"
    src_lang: str = ""
    tgt_lang: str = ""
    out_dir: str = "."
    workers: int = 1
    # prep inputs
    source: str = ""
    target: str = ""
    model: str = ""
    clean_enabled: bool = True
    clean_mode: str = "both"
    # eval inputs
    hyp: str = ""
    ref: str = ""
    lowercase: bool = False
    cognate_threshold: float = 0.3
    cognate_min_len: int = 4

    def to_dict(self) -> dict:
        return asdict(self)


_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines; raises ConfigParseError with position."""
    values = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            col = len(line) - len(line.lstrip()) + 1
            raise ConfigParseError(path, lineno, col, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParseError(path, lineno, 1, "empty key")
        values[key] = value.strip()
    return values


def _coerce(key: str, raw: str, kind, errors: list):
    if kind is bool:
        flag = _BOOL_VALUES.get(raw.lower())
        if flag is None:
            errors.append(f"{key}: expected a boolean, got {raw!r}")
        return flag
    try:
        return kind(raw)
    except ValueError:
        errors.append(f"{key}: expected {kind.__name__}, got {raw!r}")
        return None


def validate_config(
    path=None,
    overrides: Optional[dict] = None,
    env: Optional[dict] = None,
) -> tuple[Optional[PipelineConfig], list]:
    """Build and check a PipelineConfig; returns (config, all_violations).

    The config is None whenever violations were found.
    """
    env = os.environ if env is None else env
    config = PipelineConfig()
    errors: list = []

    raw_values = {}
    if path is not None:
        raw_values.update(parse_config_file(path))
    field_types = {f.name: type(getattr(config, f.name)) for f in fields(config)}
    for key in field_types:
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            raw_values[key] = env[env_key]
    for key, value in (overrides or {}).items():
        raw_values[key] = value if isinstance(value, str) else str(value)

    for key, raw in raw_values.items():
        if key not in field_types:
            errors.append(f"unknown config key {key!r}")
            continue
        kind = field_types[key]
        value = raw if kind is str else _coerce(key, raw, kind, errors)
        if value is not None:
            setattr(config, key, value)

    if config.task not in _TASKS:
        errors.append(f"task: must be one of {_TASKS}, got {config.task!r}")
    if not config.src_lang:
        errors.append("src_lang: required")
    if not config.tgt_lang:
        errors.append("tgt_lang: required")
    if config.src_lang and config.src_lang == config.tgt_lang:
        errors.append(f"src_lang and tgt_lang must differ, both are {config.src_lang!r}")
    if config.workers < 1:
        errors.append(f"workers: must be >= 1, got {config.workers}")
    if config.clean_mode not in MODES:
        errors.append(f"clean_mode: must be one of {MODES}, got {config.clean_mode!r}")
    if not 0 < config.cognate_threshold <= 1:
        errors.append(f"cognate_threshold: must be in (0, 1], got {config.cognate_threshold}")
    if config.cognate_min_len < 1:
        errors.append(f"cognate_min_len: must be >= 1, got {config.cognate_min_len}")

    required_paths = []
    if config.task == "prep":
        for key in ("source", "target"):
            if not getattr(config, key):
                errors.append(f"{key}: required for the prep task")
            else:
                required_paths.append((key, getattr(config, key)))
        if config.clean_enabled:
            if not config.model:
                errors.append("model: required when cleaning is enabled")
            else:
                required_paths.append(("model", config.model))
    elif config.task == "eval":
        for key in ("hyp", "ref", "source"):
            if not getattr(config, key):
                errors.append(f"{key}: required for the eval task")
            else:
                required_paths.append((key, getattr(config, key)))
    for key, p in required_paths:
        if not Path(p).is_file():
            errors.append(f"{key}: no such file: {p}")
    return (None, errors) if errors else (config, [])


def _sha256(path) -> str:
    # small blocks: prep hashes its inputs mid-pass, beside the langid model
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dump_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final LF, replacing the file whole."""
    with atomic_write(path) as (fh,):
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Manifest:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.stages: list = []

    def record(self, name: str, inputs: list, outputs: list) -> None:
        self.stages.append(
            {
                "name": name,
                "status": "ok",
                "inputs": {str(p): _sha256(p) for p in inputs},
                "outputs": {str(p): _sha256(p) for p in outputs},
            }
        )

    def write(self, path, failure: Optional[StageFailure] = None) -> None:
        """The manifest of the stages recorded so far; after a ``failure``,
        the failed stage follows them with its error."""
        stages = self.stages
        if failure is not None:
            stages = stages + [{"name": failure.stage, "status": "failed", "error": str(failure.cause)}]
        dump_json(
            path,
            {
                "tool_version": __version__,
                "created_unix": time.time(),
                "config_echo": self.config.to_dict(),
                "failed_stage": failure.stage if failure is not None else None,
                "stages": stages,
            },
        )


def with_provenance(body: dict, config_echo: dict) -> dict:
    """A report body stamped with the tool version and an echo of the
    effective configuration that produced it."""
    payload = dict(body)
    payload["tool_version"] = __version__
    payload["config_echo"] = config_echo
    return payload


def _write_report(path: Path, config: PipelineConfig, body: dict) -> Path:
    dump_json(path, with_provenance(body, config.to_dict()))
    return path


class StageFailure(BitextError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


@contextmanager
def _stage(name: str):
    """Report an error of the block as a failure of stage ``name``; a
    failure of a stage nested in the block passes unchanged."""
    try:
        yield
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure(name, exc) from exc


def _run_prep(config: PipelineConfig, out: Path, manifest: _Manifest) -> None:
    # One pass over the corpus. As it is read, each chunk of pairs is folded
    # into stats_before, which is recorded as soon as the read ends; as the
    # cleaner decides it, its kept pairs are written, folded into stats_after
    # and tokenized. So a few chunks are in memory at a time, never the
    # corpus. An error names the stage whose step raised it. A stats_before
    # failure raises while the later stages' writers are still open, so it
    # leaves none of their artifacts. Before a later stage's failure is
    # reported, the rest of the corpus is read and stats_before recorded, as
    # when each stage runs over the whole corpus in turn: a read error
    # anywhere still fails stats_before.
    inputs = [config.source, config.target]
    langs = (config.src_lang, config.tgt_lang)
    cleaned = [out / f"cleaned.{lang}" for lang in langs]
    tokenized = [out / f"tokenized.{lang}" for lang in langs]
    before, after = StatsFold(), StatsFold()
    report = CleaningReport(0, 0, {})

    def read():
        with _stage("stats_before"):
            for chunk in batched(read_parallel(*inputs, *langs), _CHUNK):
                before.add(chunk)
                yield chunk
            report_path = _write_report(out / "stats_before.json", config, before.stats().to_dict())
            manifest.record("stats_before", inputs, [report_path])

    chunks = read()
    try:
        with _stage("tokenize"), parallel_writer(*tokenized) as write_tokenized:
            rules_src = resolve_rules(config.src_lang, config.tgt_lang)
            rules_tgt = resolve_rules(config.tgt_lang, config.src_lang)
            with _stage("clean"):
                total = count_lines(config.source)
                model = load_model(config.model) if config.clean_enabled else None
                decided = clean_chunks(chunks, total, model, config.clean_mode, config.workers)
                # closed on an error too, so that a worker pool ends with the pass
                with parallel_writer(*cleaned) as write_cleaned, closing(decided):
                    for chunk, decisions in decided:
                        kept = report.add(chunk, decisions)
                        write_cleaned(kept)
                        with _stage("stats_after"):
                            after.add(kept)
                        with _stage("tokenize"):
                            sources = tokenize_joined([p.source for p in kept], rules_src)
                            targets = tokenize_joined([p.target for p in kept], rules_tgt)
                            write_tokenized(kept, (sources, targets))
                            del sources, targets  # not kept while the next chunk is decided
                report_path = _write_report(out / "cleaning_report.json", config, report_body(report, model))
                manifest.record("clean", inputs + ([config.model] if config.clean_enabled else []), [*cleaned, report_path])
            with _stage("stats_after"):
                report_path = _write_report(out / "stats_after.json", config, after.stats().to_dict())
                manifest.record("stats_after", cleaned, [report_path])
    except StageFailure:
        for _ in chunks:
            pass
        raise

    with _stage("tokenize"):
        body = {"lines": report.kept, "source_rules": rules_src.lang, "target_rules": rules_tgt.lang}
        report_path = _write_report(out / "tokenize_report.json", config, body)
        manifest.record("tokenize", cleaned, [*tokenized, report_path])


def _run_eval(config: PipelineConfig, out: Path, manifest: _Manifest) -> None:
    # One pass over the segments. Each chunk's system lines are detokenized,
    # its segments scored and its cognates found in one eval_chunk call,
    # mapped over the workers; the parent writes the detokenized lines as
    # they come and folds the rest in segment order, so a few chunks are in
    # memory at a time. A failure is reported by the stage that would have
    # failed first had the stages run in turn: a reference or source that
    # fails to read or has another line count fails score or cognates only
    # once the stages before it are recorded.
    rules = resolve_rules(config.tgt_lang, config.src_lang)
    settings = EvalSettings(
        rules,
        resolve_rules(config.src_lang, config.tgt_lang),
        config.lowercase,
        config.cognate_threshold,
        config.cognate_min_len,
    )
    chunks = Lockstep(config.hyp, (config.ref, config.source), (settings,))
    scores = ScoreFold()
    lines = examined = found = preserved = 0

    def evaluated():
        # a generator, so that it has close() even where parallel_map is
        # replaced by a wrapper that returns a list (the benchmark's tracer)
        yield from parallel_map(eval_chunk, chunks, workers=config.workers)

    detok_path = out / "detokenized.hyp"
    with _stage("detokenize"):
        # closed on an error too, so that a worker pool ends with the pass
        with atomic_write(detok_path) as (fh,), closing(evaluated()) as results:
            for system, records, counts in results:
                fh.writelines(line + "\n" for line in system)
                lines += len(system)
                for record in records or ():
                    scores.add(record)
                if counts is not None:
                    examined, found, preserved = examined + counts[0], found + counts[1], preserved + counts[2]
        report_path = _write_report(out / "detokenize_report.json", config, {"lines": lines, "rules": rules.lang})
        manifest.record("detokenize", [config.hyp], [detok_path, report_path])

    with _stage("score"):
        ref_count, ref_error = chunks.counts[0], chunks.errors[0]
        if ref_error is not None:
            raise ref_error
        if ref_count != lines:
            raise LineCountMismatch(lines, ref_count, context=f"{detok_path} / {config.ref}")
        if not lines:
            raise EmptyCorpus(f"{detok_path} is empty")
        report_path = _write_report(out / "score.json", config, scores.report().to_dict())
        manifest.record("score", [detok_path, config.ref], [report_path])

    with _stage("cognates"):
        source_count, source_error = chunks.counts[1], chunks.errors[1]
        if source_error is not None:
            raise source_error
        if source_count != lines:
            raise LineCountMismatch(source_count, lines, context=f"{config.source} / {config.ref}")
        body = CognateReport.of(examined, found, config.cognate_threshold, preserved).to_dict()
        report_path = _write_report(out / "cognates.json", config, body)
        manifest.record("cognates", [config.source, config.ref, detok_path], [report_path])


def run_pipeline(config: PipelineConfig) -> None:
    """Run the configured task, writing artifacts and a manifest to
    ``config.out_dir``. Raises StageFailure naming the first failed stage,
    after writing a manifest that names it too."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(config)
    try:
        if config.task == "prep":
            _run_prep(config, out, manifest)
        else:
            _run_eval(config, out, manifest)
    except StageFailure as failure:
        manifest.write(out / "manifest.json", failure)
        raise
    manifest.write(out / "manifest.json")
