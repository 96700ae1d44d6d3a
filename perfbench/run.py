"""Benchmark of the ``pipeline`` subcommand's prep and eval tasks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from ``--seed``
(see gen.py) under ``perfbench/work/``, which is removed at the end. Every
pipeline invocation is a fresh interpreter (see invoke.py); one client
drives them one at a time, in a closed loop, until ``--seconds`` of
invocation time have passed. Every invocation's outputs are checked against
recounts (see checks.py) outside the timed region; an invocation that fails
a check counts as failed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones, taken from
traced invocations (see spans.py). See README.md for what each means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {
    "prep-noisy": {"task": "prep", "workers": 1},
    "prep-pool": {"task": "prep", "workers": 2},
    "eval-light": {"task": "eval", "make": gen.make_eval_light},
    "eval-reorder": {"task": "eval", "make": gen.make_eval_reorder},
}
SETUP_STARTS = 12
SETUP_BATCH = 4
# setup_s is scaled to a machine on which a reference start (invoke.py
# reference: the package's dependencies without the package) takes this
# long; see README.md
REFERENCE_START_S = 0.2
SEED_LANGS = ("es", "ca", "pt", "fr")
SRC_LANG, TGT_LANG = "es", "ca"  # the prep corpus
CHILD_TIMEOUT_S = 60  # a run must end within 180 s

E2E = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "langid.load_model_s": "s",
    "tokenizer.resolve_rules_s": "s",
    "corpus_io.read_pairs_per_s": "1/s",
    "corpus_io.read_rss_mb": "MB",
    "corpus_io.stats_pairs_per_s": "1/s",
    "corpus_io.write_pairs_per_s": "1/s",
    "langid.self_s": "s",
    "cleaner.pairs_per_s": "1/s",
    "cleaner.self_s": "s",
    "parallel.map_s": "s",
    "parallel.worker_busy_ratio": "1",
    "tokenizer.tokenize_lines_per_s": "1/s",
    "tokenizer.detokenize_lines_per_s": "1/s",
    "metrics.report.self_s": "s",
    "metrics.bleu.segs_per_s": "1/s",
    "metrics.ribes.segs_per_s": "1/s",
    "metrics.ter.segs_per_s": "1/s",
    "metrics.ter.seg_ms_p50": "ms",
    "metrics.ter.seg_ms_tail": "ms",
    "cognates.extract_pairs_per_s": "1/s",
    "cognates.comparisons_per_s": "1/s",
    "cognates.preservation_s": "s",
    "pipeline.self_s": "s",
    "trace.items_per_s": "1/s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Children:
    """Starts invoke.py in fresh interpreters with a pinned environment:
    ``src`` on PYTHONPATH, a fixed PYTHONHASHSEED, one BLAS thread, and no
    BITEXTKIT_* variables that could change the config."""

    def __init__(self, root: Path):
        env = {k: v for k, v in os.environ.items() if not k.startswith("BITEXTKIT_")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        self.root = root

    def run(self, *args) -> tuple:
        """(the child's last stdout line as JSON, or None if it failed; spawn time)."""
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "invoke.py"), *map(str, args)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # the whole group: pool workers hold the output pipes open
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        lines = out.decode("utf-8", "replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
            log(f"invoke.py {args[0]} exited with {proc.returncode}: " + " | ".join(tail))
            return None, spawned
        return json.loads(lines[-1]), spawned


def write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


def write_lines(path: Path, lines: list) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def prepare_prep(root: Path, work: Path, seed: int, workers: int, children: Children) -> dict:
    """Inputs, langid model and configs of a prep workload."""
    corpus = gen.make_prep(root, seed)
    corpus["stats"] = checks.word_stats(corpus["source"], corpus["target"])
    model = work / "model.lidm"
    seeds = [f"--seed={lang}={root / gen.SEED_DIR / f'{lang}.txt'}" for lang in SEED_LANGS]
    trained = subprocess.run(
        [sys.executable, "-m", "bitextkit.cli", "langid-train", *seeds, f"--out={model}"],
        cwd=root,
        env=children.env,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if trained.returncode != 0:
        raise RuntimeError("langid-train failed: " + trained.stderr.decode("utf-8", "replace"))

    def config(name: str, size: int, w: int) -> Path:
        src, tgt = work / f"{name}.{SRC_LANG}", work / f"{name}.{TGT_LANG}"
        write_lines(src, corpus["source"][:size])
        write_lines(tgt, corpus["target"][:size])
        path = work / f"{name}-{w}.cfg"
        values = {"task": "prep", "src_lang": SRC_LANG, "tgt_lang": TGT_LANG, "source": src, "target": tgt}
        write_config(path, {**values, "model": model, "clean_mode": "both", "workers": w})
        return path

    items = len(corpus["source"])
    if workers > 1:
        # warm up with a full workers = 1 invocation, whose outputs the
        # timed invocations must match byte for byte
        warm = baseline = config("run", items, 1)
    else:
        warm, baseline = config("warm", gen.PREP_WARMUP_PAIRS, workers), None
    return {
        "items": items,
        "setup_args": (model, SRC_LANG, TGT_LANG),
        "warm": warm,
        "baseline": baseline,
        "config": config("run", items, workers),
        "check": lambda out: checks.check_prep(out, corpus, SRC_LANG, TGT_LANG),
    }


def prepare_eval(root: Path, work: Path, seed: int, make) -> dict:
    """Inputs, configs and expected figures of an eval workload."""
    data = make(root, seed)
    segments = data["segments"]
    src_lang, tgt_lang = data["src_lang"], data["tgt_lang"]
    threshold, min_len = 0.3, 4
    expected = checks.eval_expectations(segments, threshold, min_len)
    configs = {}
    for name, part in (("warm", segments[: gen.EVAL_WARMUP_SEGMENTS]), ("run", segments)):
        paths = {key: work / f"{name}.{key}" for key in ("source", "ref", "hyp")}
        write_lines(paths["source"], [gen.detokenized(s["src"]) for s in part])
        write_lines(paths["ref"], [gen.detokenized(s["ref"]) for s in part])
        write_lines(paths["hyp"], [" ".join(s["hyp"]) for s in part])
        configs[name] = work / f"{name}.cfg"
        write_config(
            configs[name],
            {
                "task": "eval",
                "src_lang": src_lang,
                "tgt_lang": tgt_lang,
                **paths,
                "cognate_threshold": threshold,
                "cognate_min_len": min_len,
            },
        )
    return {
        "items": len(segments),
        "setup_args": ("-", tgt_lang, src_lang),
        "warm": configs["warm"],
        "baseline": None,
        "config": configs["run"],
        "check": lambda out: checks.check_eval(out, expected),
    }


def checked(check, out: Path, baseline) -> list:
    """The check's failures, plus any output file that differs from the
    baseline invocation's; output that cannot be read is a failure too."""
    try:
        problems = check(out)
        if baseline is not None:
            for name in (f"{kind}.{lang}" for kind in ("cleaned", "tokenized") for lang in (SRC_LANG, TGT_LANG)):
                if (out / name).read_bytes() != (baseline / name).read_bytes():
                    problems.append(f"{name} differs from the workers = 1 invocation")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def run_workload(root: Path, work: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    children = Children(root)
    if spec["task"] == "prep":
        plan = prepare_prep(root, work, seed, spec["workers"], children)
    else:
        plan = prepare_eval(root, work, seed, spec["make"])

    # warm-up, not measured: byte-compiles the package, fills the page cache
    children.run("setup", *plan["setup_args"])
    warm = work / "warm"
    result, _ = children.run("run", plan["warm"], warm, "-")
    baseline = None
    if plan["baseline"] is not None:
        if result is None or result["code"] != 0 or plan["check"](warm):
            raise RuntimeError("the workers = 1 baseline invocation failed")
        baseline = warm

    setups: list = []

    def setup_starts(count: int) -> None:
        for _ in range(count):
            result, spawned = children.run("setup", *plan["setup_args"])
            if result is None:
                raise RuntimeError("a set-up start failed")
            result["setup_s"] = result["ready"] - spawned
            # a reference start right after each set-up start gauges the
            # machine's speed at that moment
            bare, spawned = children.run("reference")
            if bare is None:
                raise RuntimeError("a reference start failed")
            result["reference_start_s"] = bare["ready"] - spawned
            setups.append(result)

    runs, attempted, failed = [], 0, 0
    spent = 0.0
    while spent < seconds:
        # set-up starts are spread over the run, a few before each invocation
        setup_starts(min(SETUP_BATCH, SETUP_STARTS - len(setups)))
        out = work / f"out-{attempted}"
        trace_path = work / f"trace-{attempted}.json" if trace else "-"
        result, spawned = children.run("run", plan["config"], out, trace_path)
        attempted += 1
        ok = result is not None and result["code"] == 0
        spent += (result["end"] if ok else time.monotonic()) - spawned
        problems = checked(plan["check"], out, baseline) if ok else ["the invocation failed"]
        if problems:
            failed += 1
            log(f"{workload} invocation {attempted}: " + "; ".join(problems[:5]))
        else:
            wall = result["end"] - result["start"]
            row = {"items_per_s": plan["items"] / wall, "peak_rss_mb": result["peak_rss_mb"]}
            if trace:
                recorded = json.loads(Path(trace_path).read_text(encoding="utf-8"))
                layers, row["self_s"] = spans.layer_metrics(recorded)
                row.update(layers)
                row["trace.items_per_s"] = row["items_per_s"]
                row["wall_s"] = wall
            runs.append(row)
        if trace:
            Path(trace_path).unlink(missing_ok=True)
        shutil.rmtree(out, ignore_errors=True)

    setup_starts(SETUP_STARTS - len(setups))
    for row in setups:
        row["scaled_setup_s"] = row["setup_s"] * REFERENCE_START_S / row["reference_start_s"]

    def median(key, rows):
        return statistics.median(r[key] for r in rows) if rows else 0.0

    log(f"set-up start {median('setup_s', setups):.4f} s, reference start {median('reference_start_s', setups):.4f} s")

    if not trace:
        metrics = {
            "setup_s": median("scaled_setup_s", setups),
            "items_per_s": median("items_per_s", runs),
            "peak_rss_mb": median("peak_rss_mb", runs),
        }
        units = E2E
    else:
        metrics = {
            "cli.import_s": median("import_s", setups),
            "langid.load_model_s": median("load_model_s", setups),
            "tokenizer.resolve_rules_s": median("resolve_rules_s", setups),
        }
        metrics.update({k: median(k, runs) for k in PER_LAYER if k not in metrics})
        units = PER_LAYER
        if runs:
            shares = {k: statistics.median(r["self_s"].get(k, 0.0) / r["wall_s"] for r in runs) for k in runs[0]["self_s"]}
            ranked = sorted(shares.items(), key=lambda kv: -kv[1])
            log("self time / pipeline wall time: " + ", ".join(f"{k} {v:.1%}" for k, v in ranked))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "bitextkit" / "cli.py").is_file() or not (root / gen.SEED_DIR).is_dir():
        log(f"no bitextkit sources under {root / 'src'}: run from the root of a checkout")
        return 2
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run_workload(root, work, args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        log(f"benchmark failed: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
