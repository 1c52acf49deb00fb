"""Benchmark of the banevasion pipeline, run through its public CLI.

Usage::

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` times a few fresh processes that import the CLI and load the
built-in lexicons (``setup_s``), then repeats the workload while another
iteration still fits in ``--seconds`` and reports medians. ``--trace 1``
runs the workload once untraced and once under ``bench/tracer.py`` and
reports the per-layer metrics. Every iteration's outputs are checked. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``bench/README.md`` describes the
workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
TRACES = BENCH / "_traces"
SETUP_PROBES = 7
PROCESS_TIMEOUT_S = 75.0

SMOKE_SIZE = ("--groups", "30", "--benign", "300", "--malicious", "150")
SIZE_2X = ("--groups", "120", "--benign", "1200", "--malicious", "600")
SIZE_20X = ("--groups", "1200", "--benign", "12000", "--malicious", "6000")
LOWSIGNAL = (
    "--page-overlap", "0.1", "--vocab-reuse", "0.1", "--activity-contrast", "0.2",
    "--username-mutation-rate", "0", "--malicious-text-rate", "0.05", "--rfe",
)

# Quality metrics of a ``reproduce`` report: name -> path into report.json.
QUALITY = {
    "task1_auc": ("task1", "auc"),
    "task2_auc": ("task2", "auc"),
    "task3_auc": ("task3", "auc"),
    "mrr": ("ranking", "mrr"),
    "recall_at_1": ("ranking", "recall_at", "1"),
}

# Loads the CLI and the built-in lexicons, tolerating a renamed loader.
SETUP_CODE = (
    "import banevasion.cli\n"
    "from banevasion import textstats\n"
    "for name in ('builtin_lexicon', 'builtin_sentiment_lexicon'):\n"
    "    loader = getattr(textstats, name, None)\n"
    "    if loader is not None:\n"
    "        loader()\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "reproduce" or "stages"
    size: tuple[str, ...]  # corpus size flags; the smoke check replaces them
    flags: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reproduce-default", "reproduce", ()),
        Workload("lowsignal-2x-rfe", "reproduce", SIZE_2X, LOWSIGNAL),
        Workload("stages-20x", "stages", SIZE_20X),
    )
}


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    quality: dict[str, float] = field(default_factory=dict)
    stats: list[dict] = field(default_factory=list)


def commands(workload: Workload, flags: tuple[str, ...], seed: int, out: Path) -> list[list[str]]:
    """The CLI argument lists one iteration of the workload runs, in order."""
    if workload.kind == "reproduce":
        return [["reproduce", "--out-dir", str(out), "--seed", str(seed), *flags]]
    corpus = out / "corpus"
    files = [
        "--accounts", str(corpus / "accounts.jsonl"),
        "--revisions", str(corpus / "revisions.jsonl"),
        "--records", str(corpus / "records.jsonl"),
    ]
    pairs = out / "pairs" / "evasion_pairs.jsonl"
    return [
        ["generate", "--out-dir", str(corpus), "--seed", str(seed), *flags],
        ["ingest", *files],
        ["extract-pairs", *files, "--out-dir", str(out / "pairs")],
        *(
            ["match", "--task", task, *files, "--pairs", str(pairs),
             "--out", str(out / f"task{task}_samples.tsv"), "--seed", str(seed)]
            for task in "123"
        ),
    ]


def child_env() -> dict[str, str]:
    """Environment of the program processes: this checkout's sources, one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BANEVASION_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_process(argv: list[str], env: dict[str, str], stdout, stderr):
    """Run one process to completion; return (exit code, wall s, cpu s, peak RSS MB).

    A process still running after ``PROCESS_TIMEOUT_S`` is killed, so that a
    hung program fails the run instead of stalling it.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(env: dict[str, str]) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        code, wall, _, _ = run_process(
            [sys.executable, "-c", SETUP_CODE], env, subprocess.DEVNULL, subprocess.DEVNULL
        )
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}")
        times.append(wall)
    return times


def tree_digest(root: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of every file."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _pair_keys(path: Path) -> set[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {(row["parent_id"], row["child_id"]) for row in rows}


def check_pairs(corpus_dir: Path, pairs_dir: Path, problems: list[str]) -> set[tuple[str, str]]:
    """Extracted first pairs must equal the generator's planted pairs."""
    truth = _pair_keys(corpus_dir / "truth_pairs.jsonl")
    found = _pair_keys(pairs_dir / "evasion_pairs.jsonl")
    if not truth:
        problems.append("no planted pairs")
    if found != truth:
        problems.append(
            f"extracted pairs differ from planted pairs: {len(found - truth)} extra, "
            f"{len(truth - found)} missing"
        )
    return truth


def check_reproduce(out: Path, problems: list[str]) -> dict[str, float]:
    check_pairs(out / "corpus", out / "pairs", problems)
    try:
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"report.json unreadable: {exc}")
        return {}
    quality = {}
    for name, path in QUALITY.items():
        value = report
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if not isinstance(value, (int, float)) or not math.isfinite(value) or not 0 <= value <= 1:
            problems.append(f"report.json {'.'.join(path)} is not a finite score: {value!r}")
            continue
        quality[name] = float(value)
    for name in ("models", "reports", "report.txt"):
        if not (out / name).exists():
            problems.append(f"missing output {name}")
    return quality


def check_stages(out: Path, problems: list[str]) -> None:
    truth = check_pairs(out / "corpus", out / "pairs", problems)
    parents = {parent for parent, _ in truth}
    expected = {
        "1": ("prediction", {(p, p) for p in parents}),
        "2": ("early_detection", truth),
        "3": ("bantime_detection", truth),
    }
    for task, (task_name, positives) in expected.items():
        path = out / f"task{task}_samples.tsv"
        found_pos: set[tuple[str, str]] = set()
        negatives = 0
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 4 or fields[0] != task_name or fields[1] not in parents:
                    problems.append(f"{path.name}:{lineno}: malformed row {line!r}")
                    break
                if fields[3] == "positive":
                    found_pos.add((fields[1], fields[2]))
                elif fields[3] == "negative":
                    negatives += 1
                else:
                    problems.append(f"{path.name}:{lineno}: bad label {fields[3]!r}")
                    break
        if found_pos != positives:
            problems.append(f"{path.name}: positives differ from the extracted pairs")
        if negatives == 0:
            problems.append(f"{path.name}: no matched negatives")


def execute(workload: Workload, flags: tuple[str, ...], seed: int, env, traced: bool) -> Iteration:
    """Run one iteration of the workload from a clean output tree, then check it."""
    out, logs = WORK / "out", WORK / "logs"
    shutil.rmtree(WORK, ignore_errors=True)
    out.mkdir(parents=True)
    logs.mkdir()
    result = Iteration()
    for index, args in enumerate(commands(workload, flags, seed, out)):
        if traced:
            TRACES.mkdir(exist_ok=True)
            stats = logs / f"stats{index}.json"
            spans = TRACES / f"{workload.name}-seed{seed}-{index}-{args[0]}.spans.jsonl"
            argv = [sys.executable, str(BENCH / "tracer.py"),
                    "--stats", str(stats), "--spans", str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "banevasion.cli", *args]
        with open(logs / f"{index}.out", "wb") as so, open(logs / f"{index}.err", "wb") as se:
            code, wall, cpu, rss = run_process(argv, env, so, se)
        result.wall_s += wall
        result.cpu_s += cpu
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        if code != 0:
            tail = (logs / f"{index}.err").read_text(errors="replace").strip().splitlines()[-3:]
            result.problems.append(f"{args[0]} exited {code}: {' | '.join(tail)}")
            return result
        if traced:
            result.stats.append(json.loads(stats.read_text()))
    try:
        if workload.kind == "reproduce":
            result.quality = check_reproduce(out, result.problems)
        else:
            check_stages(out, result.problems)
    except (OSError, ValueError, KeyError) as exc:
        result.problems.append(f"output check failed: {exc!r}")
    result.digest = tree_digest(out)
    return result


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer's stats


def merge_stats(stats: list[dict]) -> tuple[dict, dict]:
    """Sum the per-process stats of one traced iteration."""
    layers: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for doc in stats:
        for name in doc["absent"]:
            print(f"absent {name} (no longer in the package; its metrics read 0)")
        for name in doc["uncounted"]:
            print(f"uncounted {name} (its arguments no longer fit the benchmark's counter)")
        for name, values in doc["layers"].items():
            into = layers.setdefault(name, {})
            for key, value in values.items():
                into[key] = into.get(key, 0) + value
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return layers, counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# Per-layer metrics that are the ratio of two computed counts.
COUNT_RATIOS = {
    "matching.candidates_per_child": ("matching.candidates", "matching.candidate_sets"),
    "features.account_sides.distinct_ratio": (
        "features.account_sides.distinct", "features.account_sides"),
}


def layer_metric(name: str, layers: dict, counts: dict) -> float:
    """Value of a per-layer metric; 0 for a layer the workload never reached."""
    if name in COUNT_RATIOS:
        numerator, denominator = COUNT_RATIOS[name]
        return _ratio(counts.get(numerator, 0), counts.get(denominator, 0))
    if name in counts:
        return counts[name]
    base, _, suffix = name.rpartition(".")
    stat = layers.get(base)
    if stat is None:
        return 0.0
    if suffix == "distinct_ratio":
        return _ratio(stat.get("distinct", 0), stat["calls"])
    return stat[suffix]


# ---------------------------------------------------------------------------
# reporting


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)} min={min(values):.4f} q1={q1:.4f} q3={q3:.4f} max={max(values):.4f}"


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report_references(workload: str, seed: int, digest: str, quality: dict, smoke: bool) -> None:
    """Print the output hash and quality against ``references.json``."""
    refs = {"output_sha256": {}, "quality": {}} if smoke else load_json(BENCH / "references.json")
    expected = refs["output_sha256"].get(workload, {}).get(str(seed))
    print(f"output_sha256 {digest or 'none'}")
    if expected is None:
        print(f"output_identical unknown (no reference for seed {seed}{' smoke' if smoke else ''})")
    else:
        print(f"output_identical {str(digest == expected).lower()} (reference {expected[:16]})")
    ref_quality = refs["quality"].get(workload, {}).get(str(seed), {})
    for name, value in quality.items():
        note = ""
        if name in ref_quality:
            same = "same" if value == ref_quality[name] else "CHANGED"
            note = f" (reference {ref_quality[name]!r}, {same})"
        print(f"{name} {value!r} score{note}")


def traced_run(workload: Workload, flags, seed: int, env, spec: dict):
    """One untraced and one traced iteration; the per-layer metrics."""
    plain = execute(workload, flags, seed, env, traced=False)
    traced = execute(workload, flags, seed, env, traced=True)
    if traced.digest != plain.digest and not plain.problems:
        traced.problems.append("traced output tree differs from the untraced one")
    layers, counts = merge_stats(traced.stats)
    values = {
        m["name"]: layer_metric(m["name"], layers, counts)
        for m in spec["per_layer"] if not m["name"].startswith("trace.")
    }
    values["trace.run_s"] = traced.wall_s
    values["trace.overhead_ratio"] = _ratio(traced.wall_s, plain.wall_s)
    print(f"untraced run_s {plain.wall_s!r} s")
    return [plain, traced], {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]
    }


def timed_run(workload: Workload, flags, seed: int, env, spec: dict, seconds: float):
    """Set-up probes, then iterations while another fits; the end-to-end medians."""
    start = time.perf_counter()
    setup = measure_setup(env)
    runs: list[Iteration] = []
    while True:
        runs.append(execute(workload, flags, seed, env, traced=False))
        typical = statistics.median(r.wall_s for r in runs)
        if time.perf_counter() - start + typical > seconds:
            break
    for run in runs[1:]:
        if run.digest != runs[0].digest and not run.problems:
            run.problems.append("output tree differs from the first iteration's")
    series = {
        "run_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setup,
    }
    metrics = {}
    for m in spec["end_to_end"]:
        values = series[m["name"]]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        print(f"{m['name']} {metrics[m['name']]['value']!r} {m['unit']} "
              f"(median; {spread(values)})")
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="banevasion pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the corpus to check the benchmark itself")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_process stops its child first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "banevasion" / "cli.py").is_file():
        print(f"error: no banevasion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    workload = WORKLOADS[args.workload]
    flags = (*(SMOKE_SIZE if args.smoke else workload.size), *workload.flags)
    env = child_env()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")

    if args.trace:
        runs, metrics = traced_run(workload, flags, args.seed, env, spec)
    else:
        runs, metrics = timed_run(workload, flags, args.seed, env, spec, args.seconds)

    failed = sum(1 for r in runs if r.problems)
    for index, run in enumerate(runs):
        for problem in run.problems:
            print(f"FAILED iteration {index}: {problem}")
    print(f"failed_ratio {_ratio(failed, len(runs))!r} ratio ({failed}/{len(runs)})")
    report_references(workload.name, args.seed, runs[0].digest, runs[0].quality, args.smoke)
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name} {metric['value']!r} {metric['unit']}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
