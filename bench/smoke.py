"""Smoke check of the benchmark itself.

Runs every workload once on a shrunk corpus (``run.py --smoke``), untraced
and traced, and fails unless each run is correct and prints every metric
named in ``BENCHMARK.json``, each quality metric and each output check by
name with its unit. It also checks that the benchmark exits non-zero,
without a result line, in a copy that holds only ``BENCHMARK.json`` and
``bench/``. Takes about half a minute::

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import QUALITY, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BARE = BENCH / "_smoke"


def printed_units(lines: list[str]) -> dict[str, str]:
    """Map each ``<name> <value> <unit> ...`` line to its unit."""
    units = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3:
            units.setdefault(parts[0], parts[2])
    return units


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {proc.stdout[-2000:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(expected):
        problems.append(f"{where}: metrics {sorted(set(result['metrics']) ^ set(expected))} "
                        "differ from BENCHMARK.json")
    units = printed_units(lines[:-1])
    for name, unit in expected.items():
        metric = result["metrics"].get(name, {})
        value = metric.get("value")
        if metric.get("unit") != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: bad result entry {name}: {metric}")
        if units.get(name) != unit:
            problems.append(f"{where}: {name} not printed with unit {unit}")
    named = ["failed_ratio", "output_sha256", "output_identical"]
    if WORKLOADS[workload].kind == "reproduce":
        named += list(QUALITY)
        problems += [f"{where}: {q} not printed as a score"
                     for q in QUALITY if units.get(q) != "score"]
    first_words = {line.split()[0] for line in lines[:-1] if line.strip()}
    problems += [f"{where}: {n} not printed" for n in named if n not in first_words]
    return problems


def check_bare() -> list[str]:
    """The benchmark must refuse to run without the program's sources."""
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir()
    shutil.copy2(ROOT / "BENCHMARK.json", BARE / "BENCHMARK.json")
    shutil.copytree(BENCH, BARE / "bench",
                    ignore=shutil.ignore_patterns("_*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", next(iter(WORKLOADS)), "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=BARE, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(workload["name"], trace, spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
