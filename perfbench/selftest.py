#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks, each on a shortest-length run (--seconds 1):
  1. every workload, untraced and traced, exits 0 and prints a result line
     whose metrics are exactly BENCHMARK.json's end_to_end (untraced) or
     per_layer (traced) set, each with its declared unit, and the traced
     run's span chains cover at least 99% of requests, whose layer self
     times add up to the client call;
  2. a run told to expect a wrong final digest (--wrong-digest) fails:
     non-zero exit, "correct": false, failed >= 1 — the gate can fail;
  3. a directory holding only BENCHMARK.json and perfbench/ (no librim
     sources) makes the benchmark exit non-zero without a result line.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def check_metrics(result, declared):
    """Problems with a result line against the declared metric list."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def check_split(workload):
    """The traced run's round-trip split: span chains complete for at least
    99% of requests (the stated slack), and on those the layer self times
    add up to the client call."""
    detail = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed{SEED}-trace1.json").read_text())
    problems = []
    matched = detail["metrics"]["trace.matched_share"]["value"]
    if matched < 0.99:
        problems.append(f"only {matched:.3f} of traced requests fully matched")
    split = detail["rtt_split"]
    if abs(split["unattributed_share"]) > 0.01:
        problems.append(f"layer self times miss the client call by "
                        f"{split['unattributed_share']:.3f}")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0

    def report(name, problems):
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'}  {name}", flush=True)
        for problem in problems:
            print(f"      {problem}", flush=True)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            code, result, stderr = run(["--workload", workload, "--seed",
                                        str(SEED), "--seconds", "1",
                                        "--trace", trace])
            problems = []
            if code != 0:
                problems.append(f"exit {code}: {stderr.strip()[-400:]}")
            if result is None:
                problems.append("no JSON result line")
            else:
                declared = bench["end_to_end" if trace == "0" else "per_layer"]
                problems += check_metrics(result, declared)
                if result.get("correct") is not True or result.get("failed"):
                    problems.append("run was not correct")
                if trace == "1":
                    problems += check_split(workload)
            report(f"{workload} trace={trace}: every metric printed with its unit",
                   problems)

    code, result, _ = run(["--workload", "routed_reads", "--seed", str(SEED),
                           "--seconds", "1", "--trace", "0", "--wrong-digest"])
    problems = []
    if code == 0:
        problems.append("exit 0 despite a wrong expected digest")
    if result is None or result.get("correct") is not False or not result.get("failed"):
        problems.append(f"result does not report the mismatch: {result}")
    report("wrong expected digest fails the run", problems)

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", "routed_reads", "--seed", str(SEED),
                           "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if code == 0:
        problems.append("exit 0 without librim sources")
    if result is not None:
        problems.append("printed a result without librim sources")
    report("benchmark alone (no sources) exits non-zero, no result", problems)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
