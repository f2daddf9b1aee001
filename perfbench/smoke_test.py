#!/usr/bin/env python3
"""Smoke self-test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through run.py at a tiny scale
(--smoke, one second), untraced and traced, and checks that each run passes
its correctness gates and emits every declared metric with its declared
unit as the last line's JSON. Exits 0 when all runs pass.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload, trace, spec):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"gates failed: {proc.stdout.strip()[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted < 1")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in declared):
        errors.append(f"metric names {sorted(metrics)}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r}, "
                          f"declared {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: value {got.get('value')!r}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check(workload, trace, spec)
            status = "ok" if not errors else "FAIL"
            print(f"{status:4} {workload} --trace {trace}")
            for e in errors:
                print(f"     {e}")
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
