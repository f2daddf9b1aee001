#!/usr/bin/env python3
"""Repo benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (which
pulls in the library sources) under .bench_build/, runs the workload in a
scratch directory under .bench_work/ that it removes afterwards, prints every
metric with its unit, and writes the full record (metrics, failed gates,
provenance) to .bench_results/. The last line of standard output is one JSON
object with exactly the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
runs; --trace 1 reports its per-layer metrics from a traced run of the same
workload and seed. --smoke shrinks the workload for the self-test.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
BUILD_TYPE = "RelWithDebInfo"
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; returns the driver path."""
    log = BUILD_DIR / "build.log"
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                if "-S" in cmd:  # configure again next time
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail(f"build failed: {' '.join(cmd)}")
    return BUILD_DIR / "perfbench_driver"


def source_digest():
    """SHA-256 over the sources the driver is built from."""
    h = hashlib.sha256()
    roots = [ROOT / "src", BENCH_DIR, ROOT / "cmake", ROOT / "CMakeLists.txt"]
    files = []
    for r in roots:
        files += [r] if r.is_file() else sorted(p for p in r.rglob("*")
                                                 if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():  # a plain source checkout
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_driver(cmd, work):
    """Runs the driver once in a fresh scratch dir; returns its record."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}")
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RECORD "):
            record = json.loads(line[len("PERFBENCH_RECORD "):])
    if record is None:
        fail("driver printed no record")
    return record


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    driver = build()
    expected = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    started = time.time()
    record = run_driver(cmd, work)

    # Every declared metric, with its declared unit; a finite number.
    metrics = {}
    for m in expected:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    failed = record["failed"]
    failures = list(record["failures"])
    bad = [n for n, v in metrics.items()
           if v["value"] is None or not math.isfinite(v["value"])]
    if args.trace == 0:  # end-to-end metrics are never 0
        bad += [n for n, v in metrics.items() if v["value"] == 0]
    if bad:  # the run as a whole is not a result
        failed = min(record["attempted"], failed + 1)
        failures.append(f"metrics not measured: {', '.join(sorted(bad))}")

    provenance = dict(record["provenance"])
    provenance.update({
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "command": " ".join(sys.argv),
        "driver_wall_s": round(time.time() - started, 3),
    })
    result = {"correct": failed == 0, "attempted": record["attempted"],
              "failed": failed, "metrics": metrics}
    RESULTS_DIR.mkdir(exist_ok=True)
    record_file = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (RESULTS_DIR / record_file).write_text(json.dumps(
        dict(result, failures=failures, provenance=provenance),
        indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name:28} {m['value']!s:>22} {m['unit']}")
    for f in failures:
        print(f"FAILED: {f}")
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
