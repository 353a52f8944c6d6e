#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles
the simulator core from ../src) into the checkout's build directory,
then runs one workload and prints its report.  Run from the root of a
checkout:

    python3 perfbench/run.py --workload paper-grid --seed 42 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Stdout ends with two JSON lines: the full report (every metric with
its unit, the paper gaps on paper-grid, any failures, and the host
fingerprint) and the result object {correct, attempted, failed,
metrics}.  The report with per-cell records, and the spans of a traced
run, are also written under .perfbench_out/.  See perfbench/README.md
for the metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("paper-grid", "serving-meta", "rack-write")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as fh:
        for cmd in steps:
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return out


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build()
    if args.self_test:
        sys.exit(subprocess.run([str(out / "perfbench_selftest")]).returncode)

    binary = str(out / "perfbench")
    host = subprocess.run([binary, "--host"], capture_output=True,
                          text=True, check=True).stdout.strip()
    OUT_DIR.mkdir(exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(OUT_DIR)],
        capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}, "
             f"want {sorted(want)}")

    # Every record carries the host it was measured on.
    report = json.loads(lines[-2])
    report["host"] = json.loads(host)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.report.json"
    full = json.loads(record.read_text())
    full["host"] = report["host"]
    record.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
