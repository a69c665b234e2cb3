#!/usr/bin/env python3
"""The repository benchmark: build perfbench.exe from source, run one
workload, check its outputs, and print one JSON result line.

Run from the repository root:

  python3 perfbench/run.py --workload tpcc|cartel|ingest --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

With --trace 0 the result carries every end-to-end metric named in
BENCHMARK.json, with --trace 1 every per-layer metric.  Wall-clock
end-to-end figures (ops_per_s, latency_*, setup_s) are scaled to a
reference machine speed that the benchmark measures between chunks of
ops with a fixed kernel; the report on stderr gives the raw figures
beside them (see "Machine speed" in perfbench.ml).  The traced run
also writes perfbench/out/<workload>.layers.txt (per-span self time)
and perfbench/out/<workload>.trace.json (Chrome trace export, checked
with scripts/check_trace_export.py).

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every correctness gate passed; a run that
cannot build or run prints no result line.

--self-test runs each workload twice with one seed and fails unless
the allocation, GC and engine counts agree bit for bit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def build():
    cmd = dune() + ["build", "--root", ".", "./perfbench/perfbench.exe"]
    # the shared build cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def run_exe(args):
    """Run perfbench.exe; return its parsed result line."""
    try:
        r = subprocess.run(
            [EXE] + args,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die(f"perfbench.exe {' '.join(args)} timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        die(f"perfbench.exe exited with code {r.returncode}")
    # the human-readable report goes to stderr so stdout ends in our line
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        die(f"unparsable result line: {e}")


def metric_names(kind):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return [m["name"] for m in spec[kind]]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        die(f"cannot read metric names from BENCHMARK.json: {e}")


def check_export(workload):
    """Well-nesting of the traced run's Chrome export; on TPC-C also a
    commit span holding lock.wait, gc.wait and wal.fsync children."""
    path = os.path.join(OUT, f"{workload}.trace.json")
    flags = ["--require-commit-children"] if workload == "tpcc" else []
    checker = os.path.join(ROOT, "scripts", "check_trace_export.py")
    r = subprocess.run(
        [sys.executable, checker, path] + flags,
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    sys.stderr.write(r.stdout + r.stderr)
    return r.returncode == 0


def measure(a):
    args = [
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
    ]
    if a.trace:
        os.makedirs(OUT, exist_ok=True)
        args += ["--out", OUT]
    res = run_exe(args)
    kind = "per_layer" if a.trace else "end_to_end"
    names = metric_names(kind)
    missing = [n for n in names if n not in res[kind]]
    if missing:
        die(f"metrics missing from the run: {missing}")
    correct = bool(res["correct"])
    if a.trace:
        correct = check_export(a.workload) and correct
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {n: res[kind][n] for n in names},
            }
        )
    )
    return 0 if correct else 1


# Counts that depend only on the seed: every counted metric of the
# first pass, and the heap peak.
def deterministic(res):
    out = {k: v["value"] for k, v in res["counted"].items()}
    out["peak_heap_mb"] = res["end_to_end"]["peak_heap_mb"]["value"]
    return out


SELF_TEST_OPS = {"tpcc": 500, "cartel": 1000, "ingest": 10}


def self_test():
    ok = True
    for workload, ops in SELF_TEST_OPS.items():
        args = [
            "--workload", workload, "--seed", "11", "--seconds", "0",
            "--trace", "0", "--ops", str(ops),
        ]
        a, b = deterministic(run_exe(args)), deterministic(run_exe(args))
        diff = sorted(k for k in a if a[k] != b.get(k))
        print(f"{workload}: {'identical' if not diff else 'DIFFERENT ' + str(diff)}")
        ok = ok and not diff
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["tpcc", "cartel", "ingest"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    build()
    sys.exit(self_test() if a.self_test else measure(a))


if __name__ == "__main__":
    main()
