#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload, check it.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the library sources under
src/ plus the benchmark) into .bench_build/perfbench; later runs only rebuild
what changed.  Build output goes to stderr.  The binary's report goes to
stdout; its last line is the JSON result object.  Before passing it on, this
script checks that the result names exactly the metrics BENCHMARK.json lists
for the run mode, with the same units.

Exit codes: 0 success; 1 an output check failed; 2 bad arguments or no
source tree; 3 the build failed; 4 the report did not match BENCHMARK.json;
5 the run timed out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(code, msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pthread_api.h")):
        fail(2, "no library sources under %s/src; run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(3, "build step %s failed: %s" % (cmd[:2], e))
        if rc != 0:
            fail(3, "build step %s exited with %d" % (cmd[:2], rc))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "unknown (sources sha256 %s)" % digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer" if trace else "end_to_end"]
    return {e["name"]: e["unit"] for e in entries}, \
        [w["name"] for w in spec["workloads"]]


def check_report(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result object has the wrong keys"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "unit mismatch %s" % (missing, extra, units)
    if result["attempted"] < 1:
        return "no operation attempted"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    expected, workloads = expected_metrics(args.trace == 1)
    if args.workload not in workloads:
        fail(2, "unknown workload %r; BENCHMARK.json lists %s"
             % (args.workload, workloads))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(5, "run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    problem = check_report(lines[-1], expected)
    if problem is not None:
        # Pass on the human-readable part only: a mismatched report is no
        # result.
        sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
        fail(4, problem)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(1, "perfbench exited with %d" % proc.returncode)


if __name__ == "__main__":
    main()
