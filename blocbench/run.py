#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 blocbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
blocbench/ (which compiles ../src) into .bench_build/cmake; later calls only
rebuild what changed. The last line on stdout is the result:
{"correct", "attempted", "failed", "metrics"}, where metrics holds every
"end_to_end" metric of BENCHMARK.json (--trace 0) or every "per_layer" one
(--trace 1), each with its value and the unit BENCHMARK.json gives it. The run record with the machine
stamp goes to .bench_build/results (or --out DIR). Exits non-zero without a
result line when the build or the run fails, and non-zero after the result
line when an output differs from the serial reference.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[blocbench] {msg}", file=sys.stderr, flush=True)


def build(targets=("blocbench",)):
    """Configures (once) and builds `targets`; returns the build directory."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)
    return BUILD_DIR


def shape_result(raw, trace):
    """The contract's result line from the binary's raw one.

    The binary prints every metric it set as name: value. BENCHMARK.json is
    the only place that names the metrics and gives their units: this keeps
    the mode's metrics ("end_to_end" for --trace 0, "per_layer" for 1) and
    adds their units. A per-layer metric of a layer the workload does not
    exercise reports 0. Raises ValueError on a name BENCHMARK.json does not
    declare, a missing end-to-end metric or a value that is not a number.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if set(raw) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(raw)}")
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(raw["failed"], int):
        raise ValueError("failed must be a whole number")
    values = raw["metrics"]
    declared = {m["name"] for key in ("end_to_end", "per_layer")
                for m in spec[key]}
    undeclared = sorted(set(values) - declared)
    if undeclared:
        raise ValueError(f"metrics not declared in BENCHMARK.json: "
                         f"{undeclared}")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if name not in values and not trace:
            raise ValueError(f"end-to-end metric {name} not set")
        value = values.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"metric {name} is not a number")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                      "results"))
    args = parser.parse_args()

    try:
        build_dir = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    os.makedirs(args.out, exist_ok=True)

    # The ISA is the one the dispatcher resolves on its own.
    env = {k: v for k, v in os.environ.items() if k != "BLOC_FORCE_ISA"}
    cmd = [os.path.join(build_dir, "blocbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", args.out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = stdout.strip().splitlines()
    if not lines:
        log(f"run produced no result (exit {proc.returncode})")
        return proc.returncode or 4
    try:
        result = shape_result(json.loads(lines[-1]), args.trace)
    except ValueError as e:
        log(f"malformed result: {e}")
        return 5
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
