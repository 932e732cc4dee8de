#!/usr/bin/env python3
"""Builds and runs the AFT end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the program from ../src) into $CARGO_TARGET_DIR,
default .bench_build. A run prints the benchmark's report and, as its last
line, one JSON object with the metrics BENCHMARK.json names: the end-to-end
ones with --trace 0, the per-layer ones with --trace 1. It exits 1 without a
result when the build or a metric is missing, and 1 after the result when a
correctness check failed.

--self-check runs every workload briefly (tcp-durable too, which
BENCHMARK.json does not gate), traced and untraced, and fails if any named
metric is missing or non-finite, or an end-to-end metric has a zero sample
count.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Every workload the binary runs; BENCHMARK.json lists the gated ones.
ALL_WORKLOADS = ("s3-fig3", "tcp-mem", "tcp-durable")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    build_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "aft_perfbench"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                log(f"perfbench: build step failed: {err}")
                return None
            if done.returncode != 0:
                log(f"perfbench: build step failed: {' '.join(step)}")
                return None
    binary = os.path.join(build_dir, "aft_perfbench")
    return binary if os.path.exists(binary) else None


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, report lines, result dict or None)."""
    work_dir = os.path.join(target_dir(), "work")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S}s")
        return 1, [], None
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def select(spec, result, trace):
    """The metrics BENCHMARK.json names for this mode, or an error string."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, samples = {}, {}
    for entry in wanted:
        name = entry["name"]
        got = result["metrics"].get(name)
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            return None, None, f"metric {name} is missing or not finite"
        if got["unit"] != entry["unit"]:
            return None, None, f"metric {name} has unit {got['unit']}, expected {entry['unit']}"
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
        samples[name] = got["samples"]
    return metrics, samples, None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args):
    spec = load_spec()
    binary = build()
    if binary is None:
        return 1
    code, lines, result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        log("perfbench: the run printed no result")
        return 1
    metrics, samples, err = select(spec, result, args.trace)
    if err:
        log(f"perfbench: {err}")
        return 1
    print("samples: " + json.dumps(samples))
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if result["correct"] and code == 0 else 1


def self_check(seconds):
    spec = load_spec()
    binary = build()
    if binary is None:
        return 1
    ok = True
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    gated = [w["name"] for w in spec["workloads"]]
    for workload in gated + [w for w in ALL_WORKLOADS if w not in gated]:
        for trace in (0, 1):
            code, _, result = run_binary(binary, workload, 1, seconds, trace)
            problems = []
            if result is None or code != 0 or not result.get("correct"):
                problems.append(f"run failed (exit {code})")
            else:
                _, samples, err = select(spec, result, trace)
                if err:
                    problems.append(err)
                else:
                    problems += [f"{name} has no samples" for name, n in samples.items()
                                 if n == 0 and name in end_to_end]
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-check {workload} trace={trace}: {status}", flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check(seconds=2)
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
