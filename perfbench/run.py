#!/usr/bin/env python3
"""Builds the TRIPS library and the perfbench program from this checkout, then
runs one workload and relays its report.

    python3 perfbench/run.py --workload city_steady --seed 7 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); reports and Chrome trace files go to
.../perfbench-out. The last line of standard output is the JSON result; build
output and errors go to standard error. Exits non-zero, without a result
line, when the build fails, the run fails or times out, or the printed
metrics do not match BENCHMARK.json.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the run after the build; a run must end within 180 s


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_digest():
    """Hash of everything the benchmark binary is built from (the checkout
    may not be a git repository)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(directory, f) for f in sorted(files)]
    for path in paths:
        if path.endswith((".cc", ".h", ".txt", ".py")) and os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    """HEAD of the checkout when it is itself a git work tree (not merely
    inside one), else "unknown"."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def run_step(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(build_dir):
    """Configures once, then builds incrementally; a build tree left by another
    configuration is configured afresh once. Serialized by a lock so
    concurrent runs in one checkout never race on the build tree."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        compile_step = ["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", str(min(4, os.cpu_count() or 1))]
        cache = os.path.join(build_dir, "CMakeCache.txt")
        fresh = not os.path.exists(cache)
        built = (not fresh or run_step(configure)) and run_step(compile_step)
        if not built and not fresh:
            for entry in os.listdir(build_dir):
                if entry != ".lock":
                    path = os.path.join(build_dir, entry)
                    if os.path.isdir(path):
                        shutil.rmtree(path)
                    else:
                        os.remove(path)
            built = run_step(configure) and run_step(compile_step)
        if not built:
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("the last output line is not JSON")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("the result line has unexpected keys")
        return False
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        log(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(base, "perfbench"))
    if binary is None:
        log("build failed")
        return 1

    work_dir = os.path.join(base, "perfbench-work", str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(base, "perfbench-out"), "--work-dir", work_dir,
           "--commit", commit(), "--source-digest", source_digest()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work_dir))  # only when no other run uses it
    except OSError:
        pass
    lines = output.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    if body:
        print("\n".join(body))
    print(f"perfbench: run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    if not valid_result(last, args.trace == 1):
        print(last, file=sys.stderr)
        return 1
    print(last, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
