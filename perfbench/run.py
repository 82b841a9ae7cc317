#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/main.cc).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form configures and builds the benchmark from source into
$CARGO_TARGET_DIR (default .bench_build) under the repository root, runs
one workload in one process, and re-prints its output. Its last line is
the result object {correct, attempted, failed, metrics}, printed only
after it has been checked against BENCHMARK.json; any failure exits
non-zero without a result. --selftest builds and runs the benchmark's
own tests and checks BENCHMARK.json against the metric catalogue.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # every run must end within 180 s
BUILD_LIMIT_S = 700  # the first run in a checkout builds; it may take 900 s

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = sys.stderr
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=log, stderr=log, timeout=BUILD_LIMIT_S)
        subprocess.run(
            ["cmake", "--build", str(out), "--target", target, "-j",
             str(os.cpu_count() or 1)],
            check=True, stdout=log, stderr=log, timeout=BUILD_LIMIT_S)
    binary = out / target
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def revision():
    """git revision when the checkout has one, plus a digest of the
    sources the benchmark builds, so every result names its code."""
    rev = "nogit"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = ROOT / ".git" / text[5:]
            rev = ref.read_text().strip()[:12] if ref.is_file() else text[5:]
        else:
            rev = text[:12]
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in BENCH_DIR.iterdir() if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return f"{rev}+tree:{digest.hexdigest()[:12]}"


def declared_metrics():
    """BENCHMARK.json's metric lists: {"end_to_end": {name: unit}, ...}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }, [w["name"] for w in spec["workloads"]]


def check_result(line, trace):
    """The result line, re-serialised, when it matches BENCHMARK.json."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    expected = declared_metrics()[0]["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got)} differ from BENCHMARK.json "
             f"{sorted(expected)}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], (int, float)):
            fail(f"metric {name} is malformed: {metric}")
    return json.dumps(result)


def run(args):
    _, workloads = declared_metrics()
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has "
             f"{workloads}")
    binary = build("perfbench")
    env = dict(os.environ, PPR_THREADS=str(os.cpu_count() or 1))
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--revision", revision()]
    if args.trace:
        command += ["--trace-out", str(
            build_dir() / f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_LIMIT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"workload {args.workload} exited {proc.returncode} "
             "without a result")
    result = check_result(lines[-1], args.trace)
    print("\n".join(lines[:-1]))
    print(result, flush=True)


def selftest():
    """Checks BENCHMARK.json against its format rules and the binary's
    metric catalogue, then runs the C++ tests."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    problems = []
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or \
                "\n" in w["why"]:
            problems.append(f"workload {w['name']} is malformed")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end {m['name']} is malformed")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer {m['name']} is malformed")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT_RE.match(m["unit"]) or m["better"] not in (
                "lower", "higher"):
            problems.append(f"metric {m['name']} has a bad unit or better")
    if "setup_s" not in [m["name"] for m in spec["end_to_end"]]:
        problems.append("no setup_s")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("workload count out of range")
    if not isinstance(spec["run_seconds"], int) or \
            not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds out of range")

    catalogue = subprocess.run(
        [str(build("perfbench")), "--list-metrics"], check=True,
        capture_output=True, text=True).stdout.split("\n")
    declared = declared_metrics()[0]
    listed = {"end_to_end": {}, "per_layer": {}}
    for row in filter(None, catalogue):
        name, unit, kind = row.split()
        listed[kind][name] = unit
    for kind in listed:
        if listed[kind] != declared[kind]:
            problems.append(f"{kind}: catalogue {listed[kind]} != "
                            f"BENCHMARK.json {declared[kind]}")
    for problem in problems:
        print(f"FAIL {problem}")
    tests = subprocess.run([str(build("perfbench_tests"))])
    ok = not problems and tests.returncode == 0
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    # A terminated run raises SystemExit inside subprocess.run, which then
    # kills and reaps the child before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.selftest:
        sys.exit(selftest())
    if not args.workload:
        parser.error("--workload is required")
    start = time.monotonic()
    try:
        run(args)
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    print(f"perfbench: {time.monotonic() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
