#!/usr/bin/env python3
"""cqcount benchmark runner.

Builds perfbench (Release) from the sources in this checkout, generates the
workload's inputs from the seed, runs it and relays its output; the last
stdout line is the result JSON.

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default .bench_build), generated inputs and traces to .bench_work.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["sampling", "shape-mix", "large-db"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the binary's path."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def run_workload(binary, workload, seed, seconds, trace, tiny=False):
    """Generates inputs and runs one workload; returns (stdout lines, result)."""
    work = ROOT / ".bench_work" / workload
    gen = [str(binary), "gen", "--workload", workload, "--seed", str(seed),
           "--out", str(work)]
    subprocess.run(gen + (["--tiny"] if tiny else []), check=True,
                   stdout=sys.stderr, timeout=170)
    proc = subprocess.run(
        [str(binary), "run", "--workload", workload, "--dir", str(work),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=175)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench run exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return lines, result


def self_check(binary):
    """Every workload, both modes, at tiny size: seconds, not minutes."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_workload(binary, workload, 1, 1, trace, tiny=True)
            passed = result["correct"] and result["failed"] == 0
            ok = ok and passed
            for line in lines[:-1]:
                if line.startswith("# problem"):
                    log(line)
            log(f"{workload} trace={trace}: {'ok' if passed else 'FAILED'} "
                f"({result['attempted']} requests, "
                f"{len(result['metrics'])} metrics)")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    try:
        binary = build()
        if args.self_check:
            return 0 if self_check(binary) else 1
        lines, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                                args.trace)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as e:
        log(f"run.py: {e}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
