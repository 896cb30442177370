#!/usr/bin/env python3
"""Host-time benchmark of the Pipeleon emulator and runtime.

Builds hostbench (and the Pipeleon libraries it links) from source into
.bench_build/ at the repository root, then runs one workload:

    python3 hostbench/run.py --workload fwd_tiny --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (its chrome trace lands in .bench_out/). The last line
of stdout is the JSON result; build output goes to stderr. The exit code is
non-zero when the build fails or a correctness check fails.

    python3 hostbench/run.py --self-test

runs every workload for one second in both modes and prints their metrics,
checks that each metric named in BENCHMARK.json is printed with its unit, and
checks that an injected fault (an RX ring smaller than the burst) fails the
correctness gate. It exits non-zero when any of that fails.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "hostbench"

WORKLOADS = ("fwd_tiny", "flowcache_zipf", "lb_churn")
DEFAULT_SEED = 1
# Held out: never used while the benchmark was written or tuned. A claimed
# gain must also hold on this seed.
HELD_OUT_SEED = 20231010


def build():
    """Configures once, then builds incrementally. Output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "hostbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def run_binary(args, capture=False):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(ROOT / ".bench_out")]
    if args.fault:
        cmd += ["--fault", args.fault]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED,
                                      seconds=1, trace=trace, fault=None)
            proc = run_binary(args, capture=True)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: not correct or failures reported")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}, "
                                f"unit mismatches {sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])}")
            print(f"{tag}: " + ", ".join(
                f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()))

    args = argparse.Namespace(workload="fwd_tiny", seed=DEFAULT_SEED, seconds=1,
                              trace=0, fault="small-ring")
    proc = run_binary(args, capture=True)
    match = re.search(r"failed_frac=([0-9.eE+-]+)", proc.stderr)
    if proc.returncode == 0:
        problems.append("fault run: gate passed with an RX ring smaller than the burst")
    if match is None or float(match.group(1)) <= 0.0:
        problems.append("fault run: failed_frac not reported above 0")
    if proc.stdout.strip() and proc.stdout.strip().splitlines()[-1].startswith("{"):
        problems.append("fault run: printed a result despite the failed gate")
    print(f"self-test: fault run: exit {proc.returncode}, "
          f"failed_frac={match.group(1) if match else '?'}", file=sys.stderr)

    for p in problems:
        print(f"self-test: FAIL: {p}", file=sys.stderr)
    print("self-test: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("small-ring",))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    return run_binary(args).returncode


if __name__ == "__main__":
    sys.exit(main())
