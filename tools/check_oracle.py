#!/usr/bin/env python3
"""Check the emulator's deterministic outputs against committed goldens.

Emulated cycles, counters and the figure tables built from them are outputs
of the cost model, so they are deterministic. A change to how the emulator
runs (not to what it models) must leave them byte-identical. Goldens live in
tests/golden/ and are generated from a known-good commit with --write.

  tools/check_oracle.py bench BINARY GOLDEN [--write]
      Runs one figure bench with PIPELEON_BENCH_DIR set to a fresh temporary
      directory, drops its "[bench-report]" lines (they name that
      directory), and compares the rest of its stdout with GOLDEN.

  tools/check_oracle.py hostbench GOLDEN [--write]
      Runs every BENCHMARK.json workload at seeds 1 and 20231010 through
      this checkout's hostbench/run.py (which builds hostbench first) and
      compares their "hostbench: digest" lines, which cover set-up and
      warm-up, with GOLDEN: one "<workload> <seed> <digest>" line each. The
      timed phase does not enter the digest, so each run lasts 0.2 s.

Exit status: 0 = outputs match (or were written), 1 = they differ,
2 = the program under test failed.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 20231010)
SECONDS = 0.2
DIGEST = "hostbench: digest "


class RunFailed(Exception):
    pass


def bench_output(binary: str) -> str:
    with tempfile.TemporaryDirectory(prefix="oracle-") as out_dir:
        env = dict(os.environ, PIPELEON_BENCH_DIR=out_dir)
        proc = subprocess.run([binary], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{binary}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines(keepends=True)
    return "".join(l for l in lines if not l.startswith("[bench-report]"))


def hostbench_output() -> str:
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = []
    for workload in workloads:
        for seed in SEEDS:
            cmd = [sys.executable, str(ROOT / "hostbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            digests = [l[len(DIGEST):] for l in proc.stdout.splitlines()
                       if l.startswith(DIGEST)]
            if proc.returncode != 0 or len(digests) != 1:
                raise RunFailed(f"{workload} seed {seed}: exit "
                                f"{proc.returncode}\n{proc.stderr[-2000:]}")
            out.append(f"{workload} {seed} {digests[0]}\n")
    return "".join(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    b = sub.add_parser("bench", help="compare one figure bench's stdout")
    b.add_argument("binary")
    b.add_argument("golden", type=Path)
    h = sub.add_parser("hostbench", help="compare the hostbench digests")
    h.add_argument("golden", type=Path)
    for p in (b, h):
        p.add_argument("--write", action="store_true",
                       help="store the output as the golden instead")
    args = ap.parse_args()

    try:
        got = (bench_output(args.binary) if args.mode == "bench"
               else hostbench_output())
    except RunFailed as e:
        print(f"check_oracle: {e}", file=sys.stderr)
        return 2
    if args.write:
        args.golden.write_text(got)
        print(f"check_oracle: wrote {args.golden}")
        return 0
    want = args.golden.read_text()
    if got == want:
        print(f"check_oracle: matches {args.golden}")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        str(args.golden), "this build"))
    print(f"check_oracle: output differs from {args.golden}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
