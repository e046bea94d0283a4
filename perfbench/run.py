#!/usr/bin/env python3
"""Build and run the JITBULL cost benchmark (README.md in this directory).

    python3 perfbench/run.py --workload octane --seed 1 --seconds 25 --trace 0

Run from the root of a JITBULL checkout. The benchmark executable is built
from source with dune (release profile) on first use; the run's report goes
to standard output, whose last line is the JSON result. Exits non-zero,
without a result, when there is no source tree to build or the build or the
run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("octane", "compile_storm", "vuln_window")


def build():
    """Build the benchmark executable; exit non-zero when that fails."""
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        sys.exit("perfbench: no JITBULL source tree (dune-project, lib/) next to perfbench/")
    cmd = [
        "dune", "build", "--root", ROOT, "--profile", "release",
        "--display", "quiet", "./perfbench/perfbench.exe",
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=850, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: build failed: {exc}")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.exit(f"perfbench: build failed (dune exit {proc.returncode})")


def run(args, timeout=175):
    """Run the executable with [args]; return its standard output."""
    try:
        proc = subprocess.run(
            [EXE] + args, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE, text=True
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    if proc.returncode != 0:
        sys.exit(f"perfbench: run failed (exit {proc.returncode})")
    return proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    out = run([
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
    ])
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
