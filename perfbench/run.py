#!/usr/bin/env python3
"""Build the ddc library and the perfbench program, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ (Release, reused across runs); inputs,
span logs and result files go to .bench_build/work/.  The last line of
stdout is the program's JSON result.  A build failure exits non-zero
without printing a result.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"


def build():
    """Configure and build; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def commit():
    """The checkout's git commit, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    program = BUILD_DIR / "perfbench"
    args = [str(program), *sys.argv[1:], "--work-dir", str(WORK_DIR),
            "--commit", commit()]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
