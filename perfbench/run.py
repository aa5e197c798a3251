#!/usr/bin/env python3
"""Builds and runs the ppds end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --help

Run it from the root of a ppds source tree. It configures and builds
perfbench/ (which pulls in the library from the enclosing tree) into
.bench_build/perfbench with an optimized RelWithDebInfo build, then runs one
workload. Build output goes to standard error; the benchmark's report goes to
standard output, and its last line is the JSON result. Traced runs
(--trace 1) also write their spans to .bench_build/traces/.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ppds_perfbench"
# A run must end within 180 s; leave room to stop the child.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ppds_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                    stderr=sys.stderr, check=False)
        except OSError as err:
            print(f"perfbench: cannot run {step[0]}: {err}", file=sys.stderr)
            return False
        if result.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return BINARY.exists()


def source_id():
    """The commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    roots = [ROOT / "CMakeLists.txt", ROOT / "src", ROOT / "include",
             ROOT / "apps", HERE]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(p for p in root.rglob("*") if p.is_file())
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    # On SIGTERM, exit through an exception: subprocess.run then kills and
    # reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--help", "-h", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args, rest = parser.parse_known_args()
    if rest:
        print(f"perfbench: unknown arguments {rest}", file=sys.stderr)
        return 2
    if not args.help and not args.workload:
        print(__doc__, file=sys.stderr)
        return 2

    if not build():
        return 2
    if args.help:
        print(__doc__)
        return subprocess.run([str(BINARY), "--help"], check=False).returncode

    command = [str(BINARY), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--commit", source_id()]
    if args.trace == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
