#!/usr/bin/env python3
"""Build the program from source and run one end-to-end benchmark workload.

    python3 e2ebench/run.py --workload upload_day --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds into
.bench_build/e2ebench (Release); later runs rebuild incrementally. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. Exits non-zero, printing no result, when the build fails or the
benchmark cannot run. See e2ebench/LAYERS.md for what is measured.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("upload_day", "query_city")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and not os.path.exists(
        os.path.join(BUILD, "Makefile")
    ):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True,
            stdout=sys.stderr,
        )
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", "4"],
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(BUILD, "e2ebench")


def source_digest():
    """SHA-1 over the program's and the benchmark's sources."""
    h = hashlib.sha1()
    for top in ("src", "e2ebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            check=True,
            capture_output=True,
            text=True,
        )
        return out.stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("e2ebench: no program sources next to the benchmark", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 2

    run_dir = os.path.join(RUNS, f"{args.workload}-{os.getpid()}")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", run_dir,
        "--commit", commit(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
