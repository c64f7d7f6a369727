#!/usr/bin/env python3
"""Build orfd and the orfbench harness from source, then run one workload.

    python3 orfbench/run.py --workload ingest|score|mixed --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build lives in $CARGO_TARGET_DIR (default
.bench_build) under the root; the first run configures and compiles, later
runs only relink what changed. Build output goes to stderr, so the harness's
last stdout line — the result object — stays the last line. Exits non-zero
without a result when the source tree or the build is missing or broken.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def source_id():
    """A digest of the source tree the harness builds (the checkout may not
    be a git repository)."""
    digest = hashlib.sha256()
    for base in ("src", os.path.basename(HERE)):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "orfbench"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "score", "mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("orfbench: no orf source tree next to the benchmark",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"orfbench: build failed: {error}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    command = [os.path.join(build_dir, "orfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--source-id", source_id()]
    # Own process group, so a timeout also takes down the orfd it spawned.
    harness = subprocess.Popen(command, start_new_session=True)
    try:
        return harness.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        print("orfbench: harness timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
