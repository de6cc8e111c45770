#!/usr/bin/env python3
"""End-to-end benchmark of the ltsc fleet simulator.

    python3 perfbench/run.py --workload fleet_control --seed 1 --seconds 10 --trace 0

Builds the benchmark (Release, from the sources in this checkout) into
.bench_build/perfbench unless it is up to date, then runs one workload
and passes its output through.  The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; build logs
go to standard error.  Result files and the traced run's spans are
written under .bench_build/perfbench/results.

Exit status: the benchmark's own (0 for a completed run, even one with
failed output checks), or non-zero without a result line when the
sources are missing, the build fails, or the run errors out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_control", "rollout_mpc")
# A run measures for --seconds after a warm-up, and sets up, re-runs
# sampled scenarios and the Table-I cells around that; this allows for
# all of it at any --seconds (170 s at --seconds 30).
def run_timeout_s(seconds):
    return 110 + 2 * seconds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build-output root (relative
    # paths are taken from the checkout root).
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("the ltsc sources (CMakeLists.txt, src/) are not beside perfbench/")
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", out, "--target", "ltsc_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def git_sha():
    """Short SHA of the checkout with a -dirty mark, or 'unknown' when
    the checkout is not a git repository (only its own .git is read)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds in [1, 3600]")

    out = build_dir()
    if not build(out):
        return 1
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [
        os.path.join(out, "ltsc_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", results,
        "--git-sha", git_sha(),
    ]
    try:
        run = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=run_timeout_s(args.seconds)
        )
    except subprocess.TimeoutExpired:
        log(f"run exceeded {run_timeout_s(args.seconds)} s and was stopped")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        log(f"benchmark exited with status {run.returncode}")
        return run.returncode
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        log("benchmark printed no result line")
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
