#!/usr/bin/env python3
"""Build and run the wstm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The script configures and builds
perfbench/ (which compiles the library from src/) in $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the decorator self-test, then runs
the benchmark. `perfbench_run` prints every metric by name with its unit and, as its
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
Build and self-test output goes to stderr. The exit code is non-zero when
the build, the self-test or any run fails validation.

Workloads: list-update, hashtable-short, serve-zipf (see perfbench/README.md).
`--workload all` runs each of them untraced, then traced, and ends with one
JSON line whose metrics are keyed "<workload>/<metric>".
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
WORKLOADS = ("list-update", "hashtable-short", "serve-zipf")


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench_run",
                    "perfbench_selftest"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics; ignored with --workload all")
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        build(build_dir)
        subprocess.run([str(build_dir / "perfbench_selftest")], check=True, stdout=sys.stderr,
                       timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build or self-test failed: {e}", file=sys.stderr)
        return 1

    rev = source_rev()
    if args.workload != "all":
        return run_one(build_dir, args.workload, args.seed, args.seconds, args.trace, rev)[0]

    code = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, result = run_one(build_dir, workload, args.seed, args.seconds, trace, rev)
            code = code or rc
            if result is None:
                summary["correct"] = False
                continue
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return code


def run_one(build_dir, workload, seed, seconds, trace, rev):
    """Runs perfbench_run once, passing its output through; returns (exit code, result)."""
    cmd = [str(build_dir / "perfbench_run"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--rev", rev]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


if __name__ == "__main__":
    sys.exit(main())
