#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload ipgeo-read --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  The driver (perfbench/driver.cpp) is
configured and built on first use under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only re-check the build.  Each
run works in a fresh directory under that build tree, which is removed when
the run ends, whether it passed or not.  The driver's standard output is
passed through; its last line is the JSON result.  Build output goes to
standard error.  Exits non-zero, without a result line, if the checkout
has no sources to build, the build fails, or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ipgeo-read", "rs-update", "stack-durable")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that the output check rejects wrong answers")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        driver = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    name = "self-test" if args.self_test else f"{args.workload}-{args.seed}"
    work = os.path.join(out, "runs", f"{name}-{os.getpid()}")
    cmd = [driver, f"--work-dir={work}"]
    if args.self_test:
        cmd.append("--self-test")
    else:
        spans = os.path.join(out, "spans", f"{name}.csv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += [f"--workload={args.workload}", f"--seed={args.seed}",
                f"--seconds={args.seconds}", f"--trace={args.trace}",
                f"--spans={spans}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if args.self_test:
        print("\n".join(lines))
        return proc.returncode
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print("\n".join(lines), file=sys.stderr)
        print("perfbench: driver printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
