#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark binary from
perfbench/CMakeLists.txt against ../src (into $CARGO_TARGET_DIR, default
.bench_build, under the current directory), then runs one workload and
passes its output through. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones (see perfbench/README.md).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("randwrite-gcm-objend", "randread-hmac-omap",
             "rwmix-sub4k-compress", "tenants-9osd-4core")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures once, then lets the build tool decide what is stale."""
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.call(["cmake", "-S", HERE, "-B", bdir,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=log, stderr=log)
        if rc != 0:
            return rc
    return subprocess.call(["cmake", "--build", bdir, "-j", "4"],
                           stdout=log, stderr=log)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    if build(bdir) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
