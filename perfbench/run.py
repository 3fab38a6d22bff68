#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads: mlpo_40b, zero3_40b, uring_real, tenancy_3to1 (see
BENCHMARK.json). The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; run artefacts (storage objects, traces) go
to <build dir>/out. Build output is sent to stderr so the last line of
stdout stays the binary's JSON result.
"""
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parent


def main() -> int:
    if not (SOURCE_ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: the mlpo library sources (src/) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    build_root = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = pathlib.Path.cwd() / build_root
    build_dir = build_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    binary = build_dir / "perfbench"
    out_dir = build_root / "out"
    sys.stdout.flush()
    # exec replaces this process, so no child outlives the run.
    os.execv(str(binary),
             [str(binary), *sys.argv[1:], "--out-dir", str(out_dir)])
    return 0  # not reached


if __name__ == "__main__":
    sys.exit(main())
