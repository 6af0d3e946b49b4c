#!/usr/bin/env python3
"""Build and run the dctrain end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it inside a source checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) under
.bench_build/perfbench; later calls only re-check the build. Build output
goes to stderr, so a successful run's last stdout line is the JSON result.
Scratch files and traces stay under .bench_build/ in the checkout.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def build() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no library sources under {ROOT / 'src'}; run from a dctrain checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    return 0


def main() -> int:
    rc = build()
    if rc != 0:
        return rc
    cmd = [str(BUILD / "perfbench"), *sys.argv[1:],
           "--tmp-root", str(ROOT / ".bench_build" / "tmp"),
           "--trace-dir", str(ROOT / ".bench_build" / "traces")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
