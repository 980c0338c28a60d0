#!/usr/bin/env python3
"""Build the ldapschema daemon and the benchmark from source, then run
one workload and pass its output through.

    python3 perfbench/run.py --workload read|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of the repository.  Build products go to
.bench_build/, stores to .bench_work/.  The last line of standard
output is the run's JSON result; it is checked for shape before this
script exits 0.  See perfbench/NOTES.md.
"""
import json
import os
import subprocess
import sys

BUILD = ".bench_build"
EXE = os.path.join(BUILD, "default", "bin", "ldapschema.exe")
PB = os.path.join(BUILD, "default", "perfbench", "pb.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD,
         "--profile", "release", "./bin/ldapschema.exe", "./perfbench/pb.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    run = subprocess.run(
        [PB, *sys.argv[1:], "--exe", os.path.abspath(EXE),
         "--work", os.path.abspath(".bench_work")],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if (not isinstance(result, dict)
            or sorted(result) != ["attempted", "correct", "failed", "metrics"]):
        sys.exit("run.py: malformed result line")


if __name__ == "__main__":
    main()
