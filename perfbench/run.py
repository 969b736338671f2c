#!/usr/bin/env python3
"""Build and run the CMTL end-to-end benchmark.

usage: python3 perfbench/run.py --workload <name> --seed <n>
                                --seconds <s> --trace <0|1>

Run from the repository root. The script configures and builds
perfbench/ (which compiles the CMTL libraries from src/) into
.bench_build/, then runs one measurement. Everything the run writes
stays under .bench_build/: the build tree, the warm JIT cache, cold
scratch caches, the compiler's temporary files and trace files.
Build output goes to stderr; the last line of stdout is the run's
JSON result. Without the sources in src/ the build fails and the
script exits non-zero without a result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
# The compiler's temporary files stay under the work dir too.
ENV = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def revision():
    """The git revision, or a hash of the sources outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    """Configure once, then build; output goes to stderr."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
           "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr,
                      env=ENV).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    build()
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", args.seed, "--seconds", args.seconds,
                           "--trace", args.trace, "--work-dir", WORK,
                           "--revision", revision()], env=ENV)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
