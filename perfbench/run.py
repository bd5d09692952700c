#!/usr/bin/env python3
"""Repository benchmark: build the KCM tree from source, then measure.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim_plm --seed 1 --seconds 15 --trace 0

Builds kcm_serverd and the kcm_perfbench package (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
kcm_perfbench. Every line it prints passes through; the last line
of standard output is the JSON result. Scratch files (durable journals,
span dumps) go to .bench_run/. Exits nonzero, without a result line,
when the checkout holds no KCM source tree or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sim_plm", "serve_warm", "serve_cold", "serve_durable")
# A measuring run (build excluded) must end well inside 180 s.
MEASURE_LIMIT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configure once, then an incremental build of the two targets."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "kcm_perfbench",
           "kcm_serverd", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be between 1 and 120")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("no KCM source tree here (missing %s); run from the root "
                 "of a checkout" % needed)

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    build(root, build_dir)
    serverd = os.path.join(build_dir, "kcm", "tools", "kcm_serverd")
    measurer = os.path.join(build_dir, "kcm_perfbench")
    for binary in (serverd, measurer):
        if not os.access(binary, os.X_OK):
            fail("build did not produce " + binary)

    workdir = os.path.join(root, ".bench_run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [measurer, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serverd", serverd, "--workdir", workdir,
           "--commit", source_id(root)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=MEASURE_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("kcm_perfbench exceeded the run time limit")
    sys.exit(code)


if __name__ == "__main__":
    main()
