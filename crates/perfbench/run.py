#!/usr/bin/env python3
"""Build and run the encrypted-write-path benchmark.

Usage, from the root of the repository:

    python3 crates/perfbench/run.py --workload <serve-mixed|stream-vcc256|lifetime-coset>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, with path
dependencies on the repository's crates) in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), runs it,
and prints its output. The line before the result carries the host
fingerprint: CPU model, nproc, rustc version, commit (when the tree is a git
checkout), a digest of the sources, the seed and the workload's input sizes.
The last line is the result JSON. Exits non-zero, printing no result, when
the build or the run fails.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# What the digest covers: everything the benchmark binary is built from.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def fail(message):
    print(f"crates/perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
                files.extend(os.path.join(dirpath, f) for f in filenames)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint():
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "rustc": command_output(["rustc", "--version"]),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target_dir = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
        env["CARGO_TARGET_DIR"] = target_dir
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if built.returncode != 0:
        fail("build failed")

    binary = os.path.join(target_dir, "release", "perfbench")
    try:
        ran = subprocess.run([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    if ran.returncode != 0:
        fail(f"benchmark exited with {ran.returncode}")

    lines = ran.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("benchmark result has the wrong keys")
    host = fingerprint()
    for line in lines[:-1]:
        if line.startswith('{"stamp":'):
            stamp = json.loads(line)
            stamp["stamp"].update(host)
            line = json.dumps(stamp)
        print(line)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
