#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload http-push --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports the
repository's packages from the checkout. This script builds it once per
source state into the build directory (CARGO_TARGET_DIR when set, else
.bench_build) with every Go cache and temporary directory inside that
directory, then runs the binary with the given arguments. The binary's last
stdout line is the JSON result; its exit code is passed through.
"""

import hashlib
import os
import subprocess
import sys

sys.dont_write_bytecode = True

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def source_digest(root):
    """Hash every Go source and module file the benchmark build reads."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(root, bench_dir, out_dir):
    binary = os.path.join(out_dir, "perfbench")
    stamp = binary + ".stamp"
    digest = source_digest(root)
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return binary
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(out_dir, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOENV="off",
               GOTELEMETRY="off", CGO_ENABLED="0")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                          stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("go build failed with exit code %d" % proc.returncode)
    with open(stamp, "w") as f:
        f.write(digest)
    return binary


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.exists(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("perfbench: the repository sources (go.mod, internal/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    try:
        binary = build(root, bench_dir, out_dir)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as err:
        print("perfbench: build: %s" % err, file=sys.stderr)
        return 2
    args = [binary, "--out-dir", out_dir] + sys.argv[1:]
    try:
        proc = subprocess.run(args, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
