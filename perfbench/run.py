#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload ingest-durable --seed 1 --seconds 10 --trace 0

Run it from the repository root. The Go toolchain's caches and the binary go
to .bench_build/ in the root, so nothing outside the checkout is read or
written besides the toolchain itself. Every argument is passed to the
benchmark binary; the last line it prints is the JSON result. The exit status
is the binary's, or 1 when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the Go sources of the tree: the commit stand-in for
    checkouts that are not git repositories."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOENV="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    go = shutil.which("go") or "/usr/local/go/bin/go"
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    try:
        build = subprocess.run(
            [go, "build", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stderr.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
