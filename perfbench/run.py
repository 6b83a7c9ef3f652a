#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload stripe-rw --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The program is built with the local Go
toolchain into the build directory ($CARGO_TARGET_DIR, default
.bench_build), which also holds the Go caches, temporary files and the
full JSON record of every run (records/, read by compare.py). The last
line of standard output is the result object; the exit code is 0 only
when every operation succeeded and every oracle passed.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["stripe-rw", "ckpt-nm", "rebalance"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-buildvcs=false",
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def source_identity():
    """The git commit when the checkout is a repository, else a digest
    of the source files, so records of different code never compare
    as the same build."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    skip = {".git", os.path.basename(build_dir())}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if not (name.endswith(".go") or name in ("go.mod", "go.sum")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return "tree:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build = build_dir()
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env,
                           capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if b.returncode != 0:
        print("run.py: build failed:\n" + b.stdout + b.stderr, file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-commit", source_identity(), "-record-dir", os.path.join(build, "records")]
    sys.stdout.flush()
    # A terminated run.py still stops the run it started (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Freed heap pages go back with MADV_FREE, not re-faulted every
    # cycle (see main.go).
    godebug = ",".join(filter(None, [env.get("GODEBUG"), "madvdontneed=0"]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(env, GODEBUG=godebug))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
