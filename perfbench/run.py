#!/usr/bin/env python3
"""Build the benchmark and the `mapd` daemon from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload medium-grid8x8|wide-1024pe|serve-mix \
        --seed N --seconds S --trace 0|1

Both binaries are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the checkout root). Cargo's own output goes to stderr; the
benchmark's report line and its result line (the last line) go to stdout.
Spans of a traced run are written to
`$CARGO_TARGET_DIR/perfbench/spans-<workload>-seed<N>.jsonl`. The exit code
is the benchmark's: 0 only when every output check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the sources the benchmark builds, in a fixed order."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", os.path.basename(HERE)]
    files = []
    for root in roots:
        path = os.path.join(REPO, root)
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cargo_build(manifest, extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    done = subprocess.run(cmd + extra, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd + extra)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    for needed in ["Cargo.toml", "crates/mapd/Cargo.toml"]:
        if not os.path.isfile(os.path.join(REPO, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    cargo_build(os.path.join(REPO, "Cargo.toml"), ["-p", "tie-mapd", "--bin", "mapd"], env)
    cargo_build(os.path.join(HERE, "Cargo.toml"), [], env)

    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    # Unix socket paths are short-lived and length-limited: keep them
    # relative to the working directory the daemon shares with the bench.
    socket_dir = os.path.relpath(out_dir, REPO)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--mapd", os.path.join(target, "release", "mapd"),
        "--socket-dir", socket_dir,
        "--trace-out", os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"),
        "--commit", git_commit(),
        "--source", source_digest(),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=REPO, env=env).returncode)


if __name__ == "__main__":
    main()
