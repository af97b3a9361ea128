#!/usr/bin/env python3
"""Builds the benchmark binary when its sources changed, then runs it.

    python3 perfbench/run.py --workload e3_live --seed 1 --seconds 30 --trace 0

Arguments are passed to the binary unchanged. The binary lands in
`$CARGO_TARGET_DIR/release` (default `perfbench/target/release`).

Freshness is decided here from modification times, not by cargo: the
ims-obs build script watches `.git/HEAD` for its git-describe stamp, and in
a checkout without `.git` a watched file that does not exist makes cargo
rerun that script and recompile every crate after it on each invocation
(about 20 s on two cores).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Everything the binary is compiled from.
SOURCES = [
    "Cargo.toml",
    "Cargo.lock",
    "src",
    "crates",
    "vendor",
    "perfbench/Cargo.toml",
    "perfbench/src",
]


def newest_source_mtime():
    newest = 0.0
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            newest = max(newest, os.stat(path).st_mtime)
        for dirpath, _, filenames in os.walk(path):
            for name in filenames:
                newest = max(newest, os.stat(os.path.join(dirpath, name)).st_mtime)
    return newest


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "perfbench", "target")
    binary = os.path.join(os.path.abspath(target), "release", "htims-perfbench")
    if not os.path.exists(binary) or os.stat(binary).st_mtime < newest_source_mtime():
        manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        )
        if build.returncode != 0:
            return build.returncode
        # cargo leaves an up-to-date binary untouched; mark it checked.
        os.utime(binary)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
