#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 35 --trace 0

Every argument is passed to the command. The Go build cache, the binary and
the run's scratch files all live in the build directory (CARGO_TARGET_DIR if
set, else .bench_build), so nothing is written outside the checkout. The exit
code is the command's; a failed build exits 2 without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go", "cache"),
        "GOPATH": os.path.join(build, "go", "path"),
        "GOMODCACHE": os.path.join(build, "go", "path", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "go", "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "go", "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
