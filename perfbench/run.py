#!/usr/bin/env python3
"""Build the benchmark and the cdse_serve daemon from source, then run it.

Run from the root of a cdse checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py diff OLD_DIR NEW_DIR
    python3 perfbench/run.py selftest

Build output goes to standard error; standard output carries only what the
benchmark prints, ending with its one-line JSON result. See README.md.
"""

import os
import shutil
import signal
import subprocess
import sys

# Sources the benchmark builds and drives; without them there is nothing
# to measure.
REQUIRED = ["dune-project", "bin/cdse_serve.ml", "lib/serve/server.ml", "bench/experiments.ml",
            "perfbench/main.ml"]
TARGETS = ["./perfbench/main.exe", "./bin/cdse_serve.exe"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print("perfbench: run from the root of a cdse checkout; missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    cmd = dune()
    if cmd is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(cmd + ["build", "--root", "."] + TARGETS, stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    child = subprocess.Popen([EXE] + sys.argv[1:])
    # A stopped run passes the signal on, so the benchmark reaps its daemons.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: child.send_signal(signum))
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
