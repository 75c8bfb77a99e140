#!/usr/bin/env python3
"""The benchmark's one command: build perfbench from source, then run it.

Run from the root of a colock checkout:

    python3 perfbench/run.py --workload wo-contention --seed 1 --seconds 35 --trace 0

The arguments go to perfbench/main.exe unchanged (see perfbench/NOTES.md).
The build uses dune's default profile, writes only under _build/, and
keeps dune's shared cache off so nothing is written outside the checkout.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [path for path in needed if not os.path.exists(path)]
    if missing:
        sys.stderr.write(
            "perfbench: run from the root of a colock checkout "
            "(missing: %s)\n" % ", ".join(missing))
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed (exit %d)\n" % build.returncode)
        return build.returncode
    sys.stdout.flush()
    sys.stderr.flush()
    # replace this process, so the benchmark is the only process left
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
