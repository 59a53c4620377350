#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE] [--trace-dir DIR]

Run it from the repository root (or anywhere: paths are taken from this
file's location).  It builds benchmark/main.exe with dune in release
mode into benchmark/.build/, stamps the run with the source revision,
and runs the executable with the given arguments.  The executable's
last line of output is the result as JSON; see benchmark/README.md.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# dune skips directories whose names start with a dot, so the build
# directory can sit inside the source tree.
BUILD_DIR = os.path.join(ROOT, "benchmark", ".build")


def revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            # Skip build directories (.build, _build), as dune does.
            dirnames[:] = sorted(d for d in dirnames if d[0] not in "._")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "source-sha256:" + h.hexdigest()[:16]


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("run.py: the simulator's sources (dune-project, lib/) are not "
              "next to benchmark/", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./benchmark/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: the build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "benchmark", "main.exe")
    args = sys.argv[1:]
    if "--commit" not in args:
        args += ["--commit", revision()]
    return subprocess.run([exe] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
