#!/usr/bin/env python3
"""Build coopbench from source and run one workload.

    python3 perfbench/run.py --workload check --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/coopbench.exe with dune,
then runs it with the same arguments plus the machine's processor count
and a source identity for the fingerprint. The last line of standard
output is the result object; run records, spans and trace recordings go
to perfbench/out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "coopbench.exe")


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["check", "replay", "dpor", "infer"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("run.py: no dune-project at %s; run from a full checkout" % ROOT)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/coopbench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    env = {k: v for k, v in os.environ.items() if not k.startswith("COOP_")}
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--commit", source_identity()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
