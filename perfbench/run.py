#!/usr/bin/env python3
"""Build the benchmark driver from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload allreduce16 --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --self-check

The driver prints its metrics and, as the last line of standard output,
one JSON object.  --self-check runs every workload of BENCHMARK.json at
the tiny scale, untraced and traced, and fails unless each run is
correct and emits exactly the metrics BENCHMARK.json names, with their
units.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")


def build():
    # The dune cache lives outside the checkout; keep every build output
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/main.exe"]
    status = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env).returncode
    if status != 0:
        sys.exit("perfbench: build failed (exit %d)" % status)


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (workload["name"], trace)
            proc = subprocess.run(
                [EXE, "--workload", workload["name"], "--seed", "0",
                 "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (label, proc.returncode, proc.stderr))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: incorrect run\n%s" % (label, proc.stderr))
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append("%s: missing %s, unexpected %s, unit mismatch %s"
                                % (label, missing, extra, units))
            print("%-28s %d metrics ok" % (label, len(got)) if got == want else label)
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--self-check"]:
        sys.exit(self_check())
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
