#!/usr/bin/env python3
"""Same-box A/B of the perfbench workloads: a base revision against the
working tree.

Run from the repository root (or through `make ab`):

    python3 bench/ab.py --base HEAD~1 --pairs 10

Checks BASE out with `git worktree` under _build/ab/, then runs
`python3 perfbench/run.py --workload W --seed S --seconds N --trace T`
in both trees for every workload W of BENCHMARK.json, at its
`run_seconds` N, alternating which side goes first in each pair.  Then
it alternates PAIRS runs of `engine_bench --fwd-only` (the single-switch
forwarding bench, `Switch.receive` through the port events) in the same
way.  A run that is incorrect or has failed operations stops the A/B.
Writes one JSON file with, per workload and metric, each side's median,
p25 and p75, the median delta, and the pairs the working tree won (by
the metric's `better` direction in BENCHMARK.json; ties count for
neither side), the same summary of the forwarding bench's
`packets_per_sec` under `fwd`, plus nproc and the OCaml version.  The
worktree is removed when the runs end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, "_build", "ab")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def add_worktree(rev):
    path = os.path.join(AB_DIR, "base")
    if os.path.exists(path):
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", path],
                       capture_output=True)
        shutil.rmtree(path, ignore_errors=True)
    git("worktree", "prune")
    os.makedirs(AB_DIR, exist_ok=True)
    git("worktree", "add", "--detach", path, rev)
    return path


def remove_worktree(path):
    subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", path],
                   capture_output=True)
    git("worktree", "prune")


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("ab: %s failed (exit %d)\n%s"
                 % (" ".join(cmd), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("ab: incorrect run or failed operations: %s\n%s" % (" ".join(cmd), proc.stderr))
    return {k: v["value"] for k, v in result["metrics"].items()}


def run_fwd(tree):
    out = os.path.join(tree, "_build", "ab_fwd.json")
    cmd = ["dune", "exec", "--root", ".", "--display", "quiet",
           "bench/engine_bench.exe", "--", "--fwd-only", "--out", out]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("ab: %s failed in %s (exit %d)\n%s"
                 % (" ".join(cmd), tree, proc.returncode, proc.stderr))
    with open(out) as f:
        fwd = json.load(f)["fwd"]
    return {"packets_per_sec": fwd["packets_per_sec"]}


def alternate(pairs, label, run):
    runs = {"base": [], "change": []}
    for i in range(pairs):
        order = ["base", "change"]
        if i % 2:
            order.reverse()
        for side in order:
            runs[side].append(run(side))
        print("ab: %s pair %d/%d done" % (label, i + 1, pairs), file=sys.stderr)
    return runs


def spread(xs):
    if len(xs) < 2:
        return {"median": xs[0], "p25": xs[0], "p75": xs[0]}
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "p25": q[0], "p75": q[2]}


def summarize(base_runs, change_runs, better):
    out = {}
    for name in base_runs[0]:
        b = [r.get(name) for r in base_runs]
        c = [r.get(name) for r in change_runs]
        if not all(isinstance(x, (int, float)) for x in b + c):
            continue
        sign = -1 if better.get(name) == "lower" else 1
        won = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        lost = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
        sb, sc = spread(b), spread(c)
        out[name] = {
            "better": better.get(name, "higher"),
            "base": sb,
            "change": sc,
            "delta_frac": (sc["median"] / sb["median"] - 1) if sb["median"] else None,
            "pairs_won": won,
            "pairs_lost": lost,
            "base_runs": b,
            "change_runs": c,
        }
    return out


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                              capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", default="BENCH_ab.json",
                    help="report file (the held-out seed and traced runs "
                    "are kept next to the default one)")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("ab: --pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    base_rev = git("rev-parse", args.base)
    dirty = git("status", "--porcelain", "--untracked-files=no") != ""
    change_rev = git("rev-parse", "HEAD") + ("+dirty" if dirty else "")

    base_tree = add_worktree(base_rev)
    try:
        report = {
            "base": base_rev,
            "change": change_rev,
            "pairs": args.pairs,
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "ocaml": ocaml_version(),
            "workloads": {},
        }
        trees = {"base": base_tree, "change": ROOT}
        for w in (wl["name"] for wl in spec["workloads"]):
            runs = alternate(args.pairs, w, lambda side: run_once(
                trees[side], w, args.seed, seconds, args.trace))
            report["workloads"][w] = summarize(runs["base"], runs["change"], better)
        runs = alternate(args.pairs, "fwd", lambda side: run_fwd(trees[side]))
        report["fwd"] = summarize(runs["base"], runs["change"],
                                  {"packets_per_sec": "higher"})
    finally:
        remove_worktree(base_tree)

    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    sections = list(report["workloads"].items()) + [("fwd", report["fwd"])]
    for w, metrics in sections:
        print("%s (base %s, %d pairs)" % (w, base_rev[:7], args.pairs))
        for name, m in metrics.items():
            delta = "" if m["delta_frac"] is None else "%+.2f%%" % (100 * m["delta_frac"])
            print("  %-36s base %-12.6g change %-12.6g %9s  won %d/%d"
                  % (name, m["base"]["median"], m["change"]["median"], delta,
                     m["pairs_won"], args.pairs))


if __name__ == "__main__":
    main()
