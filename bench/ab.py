#!/usr/bin/env python3
"""Same-box A/B of the perfbench workloads: a base revision against the
working tree.

Run from the repository root (or through `make ab` / `make stores-ab`):

    python3 bench/ab.py --base HEAD~1 --pairs 10
    python3 bench/ab.py --base HEAD~1 --pairs 3 --stores

Checks BASE out with `git worktree` under _build/ab/, then runs
`python3 perfbench/run.py --workload W --seed S --seconds N --trace T`
in both trees for every workload W of BENCHMARK.json, at its
`run_seconds` N, alternating which side goes first in each pair.  Then
it alternates PAIRS runs of `engine_bench --fwd-only` (the single-switch
forwarding bench, `Switch.receive` through the port events) and PAIRS
runs of `engine_bench --incast-only` (the 4-scheme incast, 330,667
events) and PAIRS runs of `engine_bench --mill-only` (the timer mill,
a queue-only load) in the same way.  Both sides run the working tree's
`bench/engine_bench.ml`, copied over the base checkout, so the two
sides differ only in the code they time.  A run that is incorrect or
has failed operations stops the A/B.  Writes one JSON file with, per
workload and metric, each side's median, p25 and p75, the median delta,
and the pairs the working tree won (by the metric's `better` direction
in BENCHMARK.json; ties count for neither side), the same summary of
the forwarding bench's `packets_per_sec` (the rate of its median
window) under `fwd`, of the incast bench's `events_per_sec` under
`incast`, of the mill's `events_per_sec` under `mill`, each tree's
`flags` and
`ocamlopt_flags` (from `dune printenv`) under `build`, plus nproc and
the OCaml version.

With --stores it runs no perfbench: for PAIRS pairs it runs each of the
campaign presets quick, fig5a, mix, failures, fuzz and arena-smoke with
`--workers 1 --force` into a fresh store in each tree, alternating, and
`diff -r`s the two stores after every pair.  Any difference stops it
with exit 1.  It writes each preset's wall time (median, p25, p75,
pairs won) under `presets`.  The worktree is removed when the runs end.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, "_build", "ab")
STORES_DIR = os.path.join(ROOT, "_build", "stores-ab")
PRESETS = ["quick", "fig5a", "mix", "failures", "fuzz", "arena-smoke"]


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


def run_engine_bench(tree, target):
    out = os.path.join(tree, "_build", "ab_%s.json" % target)
    cmd = ["dune", "exec", "--root", ".", "--display", "quiet",
           "bench/engine_bench.exe", "--", "--%s-only" % target, "--out", out]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("ab: %s failed in %s (exit %d)\n%s"
                 % (" ".join(cmd), tree, proc.returncode, proc.stderr))
    with open(out) as f:
        return json.load(f)[target]


def run_fwd(tree):
    return {"packets_per_sec": run_engine_bench(tree, "fwd")["packets_per_sec"]}


def run_incast(tree):
    return {"events_per_sec": run_engine_bench(tree, "incast")["events_per_sec"]}


def run_mill(tree):
    return {"events_per_sec": run_engine_bench(tree, "mill")["events_per_sec"]}


def build_flags(tree):
    """The tree's `flags` and `ocamlopt_flags`, as `dune printenv` resolves
    them for the root directory."""
    fields = ("flags", "ocamlopt_flags")
    out = subprocess.run(["dune", "printenv", "--root", "."]
                         + ["--field=%s" % f for f in fields] + ["."],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    return {f: v.split() for f, v in re.findall(r"\((\w+)\s*\(([^()]*)\)\)", out)}


def campaign_exe(tree):
    subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                    "./bin/themis_campaign_cli.exe"], cwd=tree, check=True)
    return os.path.join(tree, "_build", "default", "bin", "themis_campaign_cli.exe")


def run_preset(tree, exe, preset, store):
    shutil.rmtree(store, ignore_errors=True)
    cmd = [exe, "run", "--preset", preset, "--workers", "1", "--force",
           "--quiet", "--store", store]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall_s = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit("ab: %s failed in %s (exit %d)\n%s"
                 % (" ".join(cmd), tree, proc.returncode, proc.stderr))
    return {"wall_s": wall_s}


def store_files(store):
    return sum(len(files) for _, _, files in os.walk(store))


def same_stores(preset, stores):
    if store_files(stores["base"]) == 0:
        sys.exit("ab: the %s run left an empty store %s" % (preset, stores["base"]))
    proc = subprocess.run(["diff", "-r", stores["base"], stores["change"]],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("ab: the %s stores differ (diff -r %s %s)\n%s"
                 % (preset, stores["base"], stores["change"],
                    "\n".join(proc.stdout.splitlines()[:20])))


def alternate(pairs, label, run, after_pair=lambda: None):
    runs = {"base": [], "change": []}
    for i in range(pairs):
        order = ["base", "change"]
        if i % 2:
            order.reverse()
        for side in order:
            runs[side].append(run(side))
        after_pair()
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


def perf_ab(report, trees, args, spec):
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    report.update(seed=args.seed, seconds=seconds, trace=args.trace, workloads={})
    shutil.copy(os.path.join(ROOT, "bench", "engine_bench.ml"),
                os.path.join(trees["base"], "bench", "engine_bench.ml"))
    for w in (wl["name"] for wl in spec["workloads"]):
        runs = alternate(args.pairs, w, lambda side: run_once(
            trees[side], w, args.seed, seconds, args.trace))
        report["workloads"][w] = summarize(runs["base"], runs["change"], better)
    benches = (("fwd", run_fwd), ("incast", run_incast), ("mill", run_mill))
    for label, run in benches:
        runs = alternate(args.pairs, label, lambda side: run(trees[side]))
        report[label] = summarize(runs["base"], runs["change"], {})
    return list(report["workloads"].items()) + [
        (label, report[label]) for label, _ in benches]


def stores_ab(report, trees, args):
    exes = {side: campaign_exe(tree) for side, tree in trees.items()}
    report["presets"] = {}
    for preset in PRESETS:
        stores = {side: os.path.join(STORES_DIR, side, preset) for side in trees}
        runs = alternate(args.pairs, preset, lambda side: run_preset(
            trees[side], exes[side], preset, stores[side]),
            after_pair=lambda: same_stores(preset, stores))
        report["presets"][preset] = summarize(runs["base"], runs["change"],
                                              {"wall_s": "lower"})
        report["presets"][preset]["identical"] = True
        report["presets"][preset]["store_files"] = store_files(stores["base"])
    shutil.rmtree(STORES_DIR, ignore_errors=True)
    return [("presets", {p: m["wall_s"] for p, m in report["presets"].items()})]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--stores", action="store_true",
                    help="run the campaign presets and diff their stores "
                    "instead of the perfbench A/B")
    ap.add_argument("--out", default=None,
                    help="report file (default BENCH_ab.json, or "
                    "BENCH_stores.json with --stores)")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("ab: --pairs must be >= 1")
    out = args.out or ("BENCH_stores.json" if args.stores else "BENCH_ab.json")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base_rev = git("rev-parse", args.base)
    dirty = git("status", "--porcelain", "--untracked-files=no") != ""
    change_rev = git("rev-parse", "HEAD") + ("+dirty" if dirty else "")

    base_tree = add_worktree(base_rev)
    try:
        trees = {"base": base_tree, "change": ROOT}
        report = {
            "base": base_rev,
            "change": change_rev,
            "pairs": args.pairs,
            "nproc": os.cpu_count(),
            "ocaml": ocaml_version(),
            "build": {side: build_flags(tree) for side, tree in trees.items()},
        }
        if args.stores:
            sections = stores_ab(report, trees, args)
        else:
            sections = perf_ab(report, trees, args, spec)
    finally:
        remove_worktree(base_tree)

    with open(os.path.join(ROOT, out), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    for w, metrics in sections:
        print("%s (base %s, %d pairs)" % (w, base_rev[:7], args.pairs))
        for name, m in metrics.items():
            delta = "" if m["delta_frac"] is None else "%+.2f%%" % (100 * m["delta_frac"])
            print("  %-36s base %-12.6g change %-12.6g %9s  won %d/%d"
                  % (name, m["base"]["median"], m["change"]["median"], delta,
                     m["pairs_won"], args.pairs))
    if args.stores:
        print("stores: every preset identical")


if __name__ == "__main__":
    main()
