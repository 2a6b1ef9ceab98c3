#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark between two revisions.

Usage (from inside the repository):

  scripts/ab_bench.py BASE [CHANGE] [--workload W]... [--pairs N]
                      [--seed S] [--out PATH] [--workdir DIR] [--keep]

BASE and CHANGE are git revisions (CHANGE defaults to HEAD); commit or
stash work in progress first. Each distinct revision is checked out once
into a `git worktree` under --workdir (default: build-ab/ in the
repository) and its benchmark program is built there with
benchmark/CMakeLists.txt, exactly as benchmark/run.py builds it. Then,
for every workload, N pairs of `python3 benchmark/run.py --workload W
--seed S --trace 0` run one after the other, alternating which side
goes first, so drift on a shared host hits both sides alike.

For every metric the untraced run reports, it prints each side's median
and quartiles, the median of the paired deltas (CHANGE - BASE), a
bootstrap 95% interval of that median (2000 resamples of the pairs,
stdlib only) and how many pairs each side won (ties count for neither).
A side wins a metric only if it wins at least 9 of 10 pairs and the
medians differ by more than BASE's interquartile range; the metric's
better direction comes from BENCHMARK.json, and a verdict drawn from
fewer than 10 pairs says so. Operations that failed are reported per
side.

Writes every run's values and the summary as JSON to --out (default
ab_bench.json). Never writes under benchmark/. Worktrees are removed at
the end unless --keep; a kept worktree at the same revision is reused.
Exits 1 when a run fails or reports a failed operation.
"""

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
MIN_PAIRS = 10  # fewer pairs than this cannot back a claim
BOOTSTRAP_RESAMPLES = 2000


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def checkout(repo, workdir, sha):
    """A worktree of `repo` at `sha` with stbench built; reused if kept."""
    path = workdir / sha[:12]
    if path.is_dir():
        try:
            if git(path, "rev-parse", "HEAD") == sha:
                log(f"[ab_bench] reusing {path}")
                return path
        except subprocess.CalledProcessError:
            pass
        git(repo, "worktree", "remove", "--force", str(path))
    git(repo, "worktree", "add", "--detach", str(path), sha)
    build = path / "build-bench"
    subprocess.run(["cmake", "-S", str(path / "benchmark"), "-B", str(build),
                    "-DCMAKE_BUILD_TYPE=Release"], check=True,
                   stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build), "--target", "stbench",
                    "-j3"], check=True, stdout=sys.stderr)
    return path


def run_once(tree, workload, seed, out):
    """One untraced benchmark run; returns its stbench report."""
    command = [sys.executable, "benchmark/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", "0", "--out", str(out)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if not out.is_file():
        raise RuntimeError(f"{' '.join(command)} in {tree} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    report = json.loads(out.read_text())["workloads"][workload]["untraced"][0]
    report["exit"] = done.returncode
    return report


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bootstrap_median(deltas, rng):
    """95% percentile interval of the median of `deltas`."""
    medians = sorted(
        statistics.median(rng.choices(deltas, k=len(deltas)))
        for _ in range(BOOTSTRAP_RESAMPLES))
    return (medians[int(0.025 * BOOTSTRAP_RESAMPLES)],
            medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1])


def summarize(base, change, better, rng):
    """Paired statistics of one metric; base[i] and change[i] are pair i."""
    deltas = [c - b for b, c in zip(base, change)]
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    base_q1, base_q3 = quartiles(base)
    change_q1, change_q3 = quartiles(change)
    low, high = bootstrap_median(deltas, rng)
    summary = {
        "base": {"median": base_median, "q1": base_q1, "q3": base_q3},
        "change": {"median": change_median, "q1": change_q1, "q3": change_q3},
        "delta_median": statistics.median(deltas),
        "delta_ci95": [low, high],
        "relative": ((change_median - base_median) / abs(base_median)
                     if base_median else 0.0),
        "better": better,
        "change_wins": 0,
        "base_wins": 0,
        "verdict": "",
    }
    if better is None:
        return summary
    sign = -1 if better == "lower" else 1
    summary["change_wins"] = sum(sign * d > 0 for d in deltas)
    summary["base_wins"] = sum(sign * d < 0 for d in deltas)
    apart = abs(change_median - base_median) > base_q3 - base_q1
    needed = WIN_SHARE * len(deltas)
    if summary["change_wins"] >= needed and apart:
        summary["verdict"] = "CHANGE BETTER"
    elif summary["base_wins"] >= needed and apart:
        summary["verdict"] = "CHANGE WORSE"
    else:
        summary["verdict"] = "no verdict"
    if len(deltas) < MIN_PAIRS:
        summary["verdict"] += f" (fewer than {MIN_PAIRS} pairs)"
    return summary


def print_table(workload, pairs, summaries, gated):
    def spread(side):
        return f"{side['median']:>10.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"

    print(f"\n{workload}: {pairs} pairs (delta = CHANGE - BASE)")
    print(f"{'metric':<30} {'BASE median [q1, q3]':>32} "
          f"{'CHANGE median [q1, q3]':>32} {'delta':>10} {'rel':>7} "
          f"{'95% CI of delta':>24} {'wins C/B':>8}  verdict")
    names = sorted(summaries, key=lambda n: (n not in gated, n))
    for name in names:
        s = summaries[name]
        mark = "*" if name in gated else " "
        ci = f"[{s['delta_ci95'][0]:+.4g}, {s['delta_ci95'][1]:+.4g}]"
        wins = f"{s['change_wins']}/{s['base_wins']}"
        print(f"{mark}{name:<29} {spread(s['base']):>32} "
              f"{spread(s['change']):>32} {s['delta_median']:>+10.4g} "
              f"{s['relative']:>+7.1%} {ci:>24} {wins:>8}  {s['verdict']}")
    print("(* = gated end-to-end metric of BENCHMARK.json)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="ab_bench.json")
    parser.add_argument("--workdir")
    parser.add_argument("--keep", action="store_true",
                        help="keep the worktrees and their builds")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    gated = {m["name"] for m in spec["end_to_end"]}
    shas = {"base": git(repo, "rev-parse", "--verify", args.base + "^{commit}"),
            "change": git(repo, "rev-parse", "--verify",
                          args.change + "^{commit}")}
    workdir = Path(args.workdir) if args.workdir else repo / "build-ab"
    workdir = workdir.resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    runs_dir = workdir / "runs"
    runs_dir.mkdir(exist_ok=True)

    trees = {}
    failures = 0
    try:
        for sha in dict.fromkeys(shas.values()):
            log(f"[ab_bench] checking out and building {sha[:12]}")
            trees[sha] = checkout(repo, workdir, sha)
        results = {"base": args.base, "change": args.change,
                   "base_sha": shas["base"], "change_sha": shas["change"],
                   "seed": args.seed, "pairs": args.pairs, "workloads": {}}
        rng = random.Random(args.seed)
        for workload in workloads:
            values = {"base": {}, "change": {}}
            errors = {"base": 0, "change": 0}
            attempted = {"base": 0, "change": 0}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change",
                                                                  "base")
                for side in order:
                    log(f"[ab_bench] {workload} pair {pair + 1}/{args.pairs} "
                        f"{side}")
                    out = runs_dir / f"{workload}-{side}-{pair}.json"
                    report = run_once(trees[shas[side]], workload, args.seed,
                                      out)
                    bad = report["failed"] + report["mismatches"]
                    errors[side] += bad
                    attempted[side] += report["attempted"]
                    if report["exit"] != 0 or bad:
                        failures += 1
                    for name, metric in report["metrics"].items():
                        values[side].setdefault(name, []).append(
                            metric["value"])
            names = [n for n in values["base"]
                     if len(values["base"][n]) == args.pairs and
                     len(values["change"].get(n, [])) == args.pairs]
            summaries = {n: summarize(values["base"][n], values["change"][n],
                                      better.get(n), rng)
                         for n in names}
            print_table(workload, args.pairs, summaries, gated)
            for side in ("base", "change"):
                print(f"{side}: {errors[side]} of {attempted[side]} "
                      f"operations failed or wrong")
            results["workloads"][workload] = {
                "values": values, "summary": summaries,
                "failed": errors, "attempted": attempted}
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
        log(f"[ab_bench] wrote {args.out}")
    finally:
        if not args.keep:
            for tree in trees.values():
                git(repo, "worktree", "remove", "--force", str(tree))
            shutil.rmtree(runs_dir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
