#!/usr/bin/env python3
"""Repository benchmark for stindex: builds stbench and runs its workloads.

Usage (from the repository root):

  python3 benchmark/run.py
      Build, then run every workload untraced and traced with --seed 42.
      Prints one line per metric, "<workload> <metric> <value> <unit>",
      and writes the results JSON (--out, default build-bench/results.json).

  python3 benchmark/run.py --workload W [--seed N] [--trace 0|1]
                           [--repeat R] [--out PATH]
      Run one workload (or all, without --workload); --trace picks the
      untraced (end-to-end) or traced (per-layer) run, both by default.
      --repeat runs each workload R times with seeds N, N+1, ... The
      last line of standard output is one JSON object:
      {"correct", "attempted", "failed", "metrics"}, the metrics being the
      BENCHMARK.json end-to-end ones (--trace 0) or per-layer ones
      (--trace 1), each the median over the repeats.

  python3 benchmark/run.py --compare A.json B.json
      Per workload, both medians, the relative delta and a verdict
      against the BENCHMARK.json bounds; deterministic counts must match
      exactly. Exits 1 when any gated metric regressed.

Every run measures BENCHMARK.json's run_seconds. --seconds is accepted
because the BENCHMARK.json calling convention passes it, and it must
equal run_seconds: the ingest workload's amount of work follows the
window length, so another length would measure another workload.

Exits non-zero when the build fails, stbench fails, an oracle finds a
wrong answer, or the Chrome trace of a traced run does not validate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
STBENCH = BUILD_DIR / "stbench"
VALIDATE_TRACE = ROOT / "scripts" / "validate_trace.py"
WORKLOADS = ["hist-hot", "hist-cold", "live-mixed", "ingest"]
STBENCH_TIMEOUT_S = 170

# Absolute slack on top of the relative bound for timings in seconds, so
# a sub-second set-up or recovery is not judged on scheduler noise.
SECONDS_FLOOR = 0.05
# Counts that only change when the index changes: compared exactly.
EXACT = {"pprtree.paper_io_per_query", "disk_mb", "storage.snapshot_mb"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures once, then builds stbench incrementally into build-bench/."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources not found at " + str(ROOT / "src"))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "stbench",
                    "-j3"], check=True, stdout=sys.stderr)


def run_stbench(workload, seed, seconds, traced):
    """Runs one stbench process and returns its parsed report."""
    work_dir = BUILD_DIR / "run" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    trace_path = BUILD_DIR / "traces" / f"{workload}.trace.json"
    command = [str(STBENCH), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--dir", str(work_dir)]
    if traced:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        command += ["--traced", "--trace-out", str(trace_path)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=STBENCH_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"stbench {workload} exited {done.returncode}")
    report = json.loads(done.stdout)
    if traced:
        checked = subprocess.run([sys.executable, str(VALIDATE_TRACE),
                                  str(trace_path)], stdout=sys.stderr,
                                 stderr=sys.stderr, check=False)
        if checked.returncode != 0:
            report["failed"] += 1
            report["errors"].append("Chrome trace failed validate_trace.py")
    return report


def median_metrics(reports):
    """{name: {"value": median over reports, "unit": unit}}."""
    values = {}
    units = {}
    for report in reports:
        for name, metric in report["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {name: {"value": statistics.median(v), "unit": units[name]}
            for name, v in values.items()}


def print_lines(workload, reports):
    for name, metric in median_metrics(reports).items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    # Sample support of the percentiles: the fewest over the repeats.
    for name in reports[0]["support"]:
        count = min(r["support"][name]["count"] for r in reports)
        beyond = min(r["support"][name]["beyond_p99"] for r in reports)
        flag = "  FLAG: fewer than 10 beyond p99" if beyond < 10 else ""
        print(f"{workload} {name}.samples {count} count")
        print(f"{workload} {name}.beyond_p99 {beyond} count{flag}")
    for report in reports:
        for error in report["errors"]:
            print(f"{workload} ERROR {error}")


def error_rate(reports):
    attempted = sum(r["attempted"] for r in reports)
    bad = sum(r["failed"] + r["mismatches"] for r in reports)
    return bad / attempted if attempted else 1.0


def run(args, spec):
    build()
    workloads = [args.workload] if args.workload else WORKLOADS
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {"seed": args.seed, "seconds": args.seconds,
               "repeat": args.repeat, "workloads": {}}
    all_reports = []  # every report of this invocation
    for workload in workloads:
        entry = results["workloads"].setdefault(workload, {})
        for traced in modes:
            reports = []
            for i in range(args.repeat):
                log(f"[run.py] {workload} {'traced' if traced else 'untraced'}"
                    f" seed {args.seed + i}")
                reports.append(run_stbench(workload, args.seed + i,
                                           args.seconds, traced))
            entry["traced" if traced else "untraced"] = reports
            all_reports += reports
            print_lines(workload, reports)
        rate = error_rate([r for m in entry.values() for r in m])
        print(f"{workload} error_rate {rate:.6g} frac")

    out = Path(args.out) if args.out else BUILD_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    log(f"[run.py] wrote {out}")

    failed = sum(r["failed"] + r["mismatches"] for r in all_reports)
    attempted = sum(r["attempted"] for r in all_reports)
    if len(workloads) == 1 and len(modes) == 1:
        # The result line: the run's medians in BENCHMARK.json's shape. A
        # per-layer metric of a layer this workload does not exercise
        # reads 0.
        listed = spec["per_layer"] if modes[0] else spec["end_to_end"]
        medians = median_metrics(all_reports)
        metrics = {}
        for m in listed:
            if m["name"] in medians:
                metrics[m["name"]] = medians[m["name"]]
            elif modes[0]:
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            else:
                raise RuntimeError(f"stbench did not report {m['name']}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    else:
        print(f"all {attempted} operations correct" if failed == 0
              else f"{failed} of {attempted} operations failed or wrong")
    return 0 if failed == 0 else 1


def metric_values(entry):
    """{name: values over the repeats} of one workload's runs. A metric
    both runs report is taken from the untraced run, whose window is
    longer and unprobed."""
    values = {}
    for mode in ("untraced", "traced"):
        seen = {}
        for report in entry.get(mode, []):
            for name, metric in report["metrics"].items():
                seen.setdefault(name, []).append(metric["value"])
        for name, v in seen.items():
            values.setdefault(name, v)
    return values


def spread(values):
    """Interquartile range over median of one metric across repeats."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))


def compare(path_a, path_b, spec):
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    gated = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    if (a["seed"], a["repeat"]) != (b["seed"], b["repeat"]):
        print("note: A and B used different seeds; exact counts will differ")
    regressions = 0
    print(f"{'workload':<11} {'metric':<32} {'A':>12} {'B':>12} "
          f"{'delta':>8} {'iqr A':>6} {'iqr B':>6}  verdict")
    for workload in WORKLOADS:
        values_a = metric_values(a["workloads"].get(workload, {}))
        values_b = metric_values(b["workloads"].get(workload, {}))
        # Gated metrics first, then the rest by name.
        names = sorted(set(values_a) & set(values_b),
                       key=lambda n: (n not in gated, n))
        for name in names:
            va = statistics.median(values_a[name])
            vb = statistics.median(values_b[name])
            delta = (vb - va) / abs(va) if va else 0.0
            spread_a = spread(values_a[name])
            spread_b = spread(values_b[name])
            if name in EXACT:
                verdict = "same" if va == vb else "DIFFERS"
                regressions += va != vb
            elif name in gated:
                spec_m = gated[name]
                worse = vb - va if spec_m["better"] == "lower" else va - vb
                allowed = spec_m["bound"] * abs(va)
                if spec_m["unit"] == "s":
                    allowed = max(allowed, SECONDS_FLOOR)
                if worse > allowed:
                    verdict = "REGRESSED"
                    regressions += 1
                elif max(spread_a, spread_b) > spec_m["bound"]:
                    verdict = "unresolved (spread above bound)"
                else:
                    verdict = "ok"
            elif name in per_layer:
                verdict = "(per-layer)"
            else:
                continue
            print(f"{workload:<11} {name:<32} {va:>12.6g} {vb:>12.6g} "
                  f"{delta:>+8.1%} {spread_a:>6.1%} {spread_b:>6.1%}  "
                  f"{verdict}")
        for label, results in (("A", a), ("B", b)):
            reports = [r for m in results["workloads"].get(workload, {}).values()
                       for r in m]
            if reports and error_rate(reports) > 0:
                print(f"{workload:<11} error_rate in {label}: "
                      f"{error_rate(reports):.3g}  REGRESSED")
                regressions += 1
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return compare(args.compare[0], args.compare[1], spec)
        if args.seconds not in (None, spec["run_seconds"]):
            parser.error(f"--seconds must be run_seconds "
                         f"({spec['run_seconds']}) from BENCHMARK.json")
        args.seconds = spec["run_seconds"]
        if args.repeat < 1:
            parser.error("--repeat must be at least 1")
        return run(args, spec)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as error:
        log(f"run.py: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
