#!/usr/bin/env python3
"""Decides whether a change moved the benchmark, by the simplicity-review
rule. Standard library only.

  python3 bench/e2e/compare.py --parent DIR --change DIR [--pairs 10]
          [--seed 1234] [--workloads a,b] [--out PATH]
      Runs `run.py --workload W --trace 0` in two checkouts, alternating
      which side runs first, and judges every (workload, end-to-end
      metric). The samples land in PATH (default BENCH_e2e_pairs.json).

  python3 bench/e2e/compare.py --baseline [BENCH_e2e.json]
      Compares one run.py artifact against the sets in bench/e2e/baselines/
      made at the same seed.

Verdicts, per workload and metric:
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile distance;
  regression  the change's median is worse than the parent's by more than
              the metric's bound (setup_s also by more than 50 ms), or,
              for error_rate and audit_problems, any change run exceeds
              the parent's worst;
  unresolved  neither, and the spread (quartile distance over median) of
              either side is wider than the bound, unless every change run
              reads better than every parent run;
  unchanged   otherwise.
A regression anywhere makes the exit status 1.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import END_TO_END, SETUP_FLOOR_S, WORKLOADS  # noqa: E402


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Quartile distance as a share of the median (0 for an all-zero set)."""
    med = statistics.median(values)
    lo, hi = quartiles(values)
    return (hi - lo) / abs(med) if med else 0.0


def allowance(name, base):
    bound = END_TO_END[name][2]
    slack = bound * abs(base)
    if name == "setup_s":
        slack = max(slack, SETUP_FLOOR_S)
    return slack


def judge(name, parent, change):
    """Verdict and detail for one metric over paired samples."""
    better = END_TO_END[name][1]
    bound = END_TO_END[name][2]
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    plo, phi = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse_by = sign * (pm - cm)
    detail = {"parent_median": pm, "change_median": cm,
              "parent_quartiles": quartiles(parent),
              "change_quartiles": quartiles(change),
              "wins": wins, "pairs": len(parent),
              "delta_pct": 100.0 * (cm - pm) / pm if pm else None}
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and sign * (cm - pm) > 0 and abs(cm - pm) > phi - plo):
        return "gain", detail
    if bound == 0 and max(change) > max(parent):
        return "regression", detail  # failures may not rise in any run
    if worse_by > allowance(name, pm):
        return "regression", detail
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_better:
        return "unresolved", detail
    return "unchanged", detail


def report(samples):
    """One row per workload, then the per-metric detail. Returns 1 on any
    regression."""
    regressions = 0
    rows = []
    for w, metrics in samples.items():
        verdicts = {}
        for name in END_TO_END:
            pairs = [(p, c) for p, c in zip(metrics["parent"].get(name, []),
                                            metrics["change"].get(name, []))
                     if p is not None and c is not None]
            if not pairs:
                continue
            verdict, detail = judge(name, [p for p, _ in pairs],
                                    [c for _, c in pairs])
            verdicts[name] = (verdict, detail)
        regressions += sum(v == "regression" for v, _ in verdicts.values())
        rows.append((w, verdicts))
    for w, verdicts in rows:
        by = {}
        for name, (verdict, _) in verdicts.items():
            by.setdefault(verdict, []).append(name)
        parts = [f"{v}: {', '.join(by[v])}"
                 for v in ("gain", "regression", "unresolved") if v in by]
        parts.append(f"unchanged: {len(by.get('unchanged', []))}")
        print(f"{w:<12} " + "; ".join(parts))
    for w, verdicts in rows:
        print(f"\n== {w}")
        for name, (verdict, d) in verdicts.items():
            delta = d["delta_pct"]
            print(f"  {name:<18} {verdict:<10} parent {d['parent_median']:.6g}"
                  f" [{d['parent_quartiles'][0]:.6g}, "
                  f"{d['parent_quartiles'][1]:.6g}]  change "
                  f"{d['change_median']:.6g} [{d['change_quartiles'][0]:.6g},"
                  f" {d['change_quartiles'][1]:.6g}]  "
                  f"{'' if delta is None else f'{delta:+.2f}%  '}"
                  f"wins {d['wins']}/{d['pairs']}")
    return 1 if regressions else 0


def run_side(checkout, workload, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.json")
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "e2e", "run.py"),
             "--workload", workload, "--seed", str(seed), "--trace", "0",
             "--out", out], cwd=checkout, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not os.path.exists(out):
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"{checkout}: {workload} failed")
        with open(out) as f:
            return json.load(f)


def run_pairs(args):
    samples = {w: {"parent": {}, "change": {}} for w in args.workloads}
    for i in range(args.pairs):
        # Alternate which side runs first, so drift over time cancels.
        order = (("parent", args.parent), ("change", args.change))
        if i % 2:
            order = order[::-1]
        for w in args.workloads:
            for side, checkout in order:
                res = run_side(checkout, w, args.seed)
                if not res["correct"]:
                    print(f"{side} {w} pair {i}: incorrect: "
                          f"{res['problems']}", file=sys.stderr)
                for name, value in res["values"].items():
                    samples[w][side].setdefault(name, []).append(value)
                print(f"pair {i + 1}/{args.pairs} {w} {side} done",
                      file=sys.stderr, flush=True)
    with open(args.out, "w") as f:
        json.dump({"seed": args.seed, "samples": samples}, f, indent=1)
    return report(samples)


def baseline(args):
    with open(args.baseline) as f:
        run = json.load(f)
    sets = []
    for path in sorted(glob.glob(os.path.join(HERE, "baselines", "*.json"))):
        with open(path) as f:
            base = json.load(f)
        if base.get("seed") == run["seed"]:
            sets.append(base)
    if not sets:
        raise SystemExit(f"no baseline at seed {run['seed']}")
    if any(b.get("machine", {}).get("cpu_model") !=
           run.get("machine", {}).get("cpu_model") for b in sets):
        print("warning: baselines were measured on another CPU model; "
              "compare pairs on one machine instead", file=sys.stderr)
    # The baseline sets play the parent; the run repeats against each set.
    samples = {}
    for w, entry in run["workloads"].items():
        parent, change = {}, {}
        for b in sets:
            if w not in b["workloads"]:
                continue
            for name in END_TO_END:
                # A metric newer than the baseline compares as null.
                parent.setdefault(name, []).append(
                    b["workloads"][w]["end_to_end"].get(name, {}).get("value"))
                change.setdefault(name, []).append(
                    entry["end_to_end"].get(name, {}).get("value"))
        samples[w] = {"parent": parent, "change": change}
    print(f"{len(sets)} baseline set(s) at seed {run['seed']}; with fewer "
          "than 10 pairs no gain can be claimed, only regressions found")
    return report(samples)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--out", default="BENCH_e2e_pairs.json")
    p.add_argument("--baseline", nargs="?", const="BENCH_e2e.json")
    args = p.parse_args()
    if args.baseline:
        return baseline(args)
    if not (args.parent and args.change):
        p.error("give --parent and --change, or --baseline")
    if args.pairs < 10:
        p.error("the rule needs at least 10 pairs")
    args.workloads = args.workloads.split(",")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
