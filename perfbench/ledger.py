#!/usr/bin/env python3
"""Collect and compare result sets of the perfbench benchmark.

Run from the repository root:

  python3 perfbench/ledger.py run --out parent.jsonl [--workloads join_fd,service_mix]
                                  [--seeds 1-10] [--trace 0|1]
  python3 perfbench/ledger.py spread parent.jsonl
  python3 perfbench/ledger.py compare parent.jsonl change.jsonl

`run` executes BENCHMARK.json's command once per workload and seed and
appends one JSON line per run: {"workload", "seed", "trace", "result"}.
To compare two commits, run it from a checkout of each, with the same
seeds, alternating which side runs first.

`spread` prints, per workload and metric, the median, the quartiles and
their distance as a share of the median (Python's statistics.quantiles
with n=4), against a third of the metric's bound.

`compare` prints one row per workload x end-to-end metric with each
side's median and quartiles and a verdict:
  improved    the change wins at least 9 of 10 seed-paired runs (ties count
              for neither side) and the medians differ by more than the
              parent's quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (and the parent's spread is within it);
  unchanged   neither, with the parent's spread within the bound;
  unresolved  the parent's spread is wider than the bound, unless every
              run of the change reads better than every run of the parent.
Per-layer metrics (traced runs) are listed with their median change only:
they have no bound and support no claim on their own.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def cmd_run(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    with open(args.out, "a") as out:
        for w in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", str(args.trace)]
                p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    sys.stderr.write(f"{w} seed {seed}: no result (exit {p.returncode})\n{p.stderr[-2000:]}\n")
                    continue
                out.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace, "result": result}) + "\n")
                out.flush()
                flag = "" if result["correct"] else "  INCORRECT"
                print(f"{w:<12} seed {seed:<4} exit {p.returncode} attempted {result['attempted']}"
                      f" failed {result['failed']}{flag}", flush=True)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_metric(runs, trace):
    """{(workload, metric): {seed: value}}"""
    table = {}
    for r in runs:
        if r["trace"] != trace:
            continue
        for name, m in r["result"]["metrics"].items():
            table.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
    return table


def cmd_spread(args):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = load(args.results)
    bad = 0
    print(f"{'workload':<12} {'metric':<16} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for (w, name), vals in sorted(by_metric(runs, 0).items()):
        values = list(vals.values())
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        third = bounds.get(name, float("nan")) / 3
        mark = ""
        if spread > third:
            mark = "  WIDE"
            bad += 1
        print(f"{w:<12} {name:<16} {len(values):>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {third:>8.3f}{mark}")
    wrong = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
    print(f"{len(runs)} runs, {len(wrong)} incorrect or with failures; {bad} spreads above a third of their bound")


def better(direction, a, b):
    """Is a better than b?"""
    return a < b if direction == "lower" else a > b


def cmd_compare(args):
    bench = load_benchmark()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    old, new = load(args.parent), load(args.change)
    print(f"{'workload':<12} {'metric':<14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'better':>8}  verdict")
    old_t, new_t = by_metric(old, 0), by_metric(new, 0)
    for (w, name) in sorted(set(old_t) & set(new_t)):
        if name not in e2e:
            continue
        m = e2e[name]
        po, pn = old_t[(w, name)], new_t[(w, name)]
        seeds = sorted(set(po) & set(pn))
        if not seeds:
            continue
        a, b = [po[s] for s in seeds], [pn[s] for s in seeds]
        q1a, meda, q3a = quartiles(a)
        q1b, medb, q3b = quartiles(b)
        worse = (medb - meda) / meda if m["better"] == "lower" else (meda - medb) / meda
        spread = (q3a - q1a) / meda if meda else float("inf")
        wins = sum(better(m["better"], y, x) for x, y in zip(a, b))
        all_better = all(better(m["better"], y, x) for x in a for y in b)
        if spread > m["bound"] and not all_better:
            verdict = "unresolved"
        elif wins * 10 >= 9 * len(seeds) and -worse > spread:
            verdict = "improved"
        elif worse > m["bound"]:
            verdict = "regressed"
        else:
            verdict = "unchanged"
        print(f"{w:<12} {name:<14} {meda:>12.4f} [{q1a:>9.4f}, {q3a:>9.4f}] {medb:>12.4f} [{q1b:>9.4f}, {q3b:>9.4f}]"
              f" {-worse:>+8.1%}  {verdict} ({wins}/{len(seeds)} pairs won)")
    old_l, new_l = by_metric(old, 1), by_metric(new, 1)
    rows = [(w, n) for (w, n) in sorted(set(old_l) & set(new_l)) if n in layer]
    if rows:
        print(f"\nper-layer medians (traced runs; no bound, no verdict)")
        for (w, name) in rows:
            a = statistics.median(old_l[(w, name)].values())
            b = statistics.median(new_l[(w, name)].values())
            delta = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"{w:<12} {name:<30} {a:>14.4f} -> {b:>14.4f}  {delta}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    s = sub.add_parser("spread")
    s.add_argument("results")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args()
    {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
