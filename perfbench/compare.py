#!/usr/bin/env python3
"""Compares two builds of dgc with the benchmark (perfbench/README.md).

Collect alternating pairs (the parent runs first in even pairs, the change
in odd ones; both sides use the same seed in a pair, pair i seed FIRST_SEED+i,
and every run lasts BENCHMARK.json's run_seconds). --out is rewritten, so one
file holds exactly one collection:

    python3 perfbench/compare.py collect --parent ../dgc-parent \\
        --change . --workload flow --pairs 10 --out flow.jsonl

Judge the collected pairs against BENCHMARK.json:

    python3 perfbench/compare.py judge flow.jsonl [more.jsonl ...]

For each workload x end-to-end metric the verdict is one of
  gain        at least ten pairs, the change wins >= 9/10 of them (ties
              count for neither) and the medians differ by more than the
              parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the run-to-run spread of either side exceeds the bound and
              not every change run beats every parent run;
  within      none of the above.
A gain does not count when the change fails more operations than the parent.
Every ratio is printed with its base (the parent's median).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIRST_SEED = 101
MIN_PAIRS = 10  # the gain rule's 9/10 win share needs ten pairs


def run_once(checkout, workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"run failed in {checkout}: {workload} seed {seed}")
    return json.loads(lines[-1])


def collect(args):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    with open(args.out, "w") as out:
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                sides.reverse()
            for side, checkout in sides:
                result = run_once(checkout, args.workload, seed, seconds)
                out.write(json.dumps({"workload": args.workload, "seed": seed,
                                      "side": side,
                                      "result": result}) + "\n")
                out.flush()
                print(f"pair {i} (seed {seed}) {side} done", file=sys.stderr)


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, better, bound):
    """Returns (verdict, detail) for paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = len(parent)
    worse = sign * (mp - mc) / abs(mp) if mp else 0.0
    spread = max(iqr(parent) / abs(mp) if mp else 0.0,
                 iqr(change) / abs(mc) if mc else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    detail = (f"parent median {mp:.6g}, change/parent {mc / mp if mp else 0:.4f}, "
              f"wins {wins}/{pairs}, spread {spread:.3f}, bound {bound}")
    if (pairs >= MIN_PAIRS and wins >= 0.9 * pairs
            and sign * (mc - mp) > iqr(parent)):
        return "gain", detail
    if worse > bound:
        return "regression", detail
    if spread > bound and not all_better:
        return "unresolved", detail
    return "within", detail


def judge(args):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rows = {}  # workload -> seed -> side -> result
    for path in args.files:
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            pair = rows.setdefault(rec["workload"], {}).setdefault(
                rec["seed"], {})
            if rec["side"] in pair:
                sys.exit(f"{path}: {rec['workload']} seed {rec['seed']} "
                         f"{rec['side']} appears twice")
            pair[rec["side"]] = rec["result"]
    status = 0
    for workload, pairs in sorted(rows.items()):
        complete = [p for _, p in sorted(pairs.items())
                    if "parent" in p and "change" in p]
        print(f"== {workload}: {len(complete)} pairs" +
              (f" (fewer than {MIN_PAIRS}: no gain can be claimed)"
               if len(complete) < MIN_PAIRS else ""))
        # A gain does not count when the change fails more operations.
        more_failed = (sum(p["change"]["failed"] for p in complete) >
                       sum(p["parent"]["failed"] for p in complete))
        if more_failed:
            print("  the change fails more operations: no gain counts")
        for m in spec["end_to_end"]:
            name = m["name"]
            parent = [p["parent"]["metrics"][name]["value"] for p in complete]
            change = [p["change"]["metrics"][name]["value"] for p in complete]
            if not parent:
                continue
            v, detail = verdict(parent, change, m["better"], m["bound"])
            if v == "gain" and more_failed:
                v = "within"
            if v == "regression":
                status = 1
            print(f"  {name:16} {v:11} {detail}")
        wrong = [p for p in complete
                 if not p["parent"]["correct"] or not p["change"]["correct"]]
        if wrong:
            status = 1
            print(f"  {len(wrong)} pairs with failed output checks")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run alternating parent/change pairs")
    c.add_argument("--parent", required=True, help="parent checkout root")
    c.add_argument("--change", required=True, help="change checkout root")
    c.add_argument("--workload", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--out", required=True, help="JSON-lines file to write")
    j = sub.add_parser("judge", help="apply the gain/regression rules")
    j.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    return judge(args)


if __name__ == "__main__":
    sys.exit(main())
