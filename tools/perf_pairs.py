#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/perf_pairs.py --parent DIR --change DIR \\
        --workloads serve_warm serve_cold --seeds 101-110 --seconds 15 \\
        --out BENCH_perfbench.json

For each workload and seed, runs
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`
once in each checkout, the parent first on odd seeds and the change
first on even ones. Writes one JSON file: both commits, the command,
every run's result line, and per workload and end-to-end metric (names
and better-direction from the parent's BENCHMARK.json) each side's
median and quartiles, the change/parent ratio of the medians, the
parent's interquartile range over its median, the pairs the change
won (ties count for neither side), and a verdict against the metric's
`bound` in the parent's BENCHMARK.json:

  gain        at least 10 pairs, the change won at least 9/10 of them,
              and the medians differ by more than the parent's q3 - q1
  worse       the change's median is worse than the parent's by more
              than bound x the parent's median
  unresolved  neither, the parent's IQR/median exceeds the bound, and
              some change run does not beat every parent run
  held        otherwise

Exits 1 if any run was not correct, had failed operations or printed no
result line; the file is written either way. Verdicts do not change
the exit status.
"""

import argparse
import json
import os
import subprocess
import sys


def parse_seeds(text):
    """'101-110' or '7' -> list of ints."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit_of(root):
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def run_once(root, workload, seed, seconds):
    """One perfbench run in @p root; its parsed result line or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result \
        else None


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * \
        (pos - lo)


def spread(values):
    ordered = sorted(values)
    return {"median": quantile(ordered, 0.5), "q1": quantile(ordered, 0.25),
            "q3": quantile(ordered, 0.75)}


def verdict(values, parent, change, wins, lower, bound):
    """gain, worse, unresolved or held (module docstring) for a
    metric's (parent, change) pairs @p values, given each side's
    spread()."""
    sign = 1 if lower else -1
    gap = sign * (parent["median"] - change["median"])  # > 0: better
    iqr = parent["q3"] - parent["q1"]
    if len(values) >= 10 and 10 * wins >= 9 * len(values) and gap > iqr:
        return "gain"
    if -gap > bound * abs(parent["median"]):
        return "worse"
    beats_all = all(sign * (p - c) > 0
                    for p, _ in values for _, c in values)
    if iqr > bound * abs(parent["median"]) and not beats_all:
        return "unresolved"
    return "held"


def summarize(runs, workload, metrics):
    pairs = {}
    for run in runs:
        if run["workload"] == workload and run["result"] is not None:
            pairs.setdefault(run["seed"], {})[run["side"]] = \
                run["result"]["metrics"]
    pairs = [p for p in pairs.values() if len(p) == 2]
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [(p["parent"][name]["value"], p["change"][name]["value"])
                  for p in pairs if name in p["parent"] and name in
                  p["change"]]
        if not values:
            continue
        parent = spread([v[0] for v in values])
        change = spread([v[1] for v in values])
        wins = sum(1 for a, b in values if (b < a if lower else b > a))
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "ratio": change["median"] / parent["median"]
            if parent["median"] else None,
            "parent_iqr_over_median": (parent["q3"] - parent["q1"]) /
            parent["median"] if parent["median"] else None,
            "change_wins": wins,
            "pairs": len(values),
            "verdict": verdict(values, parent, change, wins, lower,
                               metric["bound"]),
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", required=True, nargs="+")
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}

    runs, bad = [], 0
    for workload in args.workloads:
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], workload, seed, args.seconds)
                ok = result is not None and result.get("correct") is True \
                    and result.get("failed") == 0
                bad += not ok
                runs.append({"workload": workload, "seed": seed,
                             "side": side, "result": result})
                print("%s seed %d %s: %s" % (
                    workload, seed, side,
                    json.dumps(result) if result else "no result line"),
                    file=sys.stderr)

    report = {
        "command": " ".join(["python3", "tools/perf_pairs.py"] +
                            sys.argv[1:]),
        "parent_commit": commit_of(args.parent),
        "change_commit": commit_of(args.change),
        "seconds": args.seconds,
        "runs": runs,
        "summary": {w: summarize(runs, w, metrics) for w in args.workloads},
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    if bad:
        print("perf_pairs: %d run(s) not correct, with failed operations "
              "or without a result line" % bad, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
