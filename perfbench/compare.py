#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py run --parent A --change B --out RESULTS \
        [--runs 10] [--first-seed 1] [--trace 0] [--workload NAME ...]
    python3 perfbench/compare.py report RESULTS

`run` takes two checkouts (directories holding the files git would commit)
and runs BENCHMARK.json's command in each, pair by pair: both sides of a
pair get the same seed, and which side runs first alternates between
pairs. Each result is stored as RESULTS/<workload>/<pair>-<side>.json.

`report` prints, per workload and metric, each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict under the benchmark's bounds:

  improved    the change is better in at least 9/10 of the pairs and the
              medians differ by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (per-layer metrics, which have no bound:
              worse in 9/10 of the pairs by more than that range);
  unresolved  the parent's own spread (IQR over median) is wider than the
              bound and not every change run beats every parent run;
  unchanged   otherwise.

A gain does not count when the change fails more operations than the
parent; the failed counts are printed per side.
"""
import argparse
import json
import os
import statistics
import subprocess

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    for pair in range(args.runs):
        seed = args.first_seed + pair
        sides = [("parent", args.parent), ("change", args.change)]
        if pair % 2:
            sides.reverse()
        for workload in workloads:
            os.makedirs(os.path.join(args.out, workload), exist_ok=True)
            for side, root in sides:
                command = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", args.trace]
                proc = subprocess.run(command, cwd=root, env=env,
                                      capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = None
                if proc.returncode == 0 and lines:
                    result = json.loads(lines[-1])
                record = {"side": side, "pair": pair, "seed": seed,
                          "exit": proc.returncode, "result": result}
                path = os.path.join(args.out, workload,
                                    "%03d-%s.json" % (pair, side))
                with open(path, "w") as f:
                    json.dump(record, f)
                print("pair %d %-14s %-6s exit %d" %
                      (pair, workload, side, proc.returncode), flush=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    bound = metric.get("bound")
    if wins >= 0.9 * pairs and abs(cm - pm) > spread:
        return wins, "improved"
    if bound is None:
        if losses >= 0.9 * pairs and abs(cm - pm) > spread:
            return wins, "regressed"
        return wins, "unchanged"
    worse_share = sign * (pm - cm) / abs(pm) if pm else 0.0
    if worse_share > bound:
        return wins, "regressed"
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and spread / abs(pm) > bound and not beats_all:
        return wins, "unresolved"
    return wins, "unchanged"


def report(args):
    spec = load_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    for workload in sorted(os.listdir(args.results)):
        directory = os.path.join(args.results, workload)
        records = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name)) as f:
                record = json.load(f)
            records[(record["pair"], record["side"])] = record
        pairs = sorted({pair for pair, _ in records})
        complete = [p for p in pairs
                    if (records.get((p, "parent")) or {}).get("result")
                    and (records.get((p, "change")) or {}).get("result")]
        failed = {side: sum(records[(p, side)]["result"]["failed"]
                            for p in complete) for side in ("parent", "change")}
        print("\n## %s  (%d complete pairs of %d; failed ops parent %d, "
              "change %d)" % (workload, len(complete), len(pairs),
                              failed["parent"], failed["change"]))
        print("%-28s %-9s %-6s %-27s %-27s %-6s %s" %
              ("metric", "unit", "bound", "parent median [q1, q3]",
               "change median [q1, q3]", "won", "verdict"))
        for metric in metrics:
            name = metric["name"]
            parent, change = [], []
            for p in complete:
                a = records[(p, "parent")]["result"]["metrics"].get(name)
                b = records[(p, "change")]["result"]["metrics"].get(name)
                if a is not None and b is not None:
                    parent.append(a["value"])
                    change.append(b["value"])
            if not parent:
                continue
            wins, outcome = verdict(metric, parent, change)
            cells = []
            for values in (parent, change):
                q1, q3 = quartiles(values)
                cells.append("%.4g [%.4g, %.4g]" %
                             (statistics.median(values), q1, q3))
            print("%-28s %-9s %-6s %-27s %-27s %-6s %s" %
                  (name, metric["unit"], metric.get("bound", "-"), cells[0],
                   cells[1], "%d/%d" % (wins, len(parent)), outcome))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    runner = sub.add_parser("run")
    runner.add_argument("--parent", required=True)
    runner.add_argument("--change", required=True)
    runner.add_argument("--out", required=True)
    runner.add_argument("--runs", type=int, default=10)
    runner.add_argument("--first-seed", type=int, default=1)
    runner.add_argument("--trace", choices=["0", "1"], default="0")
    runner.add_argument("--workload", action="append")
    reporter = sub.add_parser("report")
    reporter.add_argument("results")
    args = parser.parse_args()
    if args.mode == "run":
        run(args)
    else:
        report(args)


if __name__ == "__main__":
    main()
