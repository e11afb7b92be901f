#!/usr/bin/env python3
"""Compares bench_e2e runs of two commits, or reports one commit's spread.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR
    python3 bench/e2e/compare.py --repeatability RUN_DIR

Each directory holds one file per run: the standard output of
`python3 bench/e2e/run.py ...` (or of bench_e2e). Untraced runs are read;
traced runs and other files are skipped. Python standard library only.

A comparison prints one row per workload and metric: both sides' median and
quartiles, the pair wins of the new side (runs paired by seed), the change of
the median (positive is better), and a verdict. For the end-to-end metrics of
BENCHMARK.json (gated):

  regression  the new median is worse than the base median by more than
              the metric's bound (a share of the base median)
  unresolved  either side's quartile spread is wider than the bound, and
              not every new run beats every base run
  improved    the new side wins at least 9 of 10 pairs and the medians
              differ by more than the base quartile spread
  same        otherwise

The metrics a run reports without a bound (its detail line's "reported"
object: throughput, latency, checkpoint and recovery times) get the same
improved / worse / same reading without a bound, marked "(reported)".

--repeatability prints each metric's quartile spread as a share of its
median, next to its bound; a gated spread above a third of its bound is
flagged. Exit status 1 when a gated row is a regression, unresolved, or
flagged.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(directory):
    """{workload: {seed: {metric: value}}} and {metric: spec} of the
    reported metrics, from the untraced runs in a directory."""
    runs, reported = {}, {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        objects = []
        with open(path, errors="replace") as f:
            for line in f:
                if line.startswith("{"):
                    try:
                        objects.append(json.loads(line))
                    except json.JSONDecodeError:
                        pass
        detail = next((o for o in objects if o.get("bench") == "e2e"), None)
        if detail is None or "correct" not in objects[-1]:
            continue  # not a finished bench_e2e run
        if detail["trace"] or detail["smoke"]:
            continue
        values = {k: v["value"] for k, v in objects[-1]["metrics"].items()}
        for k, v in detail["reported"].items():
            values[k] = v["value"]
            reported[k] = {"name": k, "better": v["better"]}
        runs.setdefault(detail["workload"], {})[detail["seed"]] = values
    return runs, reported


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def beats(metric, a, b):
    return a < b if metric["better"] == "lower" else a > b


def gain(metric, base, new):
    """Change from base to new as a share of base; positive is better."""
    if not base:
        return 0.0
    delta = (base - new) if metric["better"] == "lower" else (new - base)
    return delta / abs(base)


def verdict(metric, base_runs, new_runs):
    name = metric["name"]
    b = [r[name] for r in base_runs.values() if r.get(name) is not None]
    n = [r[name] for r in new_runs.values() if r.get(name) is not None]
    if not b or not n:
        return None
    bq, nq = quartiles(b), quartiles(n)
    seeds = sorted(set(base_runs) & set(new_runs))
    pairs = [(base_runs[s][name], new_runs[s][name]) for s in seeds]
    wins = sum(beats(metric, y, x) for x, y in pairs)
    losses = sum(beats(metric, x, y) for x, y in pairs)
    change = gain(metric, bq[1], nq[1])
    separated = abs(nq[1] - bq[1]) > bq[2] - bq[0]
    bound = metric.get("bound")
    if bound is not None and -change > bound:
        word = "regression"
    elif (bound is not None and max(spread(b), spread(n)) > bound
          and not all(beats(metric, y, x) for x in b for y in n)):
        word = "unresolved"
    elif pairs and wins >= 0.9 * len(pairs) and separated:
        word = "improved"
    elif bound is None and pairs and losses >= 0.9 * len(pairs) and separated:
        word = "worse"
    else:
        word = "same"
    return bq, nq, wins, len(pairs), change, word


def compare(gated, reported, base, new):
    bad = False
    fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
    print(f"{'workload':<14} {'metric':<28} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'wins':>6} {'change':>8}  verdict")
    for workload in sorted(set(base) | set(new)):
        for metric in gated + reported:
            row = verdict(metric, base.get(workload, {}), new.get(workload, {}))
            gate = "bound" in metric
            if row is None:
                print(f"{workload:<14} {metric['name']:<28} missing on one side")
                bad |= gate
                continue
            bq, nq, wins, pairs, change, word = row
            bad |= gate and word in ("regression", "unresolved")
            print(f"{workload:<14} {metric['name']:<28} {fmt(bq):>30} {fmt(nq):>30} "
                  f"{wins:>2}/{pairs:<3} {change:>+8.2%}  {word}"
                  f"{'' if gate else ' (reported)'}")
    return bad


def repeatability(gated, reported, runs):
    bad = False
    print(f"{'workload':<14} {'metric':<28} {'runs':>4} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload in sorted(runs):
        for metric in gated + reported:
            name = metric["name"]
            values = [r[name] for r in runs[workload].values()
                      if r.get(name) is not None]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            s = spread(values)
            bound = metric.get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and s > bound / 3:
                flag = "  > bound/3"
                bad = True
            shown = f"{bound:>6.0%}" if bound is not None else f"{'-':>6}"
            print(f"{workload:<14} {name:<28} {len(values):>4} {median:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {s:>8.2%} {shown}{flag}")
    return bad


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("dirs", nargs="+", help="BASE_DIR NEW_DIR, or RUN_DIR")
    parser.add_argument("--repeatability", action="store_true")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    if len(args.dirs) != (1 if args.repeatability else 2):
        parser.error("--repeatability takes RUN_DIR; a comparison takes "
                     "BASE_DIR NEW_DIR")
    with open(args.benchmark) as f:
        gated = json.load(f)["end_to_end"]
    loaded = [load_runs(d) for d in args.dirs]
    reported = list({k: v for _, r in loaded for k, v in r.items()}.values())
    if args.repeatability:
        bad = repeatability(gated, reported, loaded[0][0])
    else:
        bad = compare(gated, reported, loaded[0][0], loaded[1][0])
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
