#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--out results.json]
    python3 perfbench/spread.py --compare before.json after.json

The first form runs perfbench/run.py once per seed (seeds 1 .. runs) on
every workload of BENCHMARK.json, with tracing off, and prints
for each workload and metric the median, the first and third quartiles
(Python's statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median. Besides the metrics of
BENCHMARK.json it prints failed_frac (failed over attempted cases) and
probe_compiles (from each run's table), which have no bound because they
are 0 when all is well; `--runs 1` prints every metric of every workload
once. A pair whose spread is wider than
the metric's bound is flagged UNRESOLVED: a change smaller than its bound
cannot be told from noise there. The results, with each run's provenance
line, go to --out when given. Exit code 1 means a pair was flagged or a run
failed.

The second form compares two such result files: a metric whose median in
the second file is worse than in the first by more than its bound is
flagged WORSE, and one whose spread in either file is wider than its bound
is flagged UNRESOLVED. Exit code 1 means something was flagged.

Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# Metrics reported besides BENCHMARK.json's, which have no bound.
EXTRA = ["failed_frac", "probe_compiles"]


def summarize(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def table_value(lines, name):
    """The median column of metric `name` in a run's readable table."""
    for line in lines:
        fields = line.split()
        if len(fields) == 6 and fields[0] == name:
            return float(fields[1])
    raise RuntimeError(f"no {name} row in the run's table")


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    meta = next((l[5:] for l in lines if l.startswith("meta ")), "{}")
    res = json.loads(lines[-1])
    extra = {"failed_frac": res["failed"] / res["attempted"],
             "probe_compiles": table_value(lines, "probe_compiles")}
    return res, json.loads(meta), extra


def measure(args, spec):
    results, bad = {}, False
    for w in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(1, args.runs + 1):
            res, meta, extra = run_once(spec, w, seed)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} failed",
                      file=sys.stderr)
                bad = True
            runs.append({"seed": seed, "meta": meta, "result": res, "extra": extra})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), file=sys.stderr)
        metrics = {m["name"]: summarize([r["result"]["metrics"][m["name"]]["value"]
                                         for r in runs]) for m in spec["end_to_end"]}
        for name in EXTRA:
            metrics[name] = summarize([r["extra"][name] for r in runs])
        results[w] = {"runs": runs, "metrics": metrics}
    return results, bad


def report(spec, results):
    flagged = False
    print(f"{'workload':<12} {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w, r in results.items():
        for m in spec["end_to_end"]:
            s = r["metrics"][m["name"]]
            flag = s["spread"] > m["bound"]
            flagged |= flag
            print(f"{w:<12} {m['name']:<16} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['spread']:>8.4f} {m['bound']:>6}"
                  + ("  UNRESOLVED" if flag else ""))
        for name in EXTRA:
            s = r["metrics"][name]
            print(f"{w:<12} {name:<16} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['spread']:>8.4f} {'-':>6}")
    return flagged


def compare(spec, before, after):
    flagged = False
    for w in before:
        if w not in after:
            continue
        for m in spec["end_to_end"]:
            a, b = before[w]["metrics"][m["name"]], after[w]["metrics"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            notes = []
            if change > m["bound"]:
                notes.append("WORSE")
            if max(a["spread"], b["spread"]) > m["bound"]:
                notes.append("UNRESOLVED")
            flagged |= bool(notes)
            print(f"{w:<12} {m['name']:<16} {a['median']:>14.6g} -> {b['median']:>14.6g} "
                  f"({change:+.4f} worse, bound {m['bound']}) {' '.join(notes)}")
    return flagged


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        files = []
        for path in args.compare:
            with open(path) as f:
                files.append(json.load(f))
        return 1 if compare(spec, *files) else 0
    results, bad = measure(args, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    flagged = report(spec, results)
    return 1 if flagged or bad else 0


if __name__ == "__main__":
    sys.exit(main())
