#!/usr/bin/env python3
"""Run the benchmark over many seeds, summarise a set of runs, or compare two.

    python3 e2ebench/compare.py sweep --out DIR --seeds 1-10 [--workload W ...]
                                      [--trace 0|1] [--seconds S]
    python3 e2ebench/compare.py summary DIR
    python3 e2ebench/compare.py diff BASE_DIR NEW_DIR

Run from the repository root. `sweep` runs the command in BENCHMARK.json
once per workload and seed and keeps each run's stdout in DIR. `summary`
prints, per workload and end-to-end metric, the median and quartiles over
the runs, and their spread (q3 - q1) / median beside the metric's bound.
`diff` prints both sides' median and quartiles, the delta of the medians,
and whether a worsening stays inside the bound; then the per-layer medians
of the traced runs on both sides.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
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


def read_runs(directory):
    """{(workload, trace): [record, ...]} from every log in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".log"):
            continue
        with open(os.path.join(directory, name)) as f:
            for line in f:
                if line.startswith("record "):
                    rec = json.loads(line[len("record "):])
                    runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def values(records, section, metric):
    out = []
    for rec in records:
        for m in rec[section]:
            if m["name"] == metric:
                out.append(m["value"])
    return out


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def metric_names(records, section):
    names = []
    for rec in records:
        for m in rec[section]:
            if m["name"] not in names:
                names.append(m["name"])
    return names


def sweep(args):
    bench = load_bench()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            path = os.path.join(args.out, f"{workload}.t{args.trace}.s{seed}.log")
            with open(path, "w") as f:
                f.write(done.stdout)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:160]}",
                  flush=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-4000:])
    summary(argparse.Namespace(dir=args.out))


def summary(args):
    bench = load_bench()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs = read_runs(args.dir)
    for (workload, trace), records in sorted(runs.items()):
        failed = sum(r["failed"] for r in records)
        wrong = sum(not r["correct"] for r in records)
        print(f"== {workload} trace {trace}: {len(records)} runs, "
              f"{failed} failed operations, {wrong} runs with wrong outputs")
        section = "layers" if trace else "e2e"
        for name in metric_names(records, section):
            vals = values(records, section, name)
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:<28} median {med:14.4f} q1 {q1:14.4f} q3 {q3:14.4f} "
                    f"spread {spread:7.4f}")
            if name in bounds:
                b = bounds[name]["bound"]
                line += f" bound {b:.2f} ({'ok' if spread <= b / 3 else 'WIDE'})"
            print(line)


def diff(args):
    bench = load_bench()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    base, new = read_runs(args.base), read_runs(args.new)
    for (workload, trace) in sorted(set(base) | set(new)):
        b_recs, n_recs = base.get((workload, trace), []), new.get((workload, trace), [])
        if not b_recs or not n_recs:
            print(f"== {workload} trace {trace}: only on one side")
            continue
        section = "layers" if trace else "e2e"
        print(f"== {workload} trace {trace}: {len(b_recs)} base runs, {len(n_recs)} new runs")
        for name in metric_names(b_recs + n_recs, section):
            bv, nv = values(b_recs, section, name), values(n_recs, section, name)
            if not bv or not nv:
                continue
            bq1, bmed, bq3 = quartiles(bv)
            nq1, nmed, nq3 = quartiles(nv)
            delta = (nmed - bmed) / bmed if bmed else 0.0
            line = (f"  {name:<28} base {bmed:12.4f} [{bq1:.4f}, {bq3:.4f}]  "
                    f"new {nmed:12.4f} [{nq1:.4f}, {nq3:.4f}]  delta {delta:+8.2%}")
            if name in bounds and trace == 0:
                m = bounds[name]
                worse = -delta if m["better"] == "higher" else delta
                verdict = "inside bound" if worse <= m["bound"] else "REGRESSION"
                line += f"  {verdict} ({m['bound']:.2f})"
            print(line)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("--out", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--workload", action="append")
    s.add_argument("--trace", type=int, choices=[0, 1], default=0)
    s.add_argument("--seconds", type=int)
    s.set_defaults(func=sweep)
    s = sub.add_parser("summary")
    s.add_argument("dir")
    s.set_defaults(func=summary)
    s = sub.add_parser("diff")
    s.add_argument("base")
    s.add_argument("new")
    s.set_defaults(func=diff)
    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
