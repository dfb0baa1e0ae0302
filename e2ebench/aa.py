#!/usr/bin/env python3
"""Runs the benchmark over a range of seeds and reports each end-to-end
metric's median, quartiles and spread (the distance between the first
and third quartile as a share of the median, as statistics.quantiles
gives them), next to the bound BENCHMARK.json gives it. Workloads are
interleaved seed by seed, so a slow spell of the machine lands on all of
them. With --sets 2 the whole range runs twice and each second-set
median is compared with the first: the A/A check of README.md.

Run from the repository root:

    python3 e2ebench/aa.py --workloads serve,churn,ingest --seeds 1-10 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result")
    lines = out.stdout.splitlines()
    steal = [l.split("steal=")[-1] for l in lines if l.startswith("env:")]
    digest = [l.split("digest ")[-1] for l in lines if l.startswith("sweep (")]
    return res["metrics"], (steal or ["?"])[-1], (digest or ["?"])[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")

    runs = {(w, s): [] for w in workloads for s in range(args.sets)}
    digests = {}
    for s in range(args.sets):
        for seed in seeds(args.seeds):
            for w in workloads:
                m, steal, digest = run(w, seed, seconds)
                runs[(w, s)].append(m)
                digests.setdefault((w, seed), set()).add(digest)
                print(f"set {s + 1} {w} seed {seed} steal {steal} {digest[:19]}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in sorted(m.items())), flush=True)

    differ = sorted(k for k, d in digests.items() if len(d) > 1)
    print(f"\nanswer digests: {len(digests) - len(differ)} of {len(digests)} (workload, seed) pairs "
          f"identical across sets" + (f"; differ: {differ}" if differ else ""))

    for w in workloads:
        print(f"\n{w}: {args.sets} set(s) of seeds {args.seeds}, {seconds} s each")
        print(f"{'metric':14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'vs set 1':>9}")
        for name in sorted(bounds):
            first = None
            for s in range(args.sets):
                vals = [r[name]["value"] for r in runs[(w, s)]]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                shift = ""
                if first is None:
                    first = med
                elif first:
                    shift = f"{(med - first) / first * 100:+.1f}%"
                print(f"{name:14} {s + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread * 100:7.2f}% "
                      f"{bounds[name] * 100:5.0f}% {shift:>9}")


if __name__ == "__main__":
    main()
