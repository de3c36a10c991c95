#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload k times with consecutive seeds and prints, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
with Q1 and Q3 from statistics.quantiles(values, n=4). With --same-seed
every run uses --seed itself, which measures run-to-run noise alone; with
consecutive seeds the spread also holds the differences between inputs.
With --compare it also checks each median against an earlier set's
output. It exits 1 when a run is incorrect, a spread exceeds its bound
or a median is worse than the earlier set's by more than the bound.
setup_s is gated like every other metric here, although a spread of
set-up time alone does not make a set of runs fail elsewhere.

    python3 e2ebench/steady.py -k 10 --seed 1 --out set1.json
    python3 e2ebench/steady.py -k 10 --seed 101 --compare set1.json
    python3 e2ebench/steady.py -k 5 --seed 1 --same-seed --workloads lubm-write-mix

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace=0):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    took = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1]), took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-k", type=int, default=10, help="runs per workload")
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed+i")
    ap.add_argument("--same-seed", action="store_true", help="every run uses --seed")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--out", help="write the raw values here as JSON")
    ap.add_argument("--compare", help="an earlier --out file to compare medians against")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    earlier = json.load(open(args.compare)) if args.compare else None

    values = {}
    ok = True
    for w in workloads:
        values[w] = {name: [] for name in metrics}
        shares, took = [], []
        seeds = [args.seed + (0 if args.same_seed else i) for i in range(args.k)]
        for seed in seeds:
            res, secs = run_once(w, seed, bench["run_seconds"])
            took.append(secs)
            if not res["correct"]:
                ok = False
                print(f"{w} seed {seed}: correct is false")
            shares.append(res["failed"] / res["attempted"])
            for name in metrics:
                values[w][name].append(res["metrics"][name]["value"])
        print(f"\n{w}: {args.k} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"{statistics.median(took):.1f} s per run, failed share {sorted(set(shares))}")
        print(f"  {'metric':<16}{'median':>14}{'Q1':>14}{'Q3':>14}{'spread':>9}{'bound':>7}  verdict")
        for name, m in metrics.items():
            xs = values[w][name]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
            if spread > m["bound"]:
                ok = False
            line = f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{m['bound']:>7}  {verdict}"
            if earlier and w in earlier:
                prev = statistics.median(earlier[w][name])
                worse = (med - prev) / prev if m["better"] == "lower" else (prev - med) / prev
                line += f"; vs earlier median {prev:.6g}: {worse:+.4f} worse"
                if worse > m["bound"]:
                    ok = False
                    line += " EXCEEDS BOUND"
            print(line)
    if args.out:
        json.dump(values, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
