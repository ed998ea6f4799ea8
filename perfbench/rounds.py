#!/usr/bin/env python3
"""Repeats benchmark runs round-robin across workloads and summarizes them.

    python3 perfbench/rounds.py --rounds 10 [--workloads a,b] [--seconds 15] [--trace 0]

Round r runs every workload once, in order, with seed `--seed0 + r`, so
slow drift of the machine spreads over all workloads instead of landing
on whichever ran last. Prints each metric's median and quartiles over the
rounds (Python's `statistics.quantiles(values, n=4)`) with the
interquartile range as a share of the median, and writes the same to
`perfbench/out/rounds.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["replay_r100", "replay_r3", "serve_socket_mix", "serve_tcp_durable"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{out.stdout}")
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / abs(median) if median else None, "n": len(values)}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args()
    workloads = args.workloads.split(",")
    samples = {w: {} for w in workloads}
    for r in range(args.rounds):
        for w in workloads:
            result = run_once(w, args.seed0 + r, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
            print(f"round {r} {w} done", file=sys.stderr)
    summary = {w: {n: summarize(v) for n, v in ms.items()} for w, ms in samples.items()}
    for w, ms in summary.items():
        for n, s in ms.items():
            spread = "n/a" if s["iqr_frac"] is None else f"{s['iqr_frac']:.4f}"
            print(f"{w} {n} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"iqr/median {spread}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "rounds.json"), "w") as f:
        json.dump({"args": vars(args), "summary": summary, "samples": samples}, f, indent=1)


if __name__ == "__main__":
    main()
