#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

    python3 perfbench/steady.py [--out FILE]

Runs every workload of BENCHMARK.json ten times through run.py, with seeds
1..10 and the benchmark's run_seconds, alternating the workload order
between rounds. For each end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and IQR/median next to the metric's
bound from BENCHMARK.json, and flags spreads at or above a third of the
bound. It also checks that every run was correct and that the
deterministic metrics read the same on every run. The host fingerprint
heads the report.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DETERMINISTIC = ("phast_ipc_vs_mdptage_pct", "phast_mdp_mpki")
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    host = next((l.split(" — ", 1)[1] for l in proc.stderr.splitlines()
                 if l.startswith("perfbench ") and " — " in l), "unknown host")
    return json.loads(proc.stdout.strip().splitlines()[-1]), host


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", help="also write the report to this file")
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    problems, host = [], "unknown host"
    for r, seed in enumerate(SEEDS):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            res, host = run_once(w, seed, seconds)
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"round {r + 1}/{len(SEEDS)} {w} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                  file=sys.stderr, flush=True)

    lines = [f"# perfbench steadiness: {len(SEEDS)} runs per workload, {seconds} s each, "
             f"seeds {SEEDS[0]}..{SEEDS[-1]}",
             f"# host: {host}", "",
             f"{'workload':<12} {'metric':<20} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'iqr/med':>8} {'bound':>6}  verdict"]
    for w in workloads:
        for name in sorted(values[w]):
            xs = values[w][name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            b = bounds.get(name, {}).get("bound")
            verdict = "-"
            if b is not None:
                verdict = "ok" if spread < b / 3 else "NOISY"
            if name in DETERMINISTIC and len(set(xs)) != 1:
                verdict = "NOT DETERMINISTIC"
            if verdict in ("NOISY", "NOT DETERMINISTIC"):
                problems.append(f"{w} {name}: {verdict} (iqr/median {spread:.4f})")
            unit = bounds.get(name, {}).get("unit", "")
            lines.append(f"{w:<12} {name:<20} {unit:<8} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                         f"{spread:>8.4f} {b if b is not None else '-':>6}  {verdict}")
    lines.append("")
    lines += [f"problem: {p}" for p in problems] or ["all runs correct; every gated spread below a third of its bound"]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
