#!/usr/bin/env python3
"""Regenerates the layer-share tables of perfbench/README.md.

    python3 perfbench/layer_table.py [--seeds 1,9001] [--seconds 25]

Runs the traced pass of every workload once per seed (the second seed is
held out: no tuning ran on it) and prints two markdown tables: where the
planning-session time goes by layer, and where a served request's latency
goes. Run from the root of the source tree; takes a few minutes.
"""
import argparse
import json
import subprocess
import sys

WORKLOADS = ("plan-orion", "serve-zonal", "cancel-orion")
SESSION_SHARES = ("share.rl.update", "share.rl.policy", "share.core.env",
                  "share.analysis", "share.tsn", "share.other")
REQUEST_SHARES = ("service.submit_share", "service.queue_share",
                  "service.session_share", "service.finish_share")


def traced_run(workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    figures = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        name, _, rest = line.partition(" = ")
        if rest:
            figures[name] = float(rest.split()[0])
    return figures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,9001")
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    runs = [(w, s, traced_run(w, s, args.seconds)) for w in WORKLOADS for s in seeds]

    print("| workload | seed | traced session s | rl.update | rl.policy | core (env) "
          "| analysis | tsn | other |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload, seed, f in runs:
        shares = " | ".join(f"{100 * f[k]:.2f}%" for k in SESSION_SHARES)
        print(f"| {workload} | {seed} | {f['core.plan_s']:.2f} | {shares} |")
    print()
    print("| workload | seed | submit | queue | session | finish |")
    print("|---|---|---|---|---|---|")
    for workload, seed, f in runs:
        if workload != "serve-zonal":
            continue
        shares = " | ".join(f"{100 * f[k]:.2f}%" for k in REQUEST_SHARES)
        print(f"| {workload} | {seed} | {shares} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
