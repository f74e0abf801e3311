#!/usr/bin/env python3
"""Steadiness check for perfbench: run workloads over several seeds and
report, per end-to-end metric, the median and the quartile spread
(Q3 - Q1 over the median, quartiles as statistics.quantiles(n=4) gives
them).

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads settle,recover,solve --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --json spread.json

Runs are sequential; each is one `bash perfbench/run.sh` invocation with
the run length from BENCHMARK.json unless --seconds is given.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(s):
    out = []
    for part in s.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="solve,settle,recover")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--json", help="write every run's metrics and the summary here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}")
            res = json.loads(lines[-1])
            prov = json.loads(lines[-2])["provenance"]
            vals = {k: v["value"] for k, v in res["metrics"].items()}
            runs[wl].append({"seed": seed, "metrics": vals, "provenance": prov})
            print(f"{wl} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(vals.items()))
                  + f" steal%={prov['host_steal_pct']:.1f} ops={prov['timed_ops']}", flush=True)

    summary = {}
    for wl, rs in runs.items():
        summary[wl] = {}
        for name in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][name] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[wl][name] = {"median": med, "spread": spread, "bound": bounds.get(name)}
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
            print(f"{wl:8s} {name:14s} median={med:<12.5g} spread={spread:.4f} bound={bounds.get(name)}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seconds": seconds, "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
