#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads scan dephase --seeds 10 --first-seed 0 \
        [--trace 0] [--out perfbench/results/NAME.json]

Run from the root of a checkout that holds BENCHMARK.json. For every
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median next to a third of the metric's bound, the steadiness
target; --out keeps every run's result line and the machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def one_run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}:\n"
                           f"{res.stderr[-2000:]}")
    machine = json.loads(lines[0])["machine"]
    return {"workload": workload, "seed": seed, "run_s": elapsed,
            "machine": machine, "result": json.loads(lines[-1]),
            "stderr": res.stderr[-2000:]}


def summarize(bench: dict, runs: list) -> list:
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    rows = []
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        rows.append({"metric": name, "unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bound,
                     "steady": None if bound is None else spread < bound / 3})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())

    record = {"benchmark": bench, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = one_run(bench, workload, seed, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: {run['run_s']:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
            if run["stderr"].strip():
                print(run["stderr"].strip(), file=sys.stderr)
            runs.append(run)
        summary = summarize(bench, runs)
        for row in summary:
            flag = "" if row["steady"] is None else ("ok" if row["steady"] else "WIDE")
            print(f"  {row['metric']:<16} median {row['median']:.6g} {row['unit']}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}"
                  + ("" if row["bound"] is None else
                     f"  (bound/3 {row['bound'] / 3:.4f}) {flag}"), flush=True)
        record["machine"] = runs[0]["machine"]
        record["workloads"][workload] = {
            "runs": [{k: r[k] for k in ("seed", "run_s", "result")} for r in runs],
            "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
