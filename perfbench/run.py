#!/usr/bin/env python3
"""pairbath benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pairbath checkout; the package is taken from
./src. Each workload invokes the real CLI (`python3 -m pairbath.cli_runner`)
in fresh interpreters, repeating whole passes until S seconds have been
measured (at least one pass, so purify's single 30 s call always
completes), and checks every pass's outputs. BLAS thread variables are
left exactly as found.

--trace 0 prints the end-to-end metrics, built from each call's fastest
time in the run. --trace 1 makes one untraced and one traced pass, times
calls into each module from outside (tracing.py), and prints the
per-layer metrics; scan adds one traced call with its process pool.

The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A pass that exits non-zero or fails its output check counts as failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_PROBES = 11         # fresh-interpreter set-up timings per run
PROBE_CALLS = 11          # direct calls per probed layer function
CALL_TIMEOUT = 170.0      # seconds; a run must end within 180


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def launch(argv: list, stderr_path: Path) -> tuple[int, float, float]:
    """Run argv to completion: (exit code, wall s, peak RSS MB).

    The RSS comes from wait4, so it covers the process and every child it
    waited for (scan workers included)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CALL_TIMEOUT, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_probe(command: str, config: Path) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), command, str(config)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CALL_TIMEOUT)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def write_configs(invocations: list, work: Path) -> list:
    import yaml
    paths = []
    for k, inv in enumerate(invocations):
        path = work / f"config-{k}.yaml"
        path.write_text(yaml.safe_dump(inv.config, sort_keys=False))
        paths.append(path)
    return paths


def run_pass(wl, seed: int, invocations: list, configs: list, pass_dir: Path,
             state: dict, span_dir: Path | None = None) -> dict:
    outs, walls, rss, problems = [], [], [], []
    for k, (inv, cfg) in enumerate(zip(invocations, configs)):
        out = pass_dir / str(k)
        out.mkdir(parents=True)
        cli = [inv.command, "--config", str(cfg), "--out", str(out), *inv.flags]
        if span_dir is None:
            argv = [sys.executable, "-m", "pairbath.cli_runner", *cli]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_dir), *cli]
        code, wall, peak = launch(argv, pass_dir / f"{k}.stderr")
        outs.append(out)
        walls.append(wall)
        rss.append(peak)
        if code != 0:
            tail = (pass_dir / f"{k}.stderr").read_text(errors="replace")[-400:]
            problems.append(f"{inv.command} exited {code}: {tail.strip()}")
    if not problems:
        try:
            problems = wl.check(seed, outs, state)
        except Exception as exc:   # a malformed output is a failed check
            problems = [f"output check raised {exc!r}"]
    return {"wall": sum(walls), "calls": walls, "rss": max(rss), "problems": problems}


def machine_info() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure_setup(invocations: list, configs: list) -> list:
    # one untimed probe first: it pays the one-off bytecode compilation
    setup_probe(invocations[0].command, configs[0])
    return [setup_probe(invocations[k % len(configs)].command,
                        configs[k % len(configs)])
            for k in range(SETUP_PROBES)]


def end_to_end(wl, seed: int, seconds: float, invocations, configs, work) -> tuple:
    setups = [p["import_s"] + p["validate_s"] for p in measure_setup(invocations, configs)]
    passes, state = [], {}
    start = time.perf_counter()
    while (len(passes) < wl.min_passes
           or time.perf_counter() - start < seconds):
        passes.append(run_pass(wl, seed, invocations, configs,
                               work / f"pass-{len(passes)}", state))
    # each call's fastest time, summed over the pass: other tenants of the
    # machine only ever add time, in stretches of seconds that slowed single
    # calls up to threefold. Compute time subtracts the fastest set-up.
    wall = sum(min(times) for times in zip(*(p["calls"] for p in passes)))
    compute = wall - len(invocations) * min(setups)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "rounds_per_s": (wl.rounds / compute, "1/s"),
        "points_per_s": (wl.points / compute, "1/s"),
        "peak_rss_mb": (statistics.median(p["rss"] for p in passes), "MB"),
    }
    return passes, metrics, []


def traced(wl, seed: int, seconds: float, invocations, configs, work) -> tuple:
    import layers
    probes = measure_setup(invocations, configs)
    state = {}
    plain = run_pass(wl, seed, invocations, configs, work / "pass-plain", state)
    span_dir = work / "spans"
    span_dir.mkdir()
    with_spans = run_pass(wl, seed, invocations, configs, work / "pass-traced",
                          state, span_dir=span_dir)
    passes = [plain, with_spans]
    pool_dir = None
    if wl.pool_flags:
        pool_dir = work / "pool-spans"
        pool_dir.mkdir()
        pooled = [dataclasses.replace(inv, flags=wl.pool_flags) for inv in invocations]
        passes.append(run_pass(wl, seed, pooled, configs, work / "pass-pool",
                               state, span_dir=pool_dir))
    metrics, table = layers.per_layer(wl.name, seed, span_dir, pool_dir, probes,
                                      PROBE_CALLS)
    metrics["trace.overhead_s"] = (with_spans["wall"] - plain["wall"], "s")
    return passes, metrics, table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "pairbath" / "cli_runner.py").is_file():
        die(f"no pairbath sources under {SRC}; run from a checkout's root")
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        die("--seed must be non-negative")
    wl = WORKLOADS[args.workload]

    print(json.dumps({"machine": machine_info()}), flush=True)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        invocations = wl.invocations(args.seed)
        configs = write_configs(invocations, work)
        measure = traced if args.trace else end_to_end
        passes, metrics, table = measure(wl, args.seed, args.seconds,
                                         invocations, configs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [p for p in passes if p["problems"]]
    print(json.dumps({"call_wall_s": [p["calls"] for p in passes]}))
    for row in table:
        print(json.dumps(row))
    for k, p in enumerate(passes):
        for problem in p["problems"]:
            print(f"pass {k} failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
