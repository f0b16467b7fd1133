"""Per-layer metrics of a traced run.

Each timing is the median per-call duration of one function, taken from
the traced CLI pass when the workload's CLI path calls it. Every other
(metric, workload) pair is timed on a small fixed probe in this process,
so that each traced run reports every metric; README.md lists which
source each workload uses. dense.round_s and dense.round_dephased_s time
functions the CLI never calls on their own, directly on the workload's
bath. Counts marked computed come from array sizes, not from the run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import workloads as W
from tracing import Tracer, load_spans

# metric -> traced function whose per-call durations it summarizes
SPAN_METRICS = {
    "spin_core.propagators_s": "spin_core.branch_propagators",
    "dense.build_s": "dynamics_dense.build_branch_operators",
    "dense.purity_s": "dynamics_dense.purity",
    "dense.trajectory_s": "dynamics_dense.run_protocol",
    "dense.pair_rdms_s": "dynamics_dense.all_pair_rdms",
    "analysis.detect_pairing_s": "analysis.detect_pairing",
    "analysis.concurrence_s": "analysis.concurrence",
    "factored.sample_s": "dynamics_factored.run_factored",
    "factored.extend_s": "dynamics_factored.extend",
    "factored.success_probability_s": "dynamics_factored.success_probability",
    "factored.rdm_s": "dynamics_factored._rdm_unnormalized",
    "protocols.verification_scan_s": "protocols.verification_scan",
    "protocols.spectroscopy_scan_s": "protocols.spectroscopy_scan",
    "protocols.coherence_trace_s": "protocols.coherence_trace",
}

PROBE_M = 20            # dense probe rounds
PROBE_FACTORED_M = 6
PROBE_VERIFY_M = 50
PROBE_GRID = 41


def durations(spans: list, metric: str) -> list:
    name = SPAN_METRICS[metric]
    if metric == "factored.extend_s":
        # the last round of each sample: the latest extend under each run_factored
        last = {}
        for s in spans:
            if s["name"] == name:
                key = (s["pid"], s["parent"])
                if key not in last or s["t0"] > last[key]["t0"]:
                    last[key] = s
        picked = last.values()
    else:
        picked = [s for s in spans if s["name"] == name]
    return [s["t1"] - s["t0"] for s in picked]


def _call_times(calls: int, fn, *args, **kwargs) -> list:
    out = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        out.append(time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# baths the probes run on
# ---------------------------------------------------------------------------

def dense_bath(name: str, seed: int):
    """(couplings, tau, dephasing rate) for dense.round_s on this workload."""
    if name == "purify":
        return (*W.auto_bath(dict(W.DIMER, n_pairs=5)), 0.0)
    if name == "scan":   # the window's first grid point
        from pairbath.spin_core import CouplingSet, effective_coupling
        c, _ = W.auto_bath(dict(W.DIMER, n_pairs=4))
        g_eff = effective_coupling(c)
        i0, j0 = W.scan_window(seed)
        omega = W.window_grid(i0, 1)["start"] * g_eff
        return CouplingSet(c.g_vectors, omega), W.window_grid(j0, 1)["start"] / g_eff, 0.0
    c, tau = W.auto_bath(W.CHAIN6)
    rate = W.DEPHASING[-1] / tau if name == "dephase" else 0.0
    return c, tau, rate


# ---------------------------------------------------------------------------
# fallback probes, one per layer
# ---------------------------------------------------------------------------

def probe_dense(calls: int) -> None:
    from pairbath import analysis, dynamics_dense as dd
    c, tau = W.auto_bath(W.CHAIN6)
    cfg = dd.ProtocolConfig(omega=c.omega, tau=tau, measurements=PROBE_M)
    n = c.n_spins
    for _ in range(calls):
        traj = dd.run_protocol(dd.maximally_mixed(n), cfg, c)
        rdms = dd.all_pair_rdms(traj.final_rho, n)
        asg = analysis.detect_pairing(rdms, n)
        for m in asg.matches:
            analysis.concurrence(rdms[(m.i, m.j)])


def probe_factored(calls: int) -> None:
    from pairbath import dynamics_dense as dd, dynamics_factored as df
    c, tau = W.auto_bath(W.CHAIN6)
    cfg = dd.ProtocolConfig(omega=c.omega, tau=tau, measurements=PROBE_FACTORED_M)
    up = np.tile([1.0 + 0j, 0.0], (c.n_spins, 1))
    for _ in range(calls):
        ens, _ = df.run_factored(up, cfg, c)
        df.reduced_density_matrix(ens, 0, 1)


def probe_protocols(calls: int) -> None:
    from pairbath import protocols as pr
    bath = _species_bath()
    for _ in range(calls):
        pr.verification_scan(W.VERIFY["g1"], W.VERIFY["g2"], W.VERIFY["omega"],
                             m_max=PROBE_VERIFY_M)
        pr.spectroscopy_scan(bath, np.linspace(0.055, 0.105, PROBE_GRID),
                             m=W.SENSE["m"])
        pr.coherence_trace(None, bath, np.linspace(0.02, 2.0, PROBE_GRID))


def _species_bath():
    from pairbath.protocols import SpeciesBath, SpeciesGroup
    return SpeciesBath(tuple(SpeciesGroup(sp["omega"], np.array(sp["g_vectors"]),
                                          sp["preparation"])
                             for sp in W.SENSE["species"]))


PROBES = {"spin_core": probe_dense, "dense": probe_dense,
          "analysis": probe_dense, "factored": probe_factored,
          "protocols": probe_protocols}


# ---------------------------------------------------------------------------
# computed counts
# ---------------------------------------------------------------------------

def path_products(m_max: int, preparations: int, taus: int, m: int,
                  spins: int, baths: int) -> int:
    """2x2 products the path-operator engine performs: a path operator of
    length k takes 2 (X, Y) + 2k (the train) + 1 (the overlap), once per
    spin; verification rebuilds them for every k = 1..m_max on 2 spins."""
    verify = preparations * sum(2 * (2 * k + 3) for k in range(1, m_max + 1))
    return verify + baths * taus * spins * (2 * m + 3)


def computed_counts(name: str, dense_n: int) -> dict:
    d = 2 ** dense_n
    if name == "montecarlo":
        n, m, kept = 2 * W.MC_PAIRS, W.MC_M, W.MC_SAMPLES
    else:
        n, m, kept = W.CHAIN6["n"], PROBE_FACTORED_M, 1
    spins = sum(len(sp["g_vectors"]) for sp in W.SENSE["species"])
    if name == "protocols":
        # sense scans the bath as prepared and retagged mixed
        products = path_products(W.VERIFY["m_max"], len(W.VERIFY["preparations"]),
                                 W.SENSE["tau_grid"]["points"], W.SENSE["m"], spins, 2)
    else:
        products = path_products(PROBE_VERIFY_M, 1, PROBE_GRID, W.SENSE["m"], spins, 1)
    return {
        # V rho V^dag: two complex gemms, 8 d^3 flops and 3 d^2 * 16 B each
        "dense.flops_per_round": (16 * d ** 3, "flop"),
        "dense.bytes_per_round": (96 * d ** 2, "B"),
        "factored.branches": (2 ** m, "count"),
        "factored.gram_bytes": (kept * n * 4 ** m * 16, "B"),
        "protocols.path_products": (products, "count"),
    }


# ---------------------------------------------------------------------------

def scan_efficiency(spans: list, pool_spans: list) -> tuple[float, list]:
    """Serial time of the command's work over (workers x the command's time).

    With a pool call (scan), the serial time is the sum of the grid points'
    times in the one-worker traced pass and the command's time is cmd_scan
    in the pooled call. For serial commands it is the time spent in the
    command's direct layer calls over the command's time."""
    def total(picked):
        return sum(s["t1"] - s["t0"] for s in picked)
    if pool_spans:
        serial = total(s for s in spans if s["name"] == "cli_runner._scan_point")
        pooled = total(s for s in pool_spans if s["name"] == "cli_runner.cmd_scan")
        rows = [{"layer_metric": "cli.scan_serial_points_s", "total_s": serial},
                {"layer_metric": "cli.scan_pool_command_s", "total_s": pooled}]
        return serial / (int(W.SCAN_POOL_FLAGS[-1]) * pooled), rows
    # span ids restart in every CLI process, so key them by process too
    commands = {(s["pid"], s["id"]): s for s in spans
                if s["name"].startswith("cli_runner.cmd_")}
    inner = total(s for s in spans if (s["pid"], s["parent"]) in commands)
    return inner / total(commands.values()), []


def per_layer(name: str, seed: int, span_dir, pool_dir, setup_probes: list,
              calls: int) -> tuple[dict, list]:
    """Per-layer metrics and one table row per timing for a traced run."""
    from pairbath import dynamics_dense as dd
    spans = load_spans(span_dir)
    efficiency, pool_rows = scan_efficiency(
        spans, load_spans(pool_dir) if pool_dir else [])
    timings = {}   # metric -> (durations, source)

    # functions the CLI never calls on their own, on the workload's bath
    c, tau, rate = dense_bath(name, seed)
    rho = dd.maximally_mixed(c.n_spins)
    v = dd.build_V(c, tau)
    timings["dense.round_s"] = (_call_times(calls, dd.apply_projection, rho, v), "direct")
    one = dd.ProtocolConfig(omega=c.omega, tau=tau, measurements=1, dephasing_rate=rate)
    timings["dense.round_dephased_s"] = (
        _call_times(calls, dd.run_protocol, rho, one, c), "direct")

    for metric in SPAN_METRICS:
        got = durations(spans, metric)
        if got:
            timings[metric] = (got, "cli")
    missing = {m.split(".")[0] for m in SPAN_METRICS if m not in timings}
    if missing:
        tracer = Tracer()
        tracer.install()
        for probe in {PROBES[layer] for layer in missing}:
            probe(calls)
        for metric in SPAN_METRICS:
            if metric not in timings:
                timings[metric] = (durations(tracer.spans, metric), "probe")

    for key in ("import_s", "validate_s"):
        timings[f"cli.{key}"] = ([p[key] for p in setup_probes], "setup probe")

    metrics, table = {}, pool_rows
    for metric, (values, source) in timings.items():
        metrics[metric] = (statistics.median(values), "s")
        table.append({"layer_metric": metric, "median_s": statistics.median(values),
                      "tail": tail_label(len(values)),
                      "tail_s": tail_value(values), "n": len(values),
                      "source": source})
    metrics["cli.scan_efficiency"] = (efficiency, "ratio")
    metrics.update(computed_counts(name, c.n_spins))
    return metrics, table


def tail_label(n: int) -> str:
    """Highest percentile with at least ten samples beyond it."""
    return "max" if n < 20 else f"p{int(100 * (1 - 10 / n))}"


def tail_value(values: list) -> float:
    n = len(values)
    if n < 20:
        return max(values)
    return statistics.quantiles(values, n=100)[int(100 * (1 - 10 / n)) - 1]
