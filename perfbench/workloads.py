"""The five benchmark workloads: CLI invocations, work counts, output checks.

A pass is one execution of a workload: its invocations in order, each in
a fresh interpreter. Every pass is checked; a non-zero exit or a failed
check fails the pass. Recorded parent outputs live in expected/ and are
written by record_expected.py.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

EXPECTED = Path(__file__).resolve().parent / "expected"

# recorded outputs must match within this tolerance: absolute for values
# of order one (probabilities per step, purities, fidelities), relative for
# grid coordinates and cumulative probabilities, which reach 1e-95
TOL = 1e-12

DIMER = {"kind": "dimer_chain", "pair_spacing": 8.0, "dimer_gap": 1.0,
         "z0": 100.0, "x0": 60.0}
CHAIN6 = {"kind": "chain", "n": 6, "spacing": 8.0, "z0": 100.0, "x0": 60.0}

SCAN_FULL = {"start": 0.5, "stop": 2.0, "points": 16}   # criterion 9's grid
SCAN_WINDOW = (2, 4)   # omega x tau points: short passes, several per run
SCAN_M = 40
# the timed passes run one worker; the traced run adds one call with the
# process pool, whose oversubscribed BLAS threads made the same window
# take 7.2-16.2 s call to call (ROADMAP item 5)
SCAN_POOL_FLAGS = ("--threads", "2")

DEPHASING = (0.0, 0.01, 0.03, 0.1, 0.3)    # gamma_d * tau, criterion 7
DEPHASE_M = 800

VERIFY = {"g1": 3.0, "g2": 4.0, "omega": 10.0, "m_max": 200,
          "preparations": ["unpolarized", "singlet", "mixed", "polarized"]}
SENSE = {
    "m": 16, "omega": 10.0, "epsilon": 1.0,
    "species": [   # criterion 8: strong paired spins plus one weak spin per side
        {"omega": 10.0, "preparation": "paired",
         "g_vectors": [[2.2, 0.3, 1.1], [2.2, 0.3, 1.1],
                       [3.1, -0.5, 1.6], [3.1, -0.5, 1.6]]},
        {"omega": 11.0, "preparation": "mixed", "g_vectors": [[0.45, 0.0, 0.12]]},
        {"omega": 9.0, "preparation": "mixed", "g_vectors": [[0.40, 0.1, 0.10]]},
    ],
    "tau_grid": {"start": 0.055, "stop": 0.105, "points": 601},
    "time_grid": {"start": 0.02, "stop": 2.0, "points": 481},
}

MC_PAIRS = 8           # N = 16, beyond the dense limit
MC_M = 8
MC_SAMPLES = 16
# largest deviation from the exact mixed-state result a 16-sample estimate
# may show. Over seeds 0-29 at the parent commit the worst were 0.105
# (relative p) and 0.114 (fidelity); the exact concurrences are all 0
MC_TOL_P = 0.25        # relative, cumulative p at every step
MC_TOL_FIDELITY = 0.25
MC_TOL_CONCURRENCE = 0.1


@dataclass(frozen=True)
class Invocation:
    command: str
    config: dict
    flags: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Callable[[int], list]       # seed -> [Invocation]
    rounds: int                              # conditional rounds per pass
    points: int                              # output points per pass
    check: Callable                          # (seed, [out_dir], run state) -> [problem]
    min_passes: int = 1
    pool_flags: tuple = ()                   # traced run: one more call with these


# ---------------------------------------------------------------------------
# reading CLI outputs, resolving baths
# ---------------------------------------------------------------------------

def read_table(path: Path) -> tuple[list, np.ndarray]:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, -1)


def read_manifest(out: Path) -> dict:
    return yaml.safe_load((out / "manifest.yaml").read_text())


def _close(got, want, name: str, relative=()) -> list:
    """Problems where got differs from want beyond TOL; columns listed in
    relative are compared relative to want."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    scale = np.ones_like(want)
    scale[..., list(relative)] = np.abs(want[..., list(relative)])
    err = np.abs(got - want) - TOL * scale
    if np.any(err > 0):
        worst = int(np.argmax(err))
        return [f"{name}: entry {worst} is {got.flat[worst]!r}, "
                f"expected {want.flat[worst]!r}"]
    return []


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED / f"{name}.json").read_text())


def auto_bath(geometry: dict):
    """(CouplingSet at the auto omega, auto tau) for a config geometry,
    resolved as the CLI resolves omega: auto and tau: auto."""
    from pairbath.spin_core import (CouplingSet, chain_geometry, dimer_chain_geometry,
                                    dipolar_couplings, optimal_params)
    params = {k: v for k, v in geometry.items() if k != "kind"}
    build = chain_geometry if geometry["kind"] == "chain" else dimer_chain_geometry
    g = dipolar_couplings(build(**params)).g_vectors
    omega, tau = optimal_params(CouplingSet(g, 0.0))
    return CouplingSet(g, omega), tau


# ---------------------------------------------------------------------------
# purify: the paper's headline run
# ---------------------------------------------------------------------------

def purify_invocations(seed: int) -> list:
    return [Invocation("run", {"seed": seed,
                               "geometry": dict(DIMER, n_pairs=5),
                               "protocol": {"measurements": 100}})]


def check_purify(seed: int, outs: list, state: dict) -> list:
    out = outs[0]
    problems = []
    _, pairs = read_table(out / "pairs.csv")
    got = [(int(i), int(j)) for i, j in pairs[:, :2]]
    want = [(2 * k, 2 * k + 1) for k in range(5)]
    if got != want:
        problems.append(f"pairs {got}, expected {want}")
    elif not np.all(pairs[:, 2] > 0.9):
        problems.append(f"pair fidelities {pairs[:, 2].tolist()} not all > 0.9")
    _, traj = read_table(out / "trajectory.csv")
    if traj.shape[0] == 0 or not traj[-1, 3] > 0.9:
        problems.append("final purity not above 0.9")
    problems += _close(traj, load_expected("purify")["trajectory"], "trajectory",
                       relative=[2])
    return problems


# ---------------------------------------------------------------------------
# scan: a seed-chosen 2x4 window of criterion 9's 16x16 grid
# ---------------------------------------------------------------------------

def scan_window(seed: int) -> tuple[int, int]:
    """First omega and tau index of the seed's window in the full grid."""
    rng = random.Random(seed)
    return tuple(rng.randint(0, SCAN_FULL["points"] - size) for size in SCAN_WINDOW)


def window_grid(start: int, points: int) -> dict:
    full = np.linspace(SCAN_FULL["start"], SCAN_FULL["stop"], SCAN_FULL["points"])
    return {"start": float(full[start]), "stop": float(full[start + points - 1]),
            "points": points}


def scan_config(omega_grid: dict, tau_grid: dict, seed: int = 0) -> dict:
    return {"seed": seed, "geometry": dict(DIMER, n_pairs=4),
            "scan": {"omega": omega_grid, "tau": tau_grid,
                     "measurements": SCAN_M}}


def expected_scan_rows(seed: int) -> np.ndarray:
    """The recorded full-grid rows of the seed's window, in scan.csv order."""
    (i0, j0), (ni, nj) = scan_window(seed), SCAN_WINDOW
    full = np.array(load_expected("scan")["rows"]).reshape(
        SCAN_FULL["points"], SCAN_FULL["points"], -1)
    return full[i0:i0 + ni, j0:j0 + nj].reshape(-1, full.shape[-1])


def scan_invocations(seed: int) -> list:
    (i0, j0), (ni, nj) = scan_window(seed), SCAN_WINDOW
    return [Invocation("scan", scan_config(window_grid(i0, ni), window_grid(j0, nj), seed),
                       ("--threads", "1"))]


def check_scan(seed: int, outs: list, state: dict) -> list:
    out = outs[0]
    _, rows = read_table(out / "scan.csv")
    want = expected_scan_rows(seed)
    if rows.shape != want.shape:
        return [f"scan.csv has shape {rows.shape}, expected {want.shape}"]
    problems = _close(rows[:, :4], want[:, :4], "scan.csv", relative=[0, 1, 3])
    if not np.array_equal(rows[:, 4], want[:, 4]):
        problems.append(f"n_pairs {rows[:, 4].tolist()}, expected {want[:, 4].tolist()}")
    digest = hashlib.sha256((out / "scan.csv").read_bytes()
                            + (out / "manifest.yaml").read_bytes()).hexdigest()
    first = state.setdefault("digest", digest)
    if digest != first:
        problems.append("scan.csv/manifest.yaml differ from this run's first pass")
    return problems


# ---------------------------------------------------------------------------
# dephase: criterion 7's sweep
# ---------------------------------------------------------------------------

def dephase_invocations(seed: int) -> list:
    _, tau = auto_bath(CHAIN6)
    return [Invocation("run", {"seed": seed, "geometry": dict(CHAIN6),
                               "protocol": {"measurements": DEPHASE_M,
                                            "dephasing_rate": x / tau}})
            for x in DEPHASING]


def check_dephase(seed: int, outs: list, state: dict) -> list:
    problems = []
    want_pairs = [(0, 1), (2, 3), (4, 5)]
    expected = load_expected("dephase")
    means = []
    for x, out, exp in zip(DEPHASING, outs, expected["runs"]):
        _, pairs = read_table(out / "pairs.csv")
        found = {(int(r[0]), int(r[1])): r[4] for r in pairs}
        if sorted(found) != want_pairs:
            problems.append(f"gamma_d*tau={x}: pairs {sorted(found)}, "
                            f"expected {want_pairs}")
            continue
        means.append(float(np.mean([found[p] for p in want_pairs])))
        _, traj = read_table(out / "trajectory.csv")
        problems += _close(traj[-1], exp["final_row"], f"gamma_d*tau={x} final row",
                           relative=[2])
        problems += _close(pairs, exp["pairs"], f"gamma_d*tau={x} pairs")
    if len(means) == len(DEPHASING) and not np.all(np.diff(means) < -1e-5):
        problems.append(f"mean concurrence {means} is not strictly decreasing")
    return problems


# ---------------------------------------------------------------------------
# protocols: path-operator engine only
# ---------------------------------------------------------------------------

def protocols_invocations(seed: int) -> list:
    return [Invocation("verify", {"seed": seed, "verify": dict(VERIFY)}),
            Invocation("sense", {"seed": seed, "sense": SENSE})]


def check_protocols(seed: int, outs: list, state: dict) -> list:
    verify_out, sense_out = outs
    expected = load_expected("protocols")
    _, curves = read_table(verify_out / "verify.csv")
    problems = _close(curves, expected["verify"], "verify.csv")
    m_star = {p: r["m_star"] for p, r in
              read_manifest(verify_out)["resolved"]["preparations"].items()}
    if m_star != expected["m_star"]:
        problems.append(f"m* {m_star}, expected {expected['m_star']}")
    _, spec = read_table(sense_out / "spectroscopy.csv")
    problems += _close(spec, expected["spectroscopy"], "spectroscopy.csv")
    _, coh = read_table(sense_out / "coherence.csv")
    problems += _close(coh, expected["coherence"], "coherence.csv")
    resolved = read_manifest(sense_out)["resolved"]
    if not resolved.get("resolves_side_features"):
        problems.append("paired bath does not resolve both side features")
    if resolved.get("resolves_side_features_mixed") is not False:
        problems.append("mixed bath resolves the side features")
    return problems


# ---------------------------------------------------------------------------
# montecarlo: the sampled engine beyond the dense limit
# ---------------------------------------------------------------------------

def montecarlo_invocations(seed: int) -> list:
    return [Invocation("run", {"seed": seed, "geometry": dict(DIMER, n_pairs=MC_PAIRS),
                               "protocol": {"measurements": MC_M},
                               "engine": {"name": "montecarlo",
                                          "samples": MC_SAMPLES}})]


def mc_reference(pairs: list, state: dict):
    """Exact cumulative p and (fidelity, concurrence) of the given pairs,
    cached in the run's state: every pass of a run reports the same pairs."""
    key = tuple(pairs)
    if state.get("pairs") != key:
        from reference import best_phase_fidelity, concurrence, mixed_state_reference
        c, tau = auto_bath(dict(DIMER, n_pairs=MC_PAIRS))
        cum, rdms = mixed_state_reference(c.g_vectors, c.omega, tau, MC_M, pairs)
        state["pairs"] = key
        state["reference"] = (cum, {p: (best_phase_fidelity(r), concurrence(r))
                                    for p, r in rdms.items()})
    return state["reference"]


def check_montecarlo(seed: int, outs: list, state: dict) -> list:
    out = outs[0]
    _, traj = read_table(out / "trajectory.csv")
    _, pairs = read_table(out / "pairs.csv")
    if traj.shape[0] != MC_M or pairs.shape[0] != MC_PAIRS:
        return [f"{traj.shape[0]} steps and {pairs.shape[0]} pair rows, "
                f"expected {MC_M} and {MC_PAIRS}"]
    cum, pair_ref = mc_reference([(int(i), int(j)) for i, j in pairs[:, :2]], state)
    problems = []
    rel = np.abs(traj[:, 2] / cum - 1.0)
    if rel.max() > MC_TOL_P:
        problems.append(f"cumulative p off the exact value by {rel.max():.3f} "
                        f"(relative), tolerance {MC_TOL_P}")
    for i, j, fid, _, conc in pairs:
        want_f, want_c = pair_ref[(int(i), int(j))]
        if abs(fid - want_f) > MC_TOL_FIDELITY:
            problems.append(f"pair ({int(i)},{int(j)}) fidelity {fid:.4f}, "
                            f"exact {want_f:.4f}")
        if abs(conc - want_c) > MC_TOL_CONCURRENCE:
            problems.append(f"pair ({int(i)},{int(j)}) concurrence {conc:.4f}, "
                            f"exact {want_c:.4f}")
    return problems


# ---------------------------------------------------------------------------

def _protocols_counts() -> tuple[int, int]:
    """(pulse-train blocks simulated, output points) per protocols pass."""
    m_max, preps = VERIFY["m_max"], len(VERIFY["preparations"])
    taus, times = SENSE["tau_grid"]["points"], SENSE["time_grid"]["points"]
    blocks = preps * m_max * (m_max + 1) // 2 + 2 * taus * SENSE["m"]
    return blocks, preps * m_max + taus + times


WORKLOADS = {w.name: w for w in (
    Workload("purify", purify_invocations, rounds=100, points=100 + 5,
             check=check_purify),
    Workload("scan", scan_invocations, rounds=SCAN_WINDOW[0] * SCAN_WINDOW[1] * SCAN_M,
             points=SCAN_WINDOW[0] * SCAN_WINDOW[1], check=check_scan, min_passes=2,
             pool_flags=SCAN_POOL_FLAGS),
    Workload("dephase", dephase_invocations, rounds=len(DEPHASING) * DEPHASE_M,
             points=len(DEPHASING) * (DEPHASE_M + 3), check=check_dephase),
    Workload("protocols", protocols_invocations, rounds=_protocols_counts()[0],
             points=_protocols_counts()[1], check=check_protocols),
    Workload("montecarlo", montecarlo_invocations, rounds=MC_SAMPLES * MC_M,
             points=MC_M + MC_PAIRS, check=check_montecarlo),
)}
