"""Executable acceptance checks.

Each criterion function recomputes its scenario from scratch and returns
(passed, detail). The CLI selftest prints one line per criterion; the test
suite asserts on the same results. Scenario constants are frozen here so
both entry points check the identical thing.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .analysis import classical_steady_state_check, concurrence, detect_pairing
from .cli_runner import cmd_scan, validate_config
from .dynamics_dense import (
    ProtocolConfig,
    all_pair_rdms,
    apply_projection,
    build_V,
    maximally_mixed,
    run_protocol,
)
from .dynamics_factored import pair_rdms, run_factored
from .protocols import (
    SpeciesBath,
    SpeciesGroup,
    coherence_trace,
    find_local_maxima,
    resolves_side_features,
    spectroscopy_scan,
    verification_scan,
)
from .spin_core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CouplingSet,
    chain_geometry,
    dimer_chain_geometry,
    dipolar_couplings,
    optimal_params,
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# 1: conditional propagator against an independent joint-space oracle
# ---------------------------------------------------------------------------

def _pauli_at(op: np.ndarray, k: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for slot in range(n):
        out = np.kron(out, op if slot == k else np.eye(2, dtype=complex))
    return out


def _random_mixed(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _joint_oracle(g, omega, tau, alpha, beta, rho_b):
    """Prepare, evolve with expm(+i H tau) in the full central+bath space,
    project the central spin back onto its preparation."""
    n = len(g)
    dim = 2 ** n
    hg = np.zeros((dim, dim), dtype=complex)
    hw = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        hg += (g[k, 0] * _pauli_at(SIGMA_X, k, n)
               + g[k, 1] * _pauli_at(SIGMA_Y, k, n)
               + g[k, 2] * _pauli_at(SIGMA_Z, k, n))
        hw += omega * _pauli_at(SIGMA_Z, k, n)
    h = np.kron(SIGMA_Z, hg) + np.kron(np.eye(2, dtype=complex), hw)
    u = expm(1j * tau * h)
    phi = np.array([alpha, beta], dtype=complex)
    rho_joint = np.kron(np.outer(phi, phi.conj()), rho_b)
    evolved = u @ rho_joint @ u.conj().T
    bra = np.kron(phi.conj()[None, :], np.eye(dim, dtype=complex))
    rho_out = bra @ evolved @ bra.conj().T
    p = float(np.trace(rho_out).real)
    return rho_out, p


def criterion_1() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        n = trial % 4 + 1
        g = rng.normal(0.0, 1.5, size=(n, 3))
        omega = float(rng.uniform(0.0, 8.0))
        tau = float(rng.uniform(0.05, 1.2))
        if trial % 2:
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps /= np.linalg.norm(amps)
            alpha, beta = amps
        else:
            alpha = beta = 1.0 / np.sqrt(2.0)
        rho_b = _random_mixed(rng, 2 ** n)
        c = CouplingSet(g, omega)
        v = build_V(c, tau, alpha, beta)
        got, p = apply_projection(rho_b, v)
        want, p_want = _joint_oracle(g, omega, tau, alpha, beta, rho_b)
        worst = max(worst, float(np.abs(got - want / p_want).max()),
                    abs(p - p_want))
        # the rounds run uses: one matrix-free rho round from the mixed
        # state, two from a pure one
        psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        for start, rounds in ((rho_b, 1), (pure, 2)):
            cfg = ProtocolConfig(omega=omega, tau=tau, measurements=rounds,
                                 alpha=alpha, beta=beta)
            traj = run_protocol(start, cfg, c)
            want = start
            for step in range(rounds):
                want, p_want = _joint_oracle(g, omega, tau, alpha, beta, want)
                want /= p_want
                worst = max(worst, abs(traj.conditional_p[step] - p_want))
            worst = max(worst, float(np.abs(traj.final_rho - want).max()))
    return worst < 1e-10, (f"max deviation {worst:.2e} over 20 random sets, "
                           "N in 1..4, for V rho V^dag and the rho rounds of "
                           "run")


# ---------------------------------------------------------------------------
# 2: dense vs factored engines
# ---------------------------------------------------------------------------

def _product_vector(states: np.ndarray) -> np.ndarray:
    psi = np.array([1.0 + 0.0j])
    for s in states:
        psi = np.kron(psi, s)
    return psi


def criterion_2() -> tuple[bool, str]:
    rng = np.random.default_rng(22)
    t0 = time.perf_counter()
    n, m = 6, 8
    worst = 0.0
    for trial in range(20):
        g = rng.normal(0.0, 1.2, size=(n, 3))
        omega = float(rng.uniform(0.5, 6.0))
        tau = float(rng.uniform(0.1, 0.9))
        states = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        states /= np.linalg.norm(states, axis=1)[:, None]
        if trial % 2:
            w = rng.uniform(0.2, 0.8)
            alpha = np.sqrt(w)
            beta = np.sqrt(1.0 - w) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        else:
            alpha = beta = 1.0 / np.sqrt(2.0)
        cfg = ProtocolConfig(omega=omega, tau=tau, measurements=m,
                             alpha=alpha, beta=beta)
        c = CouplingSet(g, omega)
        psi = _product_vector(states)
        traj = run_protocol(np.outer(psi, psi.conj()), cfg, c)
        state, probs = run_factored(states, cfg, c)
        worst = max(worst, float(np.abs(traj.cumulative_p - probs).max()))
        want = all_pair_rdms(traj.final_rho, n)
        got = pair_rdms(state, want)
        worst = max(worst, max(float(np.abs(want[p] - got[p]).max()) for p in want))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 60.0
    return ok, (f"max deviation {worst:.2e} over 20 random sets "
                f"(N={n}, M={m}) in {dt:.1f}s")


# ---------------------------------------------------------------------------
# 3 + 4: purification and pair detection on the dimer chain
# ---------------------------------------------------------------------------

_CACHE: dict = {}


def _purification_run():
    """N=10 dimer chain, heuristic parameters, 100 rounds from the mixed state.

    Shared by criteria 3 and 4; the geometry keeps partners nearly identical
    (gap 1 nm at 8 nm pair spacing, 117 nm from the probe) so every pair has
    a high-fidelity singlet target."""
    if "chain" not in _CACHE:
        geom = dimer_chain_geometry(n_pairs=5, pair_spacing=8.0, dimer_gap=1.0,
                                    z0=100.0, x0=60.0)
        c0 = dipolar_couplings(geom)
        omega, tau = optimal_params(c0)
        c = CouplingSet(c0.g_vectors, omega)
        cfg = ProtocolConfig(omega=omega, tau=tau, measurements=100)
        _CACHE["chain"] = run_protocol(maximally_mixed(10), cfg, c)
    return _CACHE["chain"]


def criterion_3() -> tuple[bool, str]:
    traj = _purification_run()
    crossed = np.nonzero(traj.purity > 0.9)[0]
    min_tail = float(traj.conditional_p[-10:].min())
    ok = (traj.steps == 100 and crossed.size > 0 and min_tail > 0.99)
    first = int(crossed[0]) + 1 if crossed.size else -1
    return ok, (f"purity {traj.purity[-1]:.4f}, above 0.9 from step {first}; "
                f"min conditional p over the last 10 steps {min_tail:.4f}")


def criterion_4() -> tuple[bool, str]:
    traj = _purification_run()
    rdms = all_pair_rdms(traj.final_rho, 10)
    asg = detect_pairing(rdms, 10)
    pairs = sorted((mt.i, mt.j) for mt in asg.matches)
    want = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    fids = [mt.fidelity for mt in asg.matches]
    ok = (pairs == want and not asg.unmatched
          and all(f > 0.9 for f in fids))
    return ok, f"detected pairs {pairs}, min fidelity {min(fids):.4f}"


# ---------------------------------------------------------------------------
# 5: classical steady states at omega = 0
# ---------------------------------------------------------------------------

def criterion_5() -> tuple[bool, str]:
    ok = True
    notes = []
    # seeds picked for a clear gap between the surviving (s, -s) eigenvalue
    # pair and the next branch, so 600 rounds reach the steady state
    for n, seed in ((4, 1), (6, 4)):
        rng = np.random.default_rng(seed)
        c = CouplingSet(rng.normal(0.0, 1.0, size=(n, 3)), 0.0)
        cfg = ProtocolConfig(omega=0.0, tau=1.0, measurements=600)
        traj = run_protocol(maximally_mixed(n), cfg, c)
        rep = classical_steady_state_check(traj.final_rho, c)
        lead = rep.leading_eigenvalues
        good = (abs(traj.purity[-1] - 0.5) <= 0.05
                and abs(lead[0] - 0.5) <= 0.05
                and abs(lead[1] - 0.5) <= 0.05)
        ok = ok and good
        notes.append(f"N={n} purity {traj.purity[-1]:.3f}, "
                     f"leading eigenvalues {lead[0]:.3f}/{lead[1]:.3f}")

    g0 = np.array([1.3, 0.0, 0.4])
    c = CouplingSet(np.tile(g0, (4, 1)), 0.0)
    cfg = ProtocolConfig(omega=0.0, tau=0.7 / np.linalg.norm(g0),
                         measurements=500)
    traj = run_protocol(maximally_mixed(4), cfg, c)
    rep = classical_steady_state_check(traj.final_rho, c)
    good = (abs(traj.purity[-1] - 1.0 / 6.0) < 1e-6
            and rep.zero_magnetization_weight > 1.0 - 1e-6)
    ok = ok and good
    notes.append(f"identical couplings purity {traj.purity[-1]:.8f} "
                 f"(target 1/6), zero-magnetization weight "
                 f"{rep.zero_magnetization_weight:.8f}")
    return ok, "; ".join(notes)


# ---------------------------------------------------------------------------
# 6: pulse-sequence verification
# ---------------------------------------------------------------------------

def criterion_6() -> tuple[bool, str]:
    unpol = verification_scan(3.0, 4.0, 10.0, preparation="unpolarized")
    sing = verification_scan(3.0, 4.0, 10.0, preparation="singlet")
    dark = verification_scan(3.5, 3.5, 10.0, preparation="singlet")
    ok = (unpol.reached and sing.reached and not dark.reached
          and abs(unpol.m_star - 2) <= 0.5)
    ratio = float("nan")
    if unpol.reached and sing.reached:
        ratio = sing.m_star / unpol.m_star
        ok = ok and abs(ratio - 5.0) <= 1.25
    return ok, (f"m*(unpolarized)={unpol.m_star}, m*(singlet)={sing.m_star}, "
                f"ratio {ratio:.2f} (target 5 within 25%); identical-coupling "
                f"singlet stays dark, max flip {dark.max_probability:.1e} "
                f"through m=50")


# ---------------------------------------------------------------------------
# 7: dephasing degrades pairing monotonically
# ---------------------------------------------------------------------------

def criterion_7() -> tuple[bool, str]:
    geom = chain_geometry(6, spacing=8.0, z0=100.0, x0=60.0)
    c0 = dipolar_couplings(geom)
    omega, tau = optimal_params(c0)
    c = CouplingSet(c0.g_vectors, omega)
    dimensionless = [0.0, 0.01, 0.03, 0.1, 0.3]
    pairs = None
    avgs = []
    for x in dimensionless:
        cfg = ProtocolConfig(omega=omega, tau=tau, measurements=800,
                             dephasing_rate=x / tau)
        traj = run_protocol(maximally_mixed(6), cfg, c)
        rdms = all_pair_rdms(traj.final_rho, 6)
        if pairs is None:
            asg = detect_pairing(rdms, 6)
            pairs = sorted((mt.i, mt.j) for mt in asg.matches)
        vals = []
        for i, j in pairs:
            rho = rdms[(i, j)]
            vals.append(concurrence(rho / np.trace(rho).real))
        avgs.append(float(np.mean(vals)))
    diffs = np.diff(avgs)
    ok = pairs == [(0, 1), (2, 3), (4, 5)] and bool(np.all(diffs < -1e-5))
    series = ", ".join(f"{a:.5f}" for a in avgs)
    return ok, (f"pairs {pairs}; mean concurrence [{series}] over "
                f"gamma_d*tau in {dimensionless}, strictly decreasing")


# ---------------------------------------------------------------------------
# 8: paired baths make better sensors
# ---------------------------------------------------------------------------

_STRONG = ((2.2, 0.3, 1.1), (2.2, 0.3, 1.1), (3.1, -0.5, 1.6), (3.1, -0.5, 1.6))
_SIDE_UP = ((0.45, 0.0, 0.12),)
_SIDE_DOWN = ((0.40, 0.1, 0.10),)
_SENSE_OMEGA = 10.0
_SENSE_EPS = 1.0


def _sensing_baths():
    """Strong on-resonance spins (paired or mixed) plus one weak spin detuned
    to each side. Deleting the strong spins isolates their effect."""
    side = (SpeciesGroup(_SENSE_OMEGA + _SENSE_EPS, np.array(_SIDE_UP), "mixed"),
            SpeciesGroup(_SENSE_OMEGA - _SENSE_EPS, np.array(_SIDE_DOWN), "mixed"))
    paired = SpeciesBath((SpeciesGroup(_SENSE_OMEGA, np.array(_STRONG), "paired"),) + side)
    mixed = paired.retagged("mixed")
    deleted = SpeciesBath(side)
    return paired, mixed, deleted


def criterion_8() -> tuple[bool, str]:
    paired, mixed, deleted = _sensing_baths()
    taus = np.linspace(0.055, 0.105, 151)
    scan_paired = spectroscopy_scan(paired, taus, m=16)
    scan_mixed = spectroscopy_scan(mixed, taus, m=16)
    scan_deleted = spectroscopy_scan(deleted, taus, m=16)
    res_paired = resolves_side_features(scan_paired, _SENSE_OMEGA, _SENSE_EPS)
    res_mixed = resolves_side_features(scan_mixed, _SENSE_OMEGA, _SENSE_EPS)
    deletion = float(np.abs(scan_paired.signal - scan_deleted.signal).max())

    ts = np.linspace(0.02, 2.0, 120)
    ell_paired = coherence_trace(None, paired, ts)
    ell_mixed = coherence_trace(None, mixed, ts)
    gap = float(np.min(ell_paired - ell_mixed))

    ok = res_paired and not res_mixed and deletion < 0.05 and gap > 0.0
    n_peaks_mixed = len(find_local_maxima(scan_mixed.tau_grid, scan_mixed.signal))
    return ok, (f"paired bath resolves both detuned species: {res_paired}; "
                f"mixed bath: {res_mixed} ({n_peaks_mixed} peaks); deleting the "
                f"paired spins moves the spectrum by {deletion:.1e}; "
                f"min coherence advantage {gap:.3f}")


# ---------------------------------------------------------------------------
# 9: scan grid completes and reproduces byte-identically
# ---------------------------------------------------------------------------

def criterion_9() -> tuple[bool, str]:
    raw = {
        "geometry": {"kind": "dimer_chain", "n_pairs": 4, "pair_spacing": 8.0,
                     "dimer_gap": 1.0, "z0": 100.0, "x0": 60.0},
        "scan": {"omega": {"start": 0.5, "stop": 2.0, "points": 16},
                 "tau": {"start": 0.5, "stop": 2.0, "points": 16},
                 "measurements": 40},
    }
    cfg = validate_config(raw, "scan")
    t0 = time.perf_counter()
    grabs = []
    with tempfile.TemporaryDirectory() as tmp:
        for tag in ("a", "b"):
            d = Path(tmp) / tag
            d.mkdir()
            cmd_scan(cfg, d, threads=1)
            grabs.append(((d / "scan.csv").read_bytes(),
                          (d / "manifest.yaml").read_bytes()))
    dt = time.perf_counter() - t0
    identical = grabs[0] == grabs[1]
    ok = identical and dt < 1800.0
    return ok, (f"16x16 grid (N=8, M=40) ran twice in {dt:.0f}s; outputs "
                f"byte-identical: {identical}")


# ---------------------------------------------------------------------------

_CRITERIA = (
    (1, "conditional propagator matches the joint-space oracle", criterion_1),
    (2, "dense and factored engines agree", criterion_2),
    (3, "mixed bath purifies on the dimer chain", criterion_3),
    (4, "purified chain pairs up neighbor by neighbor", criterion_4),
    (5, "classical steady states at omega = 0", criterion_5),
    (6, "pulse-sequence verification separates singlets", criterion_6),
    (7, "dephasing degrades pairing monotonically", criterion_7),
    (8, "paired bath senses detuned species better", criterion_8),
    (9, "scan grid reproduces byte-identically", criterion_9),
)


def run_criteria(indices=None) -> list[CriterionResult]:
    out = []
    for idx, name, fn in _CRITERIA:
        if indices is not None and idx not in indices:
            continue
        t0 = time.perf_counter()
        passed, detail = fn()
        out.append(CriterionResult(idx, name, passed, detail,
                                   time.perf_counter() - t0))
    return out
