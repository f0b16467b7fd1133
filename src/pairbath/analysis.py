"""Entanglement and correlation diagnostics for bath states.

Two-spin states live in the basis |1,1>, |1,-1>, |-1,1>, |-1,-1> (Pauli
z eigenvalues). The phased singlet family

    |S(phi)> = (|1,-1> - e^{i phi} |-1,1>) / sqrt(2)

has fidelity F(phi) = (rho_11 + rho_22)/2 - Re[e^{i phi} rho_12]
(indices over the middle block), sinusoidal in phi, so the best phase and
fidelity come from the single off-diagonal element in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics_dense import purity
from .dynamics_factored import apply_t
from .spin_core import CouplingSet, SIGMA_X, SIGMA_Y, SIGMA_Z

_SYY = np.kron(SIGMA_Y, SIGMA_Y)


def phased_singlet(phi: float) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -np.exp(1j * phi) / np.sqrt(2.0)
    return v


def singlet_state() -> np.ndarray:
    return phased_singlet(0.0)


def _check_state(rho2: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-spin state, got {rho2.shape}")
    if np.max(np.abs(rho2 - rho2.conj().T)) > tol:
        raise ValueError("state is not Hermitian within tolerance")
    tr = np.real(np.trace(rho2))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"state trace is {tr!r}, expected 1")
    if np.linalg.eigvalsh(rho2).min() < -tol:
        raise ValueError("state has negative eigenvalues beyond tolerance")
    return 0.5 * (rho2 + rho2.conj().T)


def concurrence(rho2: np.ndarray) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state."""
    rho2 = _check_state(rho2)
    r = rho2 @ _SYY @ rho2.conj() @ _SYY
    ev = np.linalg.eigvals(r).real
    lam = np.sqrt(np.clip(ev, 0.0, None))
    lam[::-1].sort()
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def pair_fidelity(rho2: np.ndarray, phi: float) -> float:
    """<S(phi)| rho |S(phi)>."""
    rho2 = np.asarray(rho2, dtype=complex)
    return float(np.real(0.5 * (rho2[1, 1] + rho2[2, 2])
                         - np.real(np.exp(1j * phi) * rho2[1, 2])))


def best_phase(rho2: np.ndarray) -> tuple[float, float]:
    """Maximize the phased-singlet fidelity analytically.

    F is sinusoidal in phi with amplitude |rho_12|, so the maximum sits at
    phi* = pi - arg(rho_12) with value (rho_11 + rho_22)/2 + |rho_12|.
    """
    rho2 = np.asarray(rho2, dtype=complex)
    off = rho2[1, 2]
    phi = float(np.mod(np.pi - np.angle(off), 2.0 * np.pi))
    fid = float(np.real(0.5 * (rho2[1, 1] + rho2[2, 2])) + abs(off))
    return phi, fid


@dataclass(frozen=True)
class PairMatch:
    i: int
    j: int
    fidelity: float
    phase: float
    paired: bool


@dataclass(frozen=True)
class PairAssignment:
    matches: tuple[PairMatch, ...]
    unmatched: tuple[int, ...]
    threshold: float

    @property
    def all_paired(self) -> bool:
        return all(m.paired for m in self.matches) and not self.unmatched

    def as_dict(self) -> dict[tuple[int, int], PairMatch]:
        return {(m.i, m.j): m for m in self.matches}


def detect_pairing(rdms: dict, n: int, threshold: float = 0.5) -> PairAssignment:
    """Greedy matching on best-phase fidelity.

    Repeatedly selects the highest-fidelity pair among unmatched spins,
    ties broken by lowest index pair. Pairs at or below the threshold
    (the separable ceiling for this family is 0.5) are kept in the
    matching but flagged unpaired.
    """
    scored = []
    for (i, j), rho in rdms.items():
        if i == j:
            raise ValueError(f"pair ({i}, {j}) is degenerate")
        rho = np.asarray(rho, dtype=complex)
        tr = np.real(np.trace(rho))
        phi, fid = best_phase(rho / tr)
        scored.append((i, j, fid, phi))
    scored.sort(key=lambda t: (-t[2], t[0], t[1]))

    used: set[int] = set()
    matches = []
    for i, j, fid, phi in scored:
        if i in used or j in used:
            continue
        matches.append(PairMatch(i, j, fid, phi, paired=fid > threshold))
        used.update((i, j))
    unmatched = tuple(k for k in range(n) if k not in used)
    matches.sort(key=lambda m: (m.i, m.j))
    return PairAssignment(tuple(matches), unmatched, threshold)


@dataclass(frozen=True)
class ClassicalSteadyReport:
    offdiag_norm: float
    leading_eigenvalues: tuple[float, float]
    two_branch_structure: bool
    support_dimension: int
    magnetization_weights: dict
    purity: float

    @property
    def zero_magnetization_weight(self) -> float:
        return self.magnetization_weights.get(0, 0.0)


def _spin_eigenbases(c: CouplingSet) -> list[np.ndarray]:
    """Per-spin eigenbasis of g_k . sigma, columns ordered (+|g|, -|g|)."""
    bases = []
    for g in c.g_vectors:
        h = g[0] * SIGMA_X + g[1] * SIGMA_Y + g[2] * SIGMA_Z
        vals, vecs = np.linalg.eigh(h)
        bases.append(vecs[:, ::-1])  # descending: first column is +|g|
    return bases


def classical_steady_state_check(rho: np.ndarray, c: CouplingSet,
                                 tol: float = 1e-8) -> ClassicalSteadyReport:
    """Certify the omega=0 classically-correlated steady-state structure.

    With omega=0 the conditional operator is diagonal in the product
    eigenbasis of H_B = sum_k g_k . I_k, so the steady state must be (i)
    diagonal there, (ii) rank <= 2 with two ~0.5 eigenvalues for generic
    couplings, and (iii) built from two-branch product eigenvectors.
    """
    if c.omega != 0.0:
        raise ValueError(f"classical check requires omega = 0, got {c.omega}")
    n = c.n_spins
    dim = 2**n
    if rho.shape != (dim, dim):
        raise ValueError(f"state dimension {rho.shape} does not match N={n}")

    bases = _spin_eigenbases(c)
    left = [b.conj().T for b in bases]
    # W^dag rho W for W = kron(bases): two passes of the Kronecker kernel
    rho_eig = apply_t([b.T for b in bases], apply_t(left, rho))
    diag = rho_eig.diagonal().real.copy()
    np.fill_diagonal(rho_eig, 0.0)
    offdiag = float(np.linalg.norm(rho_eig))
    del rho_eig                      # freed before eigh allocates its vectors

    evals, evecs = np.linalg.eigh(rho)
    lead = (float(evals[-1]), float(evals[-2]))
    support = int(np.sum(evals > tol))

    # two-branch product structure: in the per-spin eigenbasis every
    # single-spin marginal of a leading eigenvector must be diagonal
    vecs = apply_t(left, evecs[:, :-3:-1]).reshape((2,) * (n + 1))
    others = [tuple(a for a in range(n) if a != k) for k in range(n)]
    structure = not any(abs(np.tensordot(v, v.conj(), axes=(ax, ax))[0, 1]) > 1e-6
                        for v in vecs for ax in others)

    # magnetization sectors: bit 0 of index = +1 along the local g axis, so
    # the sector of k set bits is M = n - 2k, listed from +n down
    down = (np.arange(dim)[:, None] >> np.arange(n) & 1).sum(axis=1)
    mags = {n - 2 * k: float(w) for k, w in enumerate(np.bincount(down, weights=diag))}

    return ClassicalSteadyReport(
        offdiag_norm=offdiag,
        leading_eigenvalues=lead,
        two_branch_structure=structure,
        support_dimension=support,
        magnetization_weights=mags,
        purity=purity(rho),
    )
