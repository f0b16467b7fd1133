"""Exact mixed-state reference for the montecarlo workload.

The maximally mixed start is a product of per-spin identities, so after M
rounds

    rho_M  propto  sum_{a,b} w_a w_b  (x)_k A_{a,k} (1/2) A_{b,k}^dag

over branch words a, b in {+,-}^M, where A_{a,k} is spin k's ordered
product of its 2x2 branch propagators along word a and w_a the product of
|alpha|^2 / |beta|^2 weights. Every observable the workload checks then
reduces to per-spin 2x2 products: 4^M * N of them, trivial at M = 8.

The propagators are built here with scipy's expm, independently of
pairbath.spin_core's closed form, so a shared mistake cannot cancel.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=complex)


def branch_unitaries(g_vectors: np.ndarray, omega: float,
                     tau: float) -> np.ndarray:
    """(N, 2, 2, 2) array: [k, 0] = U+ and [k, 1] = U- of spin k,
    U+- = exp(+i tau (omega z_hat +- g_k) . sigma)."""
    g = np.asarray(g_vectors, dtype=float)
    out = np.empty((len(g), 2, 2, 2), dtype=complex)
    zhat = np.array([0.0, 0.0, 1.0])
    for k, gk in enumerate(g):
        for b, sign in enumerate((1.0, -1.0)):
            field = omega * zhat + sign * gk
            out[k, b] = expm(1j * tau * np.einsum("x,xij->ij", field, _SIGMA))
    return out


def _word_products(units: np.ndarray, m: int) -> np.ndarray:
    """(N, 2^m, 2, 2): A_{a,k} for every word a of length m.

    The most significant bit of the word index picks the branch of the
    last round, which multiplies from the left."""
    n = units.shape[0]
    prods = np.broadcast_to(np.eye(2, dtype=complex), (n, 1, 2, 2))
    for _ in range(m):
        # new word = old word followed by one more round
        prods = np.einsum("kbij,kajl->kbail", units, prods)
        prods = prods.reshape(n, -1, 2, 2)
    return prods


def _word_weights(m: int, wa: float, wb: float) -> np.ndarray:
    w = np.ones(1)
    for _ in range(m):
        w = np.concatenate([w * wa, w * wb])
    return w


def mixed_state_reference(g_vectors, omega: float, tau: float, measurements: int,
                          pairs, alpha: complex = 2 ** -0.5,
                          beta: complex = 2 ** -0.5):
    """Exact cumulative success probability after each round, and the
    normalized two-spin RDM of every (i, j) in pairs after the last round,
    for the maximally mixed start. RDM basis order is (i, j)."""
    units = branch_unitaries(g_vectors, omega, tau)
    wa, wb = abs(alpha) ** 2, abs(beta) ** 2
    cumulative = np.empty(measurements)
    for m in range(1, measurements + 1):
        a = _word_products(units, m)
        # T_k[a, b] = Tr(A_{b,k}^dag A_{a,k}) / 2
        t = np.einsum("kaij,kbij->kab", a, a.conj()) / 2
        w = _word_weights(m, wa, wb)
        cumulative[m - 1] = float(np.real(w @ np.prod(t, axis=0) @ w))

    # X_k[a, b] = A_{a,k} A_{b,k}^dag / 2, so T_k = Tr X_k
    x = np.einsum("kaij,kblj->kabil", a, a.conj()) / 2
    t = np.einsum("kabii->kab", x)
    rdms = {}
    for i, j in pairs:
        rest = [k for k in range(len(units)) if k not in (i, j)]
        c = np.outer(w, w) * np.prod(t[rest], axis=0)
        rho = np.einsum("ab,abpr,absu->psru", c, x[i], x[j]).reshape(4, 4)
        rho /= np.real(np.trace(rho))
        rdms[(i, j)] = 0.5 * (rho + rho.conj().T)
    return cumulative, rdms


def best_phase_fidelity(rho2: np.ndarray) -> float:
    """Largest fidelity with a phased singlet (|1,-1> - e^{i phi}|-1,1>)/sqrt(2)."""
    return float(np.real(0.5 * (rho2[1, 1] + rho2[2, 2])) + abs(rho2[1, 2]))


def concurrence(rho2: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit state."""
    yy = np.kron(_SIGMA[1], _SIGMA[1])
    ev = np.linalg.eigvals(rho2 @ yy @ rho2.conj() @ yy).real
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
