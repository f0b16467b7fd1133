"""Exact conditional evolution of the full bath density matrix.

One measurement round prepares the central spin in alpha|1> + beta|-1>,
lets the joint system evolve for tau, and post-selects the readout that
projects the central spin back onto the same state. Because the joint
propagator is block diagonal in the central spin's z-basis, the surviving
bath update is governed by the non-unitary conditional operator

    V = |alpha|^2 U+ + |beta|^2 U-,    rho' = V rho V^dag / p,
    p = Tr[V rho V^dag]

where U+- are the branch propagators tensored over all spins. Repeating
the round M times and keeping only successful readouts purifies the bath.

Readout dephasing at rate gamma_d acts on the joint state for the readout
duration. Traced back onto the bath it mixes the conditional update with
the two bare branches:

    rho' propto e V rho V^dag
         + (1-e)/2 (|alpha|^2 U+ rho U+^dag + |beta|^2 U- rho U-^dag)

with e = exp(-gamma_d * readout_time), a 2 x 2 chi-matrix sum
sum_ij c_ij U_i rho U_j^dag (Nielsen & Chuang, section 8.4.2).

run_protocol never forms U+- or V on the full bath. V is the sum of two
Kronecker products, each of a few fused factors that carry the weights,
from the builder every engine shares (dynamics_factored; build_V is its
one-run case): U'+ = |alpha|^2 U+ and U'- = |beta|^2 U-. With A = U'+ rho,
B = U'- rho and s = (1-e)/2, a round is

    rho' = X+ U'+^dag + X- U'-^dag,
    X+ = e (A + B) + s/|alpha|^2 A,    X- = e (A + B) + s/|beta|^2 B,

which is V rho V^dag at e = 1. It takes four calls of the one kernel,
apply_t, which returns its product transposed: A^T and B^T from the
factors, then X+- U'+-^dag = (conj(U'+-) X+-^T)^T from the conjugated
factors, built once per run. Every round of a run is this one, followed
by a divide by its trace, whatever rho's rank: an eigendecomposition to
continue on a low-rank block costs more than the rounds it would save.

Without dephasing the final state from the maximally mixed start also
needs only W = V^M: rho_M = W W^dag / Tr[W W^dag], with the cumulative
probability P_M = Tr[W W^dag] / d. final_state_by_squaring builds W by
repeated squaring, in O(log M) plain products instead of M sandwiches,
and returns None when P_M is below EXTINCTION_FLOOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics_factored import (EXTINCTION_FLOOR, apply_t, build_branch_operators,
                                pair_rdm)
from .errors import ConfigError, require_memory
from .spin_core import CouplingSet

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# d x d complex matrices the dense engine holds at its peak, rounded up.
# Peaks read with tracemalloc at N=8: 5.03 for a run_protocol from a start
# its caller passes as a temporary, with or without dephasing (rho, A and B
# or their sum, the round's output and an application's intermediate and
# result), 4.13 for a scan point that squares (V, W, conj(W) and
# W W^dag) and 5.03 for one that falls back to stepping.
DENSE_MATRICES = 6


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one measurement protocol run."""

    omega: float
    tau: float
    measurements: int
    alpha: complex = INV_SQRT2
    beta: complex = INV_SQRT2
    dephasing_rate: float = 0.0
    readout_time: float | None = None  # None: dephasing acts over tau

    def __post_init__(self):
        if self.measurements < 1:
            raise ConfigError(f"measurements must be >= 1, got {self.measurements}")
        _require_unit_norm(self.alpha, self.beta)
        if not (math.isfinite(self.dephasing_rate) and self.dephasing_rate >= 0):
            raise ConfigError(f"dephasing_rate must be finite and >= 0, "
                              f"got {self.dephasing_rate}")
        if self.readout_time is not None and not (
                math.isfinite(self.readout_time) and self.readout_time > 0):
            raise ConfigError(f"readout_time must be finite and > 0, "
                              f"got {self.readout_time}")

    @property
    def effective_readout_time(self) -> float:
        return self.tau if self.readout_time is None else self.readout_time

    def require_omega_of(self, c: CouplingSet) -> None:
        """Raise ConfigError unless omega is c.omega, the one engines run at."""
        if self.omega != c.omega:
            raise ConfigError(f"omega {self.omega!r} differs from the bath's {c.omega!r}")


def _require_unit_norm(alpha: complex, beta: complex) -> None:
    """Raise ConfigError unless |alpha|^2 + |beta|^2 = 1, a nan norm included."""
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if not abs(norm - 1.0) <= 1e-12:
        raise ConfigError(f"|alpha|^2 + |beta|^2 = {norm!r}, must be 1")


@dataclass
class Trajectory:
    """Per-step record of the kept rounds of a conditional run plus the
    final bath state; fewer steps than the run asked for mean it went
    extinct."""

    conditional_p: np.ndarray
    cumulative_p: np.ndarray
    purity: np.ndarray
    final_rho: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.conditional_p)


def require_dense_memory(n: int) -> None:
    """Raise CapacityError if the dense engine's matrices for n spins would
    not fit in physical memory."""
    require_memory(DENSE_MATRICES * 16 * 4**n,
                   f"the dense engine's {DENSE_MATRICES} matrices of "
                   f"2^{n} x 2^{n} complex entries",
                   "use fewer spins, or for run the factored or montecarlo engine")


def maximally_mixed(n: int) -> np.ndarray:
    """The dense engine's mixed start; its memory is checked first."""
    require_dense_memory(n)
    dim = 2**n
    return np.eye(dim, dtype=complex) / dim


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), as the Frobenius norm squared of a Hermitian rho."""
    return float(np.vdot(rho, rho).real)


def build_V(c: CouplingSet, tau: float, alpha: complex = INV_SQRT2,
            beta: complex = INV_SQRT2) -> np.ndarray:
    """Conditional operator V = |alpha|^2 U+ + |beta|^2 U-, the one-run case
    of the shared factor builder. Raises CapacityError, before any
    propagator is built, if the dense engine's matrices would not fit."""
    _require_unit_norm(alpha, beta)
    require_dense_memory(c.n_spins)
    plus, minus = build_branch_operators(c, tau, alpha, beta, [0, c.n_spins])
    return plus[0] + minus[0]


def apply_projection(rho: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, float]:
    """One conditional update: (V rho V^dag / p, p). Raises ValueError at
    p = 0, where no conditional state exists; the extinction floor is the
    caller's to apply."""
    out = V @ rho @ V.conj().T
    p = float(np.real(np.trace(out)))
    if not p > 0:
        raise ValueError(f"conditional probability {p}, no conditional state exists")
    out /= p
    return _hermitize(out), p


def _hermitize(out: np.ndarray) -> np.ndarray:
    """(out + out^dag) / 2 in place, exactly Hermitian: it curbs the drift
    of a gemm sandwich. conj() copies, so the in-place sum reads no entry
    it has already written."""
    out += out.conj().T
    out *= 0.5
    return out


def final_state_by_squaring(V: np.ndarray,
                            measurements: int) -> tuple[np.ndarray, float] | None:
    """(rho_M, P_M) after M undephased rounds from I/d, by squaring W = V^M,
    or None when P_M = Tr[W W^dag] / d is below EXTINCTION_FLOOR (V = 0
    included), where only stepping (run_protocol) can tell whether and
    where a round went extinct.

    Every conditional p of the rounds satisfies p_k = P_k / P_(k-1) >= P_M,
    so at P_M >= EXTINCTION_FLOOR no round is extinct and the result is
    that of stepping. The products need no rescaling: ||V||_2 <= |alpha|^2
    + |beta|^2 = 1, so no power overflows, and every power and partial
    product is a factor of W, so its squared Frobenius norm is at least
    d P_M: none underflows wherever the result is returned.
    """
    if measurements < 1:
        raise ConfigError(f"measurements must be >= 1, got {measurements}")
    power, w, m = V, None, measurements   # V^(2^k); product of M's set bits
    while True:
        if m & 1:
            w = power if w is None else w @ power
        m >>= 1
        if not m:
            break
        power = power @ power
    del power                          # the product's temporaries take its place

    out = w @ w.conj().T               # d times W (I/d) W^dag
    trace = float(np.real(np.trace(out)))
    p = trace / len(w)
    if not p >= EXTINCTION_FLOOR:
        return None
    out /= trace
    return _hermitize(out), p


def all_pair_rdms(rho: np.ndarray, n: int) -> dict[tuple[int, int], np.ndarray]:
    rdms = {}
    for i in range(n):
        for j in range(i + 1, n):
            rdms[(i, j)] = pair_rdm(rho, n, i, j)
    return rdms


def _round(rho: np.ndarray, left: tuple, right: tuple, e: float,
           leak: tuple[float, float]) -> np.ndarray:
    """One round, unnormalized, as four transposing applications (apply_t)
    of the fused factors: A^T and B^T from left = (plus, minus), the
    factors of U'+ and U'-, on rho; then X+ U'+^dag + X- U'-^dag from
    right, the conjugated factors, on X+-^T, with X+- = e (A + B) +
    leak+- (A or B) (module docstring). At e = 1 both X are A + B and the
    round is V rho V^dag."""
    a = apply_t(left[0], rho)
    b = apply_t(left[1], rho)
    if e == 1.0:
        a += b
        b = a
    else:
        x = a + b
        x *= e
        a *= leak[0]
        a += x
        b *= leak[1]
        b += x
        del x
    out = apply_t(right[0], a)
    del a
    out += apply_t(right[1], b)
    return out


def run_protocol(rho0: np.ndarray, cfg: ProtocolConfig, c: CouplingSet) -> Trajectory:
    """Evolve rho0 through up to cfg.measurements successful rounds.

    Each round applies the reduced evolve/dephase/project map of the module
    docstring matrix free on the fused factors (_round), then divides by
    its p; with dephasing off that map is rho <- V rho V^dag / p. A round
    whose p is below EXTINCTION_FLOOR ends the trajectory before it, which
    then has fewer than cfg.measurements steps. The kernel keeps rho
    Hermitian to rounding (|rho - rho^dag| <= 2.3e-17 over the N=10 dimer
    chain's 100 rounds), so rounds only divide; the returned state is made
    exactly Hermitian.
    """
    cfg.require_omega_of(c)
    require_dense_memory(c.n_spins)
    left = build_branch_operators(c, cfg.tau, cfg.alpha, cfg.beta)
    right = tuple([f.conj() for f in factors] for factors in left)
    e = np.exp(-cfg.dephasing_rate * cfg.effective_readout_time)
    # s/|alpha|^2 and s/|beta|^2; a branch of weight 0 has zero factors
    s = 0.5 * (1.0 - e)
    leak = tuple(s / w if w > 0 else 0.0
                 for w in (abs(cfg.alpha) ** 2, abs(cfg.beta) ** 2))
    rho = np.array(rho0, dtype=complex)  # a copy: _hermitize writes in place
    del rho0                             # frees a caller's temporary start
    cond, purs = [], []
    for _ in range(cfg.measurements):
        out = _round(rho, left, right, e, leak)
        p = float(np.real(np.trace(out)))
        if not p >= EXTINCTION_FLOOR:
            break
        out /= p
        rho = out
        cond.append(p)
        purs.append(purity(rho))
    return Trajectory(
        conditional_p=np.array(cond),
        cumulative_p=np.cumprod(cond),
        purity=np.array(purs),
        final_rho=_hermitize(rho),
    )
