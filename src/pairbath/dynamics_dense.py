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
B = U'- rho and s = (1-e)/2, a round is two applications from the left
and two from the right,

    rho' = X+ U'+^dag + X- U'-^dag,
    X+ = e (A + B) + s/|alpha|^2 A,    X- = e (A + B) + s/|beta|^2 B,

which is V rho V^dag at e = 1. Every round of a run is this one, followed
by a divide by its trace, whatever rho's rank: an eigendecomposition to
continue on a low-rank block costs more than the rounds it would save.

Without dephasing the final state from the maximally mixed start also
needs only W = V^M: rho_M = W W^dag / Tr[W W^dag], with the cumulative
probability P_M = Tr[W W^dag] / d. final_state_by_squaring builds W by
repeated squaring, in O(log M) products instead of M sandwiches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics_factored import apply_left, apply_right, build_branch_operators
from .errors import ConfigError, ExtinctionError, require_memory
from .spin_core import CouplingSet

EXTINCTION_FLOOR = 1e-14

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# d x d complex matrices the dense engine holds at its peak, rounded up.
# Peaks read with tracemalloc at N=8: 5.03 for a run_protocol from a start
# its caller passes as a temporary, with or without dephasing (rho, A and B
# or their sum, the round's output and a right application's intermediate
# and result), 4.13 for a scan point that squares (V, W, conj(W) and
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
    extinction_floor: float = EXTINCTION_FLOOR

    def __post_init__(self):
        if self.measurements < 1:
            raise ConfigError(f"measurements must be >= 1, got {self.measurements}")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ConfigError(f"|alpha|^2 + |beta|^2 = {norm!r}, must be 1")
        if self.dephasing_rate < 0:
            raise ConfigError(f"dephasing_rate must be >= 0, got {self.dephasing_rate}")

    @property
    def effective_readout_time(self) -> float:
        return self.tau if self.readout_time is None else self.readout_time


@dataclass
class Trajectory:
    """Per-step record of a conditional run plus the final bath state."""

    conditional_p: np.ndarray
    cumulative_p: np.ndarray
    purity: np.ndarray
    final_rho: np.ndarray
    status: str = "completed"          # "completed" | "extinct"
    extinct_step: int | None = None

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
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise ConfigError(f"|alpha|^2 + |beta|^2 = {norm!r}, must be 1")
    require_dense_memory(c.n_spins)
    plus, minus = build_branch_operators(c, tau, alpha, beta, [0, c.n_spins])
    return plus[0] + minus[0]


def apply_projection(rho: np.ndarray, V: np.ndarray,
                     floor: float = EXTINCTION_FLOOR) -> tuple[np.ndarray, float]:
    """One conditional update: (V rho V^dag / p, p). Raises on extinction."""
    out, p = _renormalize(V @ rho @ V.conj().T, floor)
    return _hermitize(out), p


def _renormalize(out: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """(out / p, p) with p = Tr out; raises ExtinctionError if p < floor."""
    p = float(np.real(np.trace(out)))
    if p < floor:
        raise ExtinctionError(probability=p)
    out /= p
    return out, p


def _hermitize(out: np.ndarray) -> np.ndarray:
    """(out + out^dag) / 2 in place, exactly Hermitian: it curbs the drift
    of a gemm sandwich. conj() copies, so the in-place sum reads no entry
    it has already written."""
    out += out.conj().T
    out *= 0.5
    return out


def final_state_by_squaring(V: np.ndarray, measurements: int,
                            floor: float = EXTINCTION_FLOOR) -> tuple[np.ndarray, float]:
    """(rho_M, P_M) after M undephased rounds from I/d, by squaring W = V^M.

    Each product of the binary powering is divided by its Frobenius norm
    and the log of that norm is accumulated, so W never underflows. Then
    P_M = Tr[W W^dag] / d exp(2 logscale). Every conditional p of the
    rounds satisfies p_k = P_k / P_(k-1) >= P_M, so when P_M >= floor no
    round is extinct and the result is that of stepping. Otherwise this
    raises ExtinctionError with P_M, and only stepping (run_protocol) can
    tell whether and where a round went extinct.
    """
    if measurements < 1:
        raise ConfigError(f"measurements must be >= 1, got {measurements}")

    def rescaled(a: np.ndarray) -> tuple[np.ndarray, float]:
        s = float(np.linalg.norm(a))
        if s == 0.0:
            raise ExtinctionError(probability=0.0)
        a /= s
        return a, math.log(s)

    power, log_power = V, 0.0          # V^(2^k) / exp(log_power)
    w = log_w = None                   # product of the powers of M's set bits
    m = measurements
    while True:
        if m & 1:
            if w is None:
                w, log_w = power, log_power
            else:
                w, s = rescaled(w @ power)
                log_w += log_power + s
        m >>= 1
        if not m:
            break
        power, s = rescaled(power @ power)
        log_power = 2.0 * log_power + s
    del power                          # the product's temporaries take its place

    out = w @ w.conj().T               # d times W (I/d) W^dag
    p = float(np.real(np.trace(out))) / len(w) * math.exp(2.0 * log_w)
    if not p >= floor:
        raise ExtinctionError(probability=p)
    rho, _ = _renormalize(out, 0.0)    # the floor is on P_M, tested above
    return _hermitize(rho), p


def pair_rdm(rho: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Two-spin reduced density matrix of spins (i, j), basis order (i, j).

    The trace over the other spins is an einsum diagonal on a 10-axis view
    of rho, spins split as (before lo, lo, between, hi, after hi), so no
    copy of rho is made.
    """
    if i == j:
        raise ValueError(f"need two distinct spins, got ({i}, {j})")
    lo, hi = min(i, j), max(i, j)
    a, b, c = 2**lo, 2 ** (hi - lo - 1), 2 ** (n - hi - 1)
    t = rho.reshape(a, 2, b, 2, c, a, 2, b, 2, c)
    out = np.einsum("xiyjzxkylz->ijkl", t)
    if i > j:
        out = out.transpose(1, 0, 3, 2)
    out = out.reshape(4, 4)
    return 0.5 * (out + out.conj().T)


def all_pair_rdms(rho: np.ndarray, n: int) -> dict[tuple[int, int], np.ndarray]:
    rdms = {}
    for i in range(n):
        for j in range(i + 1, n):
            rdms[(i, j)] = pair_rdm(rho, n, i, j)
    return rdms


def _round(rho: np.ndarray, plus: list, minus: list, e: float,
           leak: tuple[float, float]) -> np.ndarray:
    """One round, unnormalized, as two left and two right applications of
    the fused factors of U'+ = (kron plus) and U'- = (kron minus):
    X+ U'+^dag + X- U'-^dag with X+- = e (A + B) + leak+- (A or B), A and B
    being U'+ rho and U'- rho (module docstring). At e = 1 both X are
    A + B and the round is V rho V^dag."""
    a = apply_left(plus, rho)
    b = apply_left(minus, rho)
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
    out = apply_right(a, plus)
    del a
    out += apply_right(b, minus)
    return out


def run_protocol(rho0: np.ndarray, cfg: ProtocolConfig, c: CouplingSet) -> Trajectory:
    """Evolve rho0 through up to cfg.measurements successful rounds.

    Each round applies the reduced evolve/dephase/project map of the module
    docstring matrix free on the fused factors (_round), then divides by
    its p; with dephasing off that map is rho <- V rho V^dag / p. A round
    whose p is below cfg.extinction_floor ends the trajectory before it,
    with status "extinct". The kernel keeps rho Hermitian to rounding
    (|rho - rho^dag| <= 2.3e-17 over the N=10 dimer chain's 100 rounds),
    so rounds only divide; the returned state is made exactly Hermitian.
    """
    require_dense_memory(c.n_spins)
    plus, minus = build_branch_operators(c, cfg.tau, cfg.alpha, cfg.beta)
    e = np.exp(-cfg.dephasing_rate * cfg.effective_readout_time)
    # s/|alpha|^2 and s/|beta|^2; a branch of weight 0 has zero factors
    s = 0.5 * (1.0 - e)
    leak = tuple(s / w if w > 0 else 0.0
                 for w in (abs(cfg.alpha) ** 2, abs(cfg.beta) ** 2))
    rho = np.array(rho0, dtype=complex)  # a copy: _hermitize writes in place
    del rho0                             # frees a caller's temporary start
    cond, purs, extinct_step = [], [], None
    for step in range(1, cfg.measurements + 1):
        out = _round(rho, plus, minus, e, leak)
        p = float(np.real(np.trace(out)))
        if not p >= cfg.extinction_floor:
            extinct_step = step
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
        status="completed" if extinct_step is None else "extinct",
        extinct_step=extinct_step,
    )
