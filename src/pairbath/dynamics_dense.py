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

with e = exp(-gamma_d * readout_time). run_protocol uses this reduced form.

Without dephasing the final state needs only W = V^M:
rho_M = W rho0 W^dag / P_M with P_M = Tr[W rho0 W^dag], the cumulative
probability. final_state_by_squaring builds W by repeated squaring, in
O(log M) products instead of M sandwiches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, ExtinctionError, require_memory
from .spin_core import CouplingSet, branch_propagators

EXTINCTION_FLOOR = 1e-14

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# d x d complex matrices the dense engine holds at its peak, rounded up:
# U+, U-, V, rho0 and rho, and the four temporaries of a dephased round
# (its two buffers plus one sandwich's product and conjugate). Peaks read
# with tracemalloc at N=8: 9.01 for a dephased run_protocol, 8.13 without
# dephasing, 7.13 for a scan point through final_state_by_squaring.
DENSE_MATRICES = 10


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


def build_branch_operators(c: CouplingSet, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense U+ and U- on the full bath, as Kronecker chains of the per-spin pairs.

    Raises CapacityError, before any propagator is built, if the dense
    engine's matrices would not fit in physical memory.
    """
    require_dense_memory(c.n_spins)
    one = np.eye(1, dtype=complex)
    return tuple(reduce(np.kron, u, one)
                 for u in branch_propagators(c.g_vectors, c.omega, tau))


def build_V(c: CouplingSet, tau: float, alpha: complex = INV_SQRT2,
            beta: complex = INV_SQRT2) -> np.ndarray:
    """Conditional operator V = |alpha|^2 U+ + |beta|^2 U-."""
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise ConfigError(f"|alpha|^2 + |beta|^2 = {norm!r}, must be 1")
    up, um = build_branch_operators(c, tau)
    return abs(alpha) ** 2 * up + abs(beta) ** 2 * um


def apply_projection(rho: np.ndarray, V: np.ndarray,
                     floor: float = EXTINCTION_FLOOR) -> tuple[np.ndarray, float]:
    """One conditional update: (V rho V^dag / p, p). Raises on extinction."""
    return _renormalize(V @ rho @ V.conj().T, floor)


def _renormalize(out: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """(out / p, p) with p = Tr out; raises ExtinctionError if p < floor."""
    p = float(np.real(np.trace(out)))
    if p < floor:
        raise ExtinctionError(probability=p)
    out /= p
    # curb Hermiticity drift from repeated gemms
    out = 0.5 * (out + out.conj().T)
    return out, p


def final_state_by_squaring(rho0: np.ndarray, V: np.ndarray, measurements: int,
                            floor: float = EXTINCTION_FLOOR) -> tuple[np.ndarray, float]:
    """(rho_M, P_M) after M rounds without dephasing, from W = V^M by squaring.

    Each product of the binary powering is divided by its Frobenius norm
    and the log of that norm is accumulated, so W never underflows. Then
    P_M = Tr[W rho0 W^dag] exp(2 logscale). Every conditional p of the
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

    out = w @ rho0 @ w.conj().T
    p = float(np.real(np.trace(out))) * math.exp(2.0 * log_w)
    if not p >= floor:
        raise ExtinctionError(probability=p)
    rho, _ = _renormalize(out, 0.0)    # the floor is on P_M, tested above
    return rho, p


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


def _dephased_round(rho, up, um, V, wa, wb, e) -> np.ndarray:
    """e V rho V^dag + (1-e)/2 (wa U+ rho U+^dag + wb U- rho U-^dag),
    unnormalized, built in place in two buffers in the arithmetic order
    of the expression, so at most four d x d temporaries live at once."""
    leak = up @ rho @ up.conj().T
    leak *= wa
    part = um @ rho @ um.conj().T
    part *= wb
    leak += part
    del part
    out = V @ rho @ V.conj().T
    out *= e
    leak *= 0.5 * (1.0 - e)
    out += leak
    return out


def run_protocol(rho0: np.ndarray, cfg: ProtocolConfig, c: CouplingSet) -> Trajectory:
    """Evolve rho0 through up to cfg.measurements successful rounds.

    With dephasing off the final state is V^M rho0 V^dag^M normalized and
    the cumulative probability is Tr[V^M rho0 V^dag^M]. With dephasing on,
    each round applies the reduced evolve/dephase/project map derived in
    the module docstring. A round whose p is below cfg.extinction_floor
    ends the trajectory before it, with status "extinct".
    """
    up, um = build_branch_operators(c, cfg.tau)
    wa, wb = abs(cfg.alpha) ** 2, abs(cfg.beta) ** 2
    V = wa * up + wb * um
    e = np.exp(-cfg.dephasing_rate * cfg.effective_readout_time)

    rho = np.array(rho0, dtype=complex)
    cond, purs = [], []
    status, extinct_step = "completed", None
    for step in range(1, cfg.measurements + 1):
        try:
            if e < 1.0:
                rho, p = _renormalize(_dephased_round(rho, up, um, V, wa, wb, e),
                                      cfg.extinction_floor)
            else:
                rho, p = apply_projection(rho, V, cfg.extinction_floor)
        except ExtinctionError:
            status, extinct_step = "extinct", step
            break
        cond.append(p)
        purs.append(purity(rho))
    return Trajectory(
        conditional_p=np.array(cond),
        cumulative_p=np.cumprod(cond),
        purity=np.array(purs),
        final_rho=rho,
        status=status,
        extinct_step=extinct_step,
    )
