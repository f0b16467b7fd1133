"""Large-register engine: V^m on a block of state vectors, matrix free.

A block holds r pure states of N spins as the columns of a (2^N, r)
complex array, spin 0 the most significant bit of the row index as in the
dense engine. One round maps every column psi to |alpha|^2 U+ psi +
|beta|^2 U- psi without forming U+- or V: the spins are cut into the
fewest runs of at most FUSE consecutive spins, of balanced sizes, and
each run is fused into one Kronecker factor, applied as one matmul on a
reshaped view (Hams & De Raedt, PRE 62, 4365 (2000)); the weights ride
on the first factor. The dense engine's matrix-free rho rounds use the
same kernel, from the left (apply_left) and from the right (apply_right).
The block is never renormalized, so its mean squared column norm after m
rounds is the cumulative success probability P_m, free of cancellation,
and a round's conditional p is the ratio of two consecutive ones. Memory
is BLOCKS block-sized arrays at any number of rounds, checked before the
block is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, require_memory
from .spin_core import CouplingSet, branch_propagators

if TYPE_CHECKING:
    from .dynamics_dense import ProtocolConfig

# spins per Kronecker factor at most, so a factor is at most 32 x 32
FUSE = 5

# block-sized complex arrays alive at the engine's peak: the block, the
# round's sum and the input and output of one factor's matmul. Peaks read
# with tracemalloc at N=16, r = 1 and 16: 4.0 blocks in a round, 2.0 in a
# pair RDM, plus under 1 MB that does not grow with the block.
BLOCKS = 4


def balanced_bounds(n: int, fuse: int = FUSE) -> list[int]:
    """Spin boundaries of the fewest runs of at most fuse consecutive spins,
    their sizes differing by at most one: N=16 gives 4+4+4+4, not 5+5+5+1,
    whose lone trailing spin would be the costliest factor."""
    count = -(-n // fuse)
    return [k * n // count for k in range(count + 1)]


def fused_factors(u: np.ndarray, bounds: list[int], weight: complex = 1.0) -> list:
    """Kronecker factors of the (N, 2, 2) stack u, one per run of spins
    between consecutive bounds, with weight folded into the first."""
    factors = [reduce(np.kron, u[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    factors[0] = weight * factors[0]
    return factors


def branch_factors(up: np.ndarray, um: np.ndarray, alpha: complex,
                   beta: complex) -> tuple[list, list]:
    """Fused factors of |alpha|^2 U+ and |beta|^2 U- over balanced runs of
    spins; up and um are the spins' (N, 2, 2) propagators."""
    bounds = balanced_bounds(len(up))
    return (fused_factors(up, bounds, abs(alpha) ** 2),
            fused_factors(um, bounds, abs(beta) ** 2))


def apply_left(factors: list, state: np.ndarray) -> np.ndarray:
    """(kron of factors) @ state, one matmul per factor on a reshaped view."""
    lead = 1
    for f in factors:
        view = state.reshape(lead, len(f), -1)
        state = np.matmul(f, view).reshape(state.shape)
        lead *= len(f)
    return state


def apply_right(state: np.ndarray, factors: list) -> np.ndarray:
    """state @ (kron of factors)^dag. The row index joins matmul's batch
    axis with the column bits before each factor; the trailing factor
    is one 2-D gemm."""
    lead = state.shape[0]
    for f in factors[:-1]:
        view = state.reshape(lead, len(f), -1)
        state = np.matmul(f.conj(), view).reshape(state.shape)
        lead *= len(f)
    last = factors[-1]
    return (state.reshape(-1, len(last)) @ last.conj().T).reshape(state.shape)


def extend(state: np.ndarray, plus: list, minus: list) -> np.ndarray:
    """One round on the block: V state with V = (kron plus) + (kron minus),
    the fused factors of |alpha|^2 U+ and |beta|^2 U- (branch_factors)."""
    dim = math.prod(len(f) for f in plus)
    if dim != state.shape[0] or math.prod(len(f) for f in minus) != dim:
        raise ValueError(f"factors of dimension {dim} for a block of "
                         f"{state.shape[0]} rows")
    out = apply_left(plus, state)
    out += apply_left(minus, state)
    return out


def success_probability(state: np.ndarray) -> float:
    """Mean squared column norm: ||V^m psi||^2 averaged over the columns."""
    return float(np.vdot(state, state).real / state.shape[1])


def reduced_density_matrix(state: np.ndarray, i: int, j: int) -> np.ndarray:
    """Normalized two-spin RDM of (i, j), summed over the block's columns."""
    num, norm = _rdm_unnormalized(state, i, j)
    if norm <= 0:
        raise ValueError("block has zero norm, no conditional state exists")
    rho = num / norm
    return 0.5 * (rho + rho.conj().T)


def _rdm_unnormalized(state: np.ndarray, i: int, j: int) -> tuple[np.ndarray, float]:
    """(sum over columns of Tr_rest |psi><psi| in basis order (i, j), its
    trace); one copy moves the two spins to the front as contiguous rows."""
    if i == j:
        raise ValueError(f"need two distinct spins, got ({i}, {j})")
    lo, hi = min(i, j), max(i, j)
    t = state.reshape(2**lo, 2, 2 ** (hi - lo - 1), 2, -1)
    rows = np.ascontiguousarray(t.transpose(1, 3, 0, 2, 4)).reshape(4, -1)
    rho = np.array([[np.vdot(b, a) for b in rows] for a in rows])
    if i > j:
        rho = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return rho, float(np.trace(rho).real)


def _propagate(states: np.ndarray, cfg: ProtocolConfig,
               c: CouplingSet) -> tuple[np.ndarray, np.ndarray]:
    """Rounds on the block of the products of the (N, 2, r) unit vectors
    states, up to before the first round whose conditional p is below the
    floor: (block after the last kept round, cumulative p of each)."""
    if cfg.dephasing_rate > 0:
        raise ConfigError(
            f"dephasing_rate {cfg.dephasing_rate!r}: the factored and montecarlo "
            "engines do not model readout dephasing; use the dense engine")
    n, _, r = states.shape
    require_memory(BLOCKS * r * 16 * 2**n,
                   f"{BLOCKS} blocks of 2^{n} x {r} complex amplitudes",
                   "use fewer spins or samples")
    plus, minus = branch_factors(*branch_propagators(c.g_vectors, c.omega, cfg.tau),
                                 cfg.alpha, cfg.beta)
    state = reduce(lambda b, s: (b[:, None, :] * s).reshape(-1, r), states,
                   np.ones((1, r), dtype=complex))
    cum, prev = [], 1.0
    for _ in range(cfg.measurements):
        nxt = extend(state, plus, minus)
        p = success_probability(nxt)
        if not p / prev >= cfg.extinction_floor:
            break
        state, prev = nxt, p
        cum.append(p)
    return state, np.array(cum)


def run_factored(spin_states, cfg: ProtocolConfig,
                 c: CouplingSet) -> tuple[np.ndarray, np.ndarray]:
    """Propagate one product state, one (2,) vector per spin.

    Returns the final (2^N, 1) block and the cumulative success probability
    of each kept round; fewer than cfg.measurements rows mean the run went
    extinct. Readout dephasing is not modelled, so a config that asks for
    it is rejected rather than run without it.
    """
    vecs = np.asarray(spin_states, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[1] != 2:
        raise ValueError(f"expected (N, 2) spin states, got {vecs.shape}")
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm spin state")
    return _propagate((vecs / norms[:, None])[:, :, None], cfg, c)


@dataclass
class MonteCarloResult:
    success_probability: np.ndarray   # cumulative, per kept step
    pair_rdms: dict
    purity_estimate: float
    samples: int


def _haar_product(rng: np.random.Generator, n: int) -> np.ndarray:
    """One product state, each spin independently Haar random on the sphere."""
    z = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return z / np.linalg.norm(z, axis=1)[:, None]


def _zbasis_product(rng: np.random.Generator, n: int) -> np.ndarray:
    states = np.zeros((n, 2), dtype=complex)
    states[np.arange(n), rng.integers(0, 2, size=n)] = 1.0
    return states


def mixed_state_monte_carlo(c: CouplingSet, cfg: ProtocolConfig, samples: int,
                            seed: int, pair_list=None, basis: str = "haar",
                            purity_pair_budget: int = 256) -> MonteCarloResult:
    """Monte Carlo unraveling of the maximally mixed initial state.

    Each spin is drawn independently (Haar by default, +-z with
    basis="z"), so the sample average of |psi><psi| is exactly the mixed
    state and every accumulated unnormalized observable is unbiased for
    V^M rho0 V^dag^M by linearity. The samples are the columns of one
    block, so all of them stop at the first round whose conditional p,
    over the samples, is below the floor. Pair RDMs are ratio estimates;
    the purity estimate uses cross-sample overlaps and is biased low at
    finite R. Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if basis not in ("haar", "z"):
        raise ValueError(f"unknown sampling basis {basis!r}")
    draw = _haar_product if basis == "haar" else _zbasis_product
    streams = np.random.SeedSequence(seed).spawn(samples)
    states = np.stack([draw(np.random.default_rng(s), c.n_spins)
                       for s in streams], axis=-1)
    state, cum = _propagate(states, cfg, c)
    return MonteCarloResult(
        success_probability=cum, samples=samples,
        pair_rdms={p: reduced_density_matrix(state, *p) for p in pair_list or ()},
        purity_estimate=_purity_from_samples(state, purity_pair_budget))


def _purity_from_samples(state: np.ndarray, budget: int) -> float:
    """Cross-sample purity estimate of the conditional state.

    |<V^m psi_a | V^m psi_b>|^2 averaged over distinct sample pairs is an
    unbiased estimate of Tr[(V^m rho0 V^dag^m)^2] (independent Haar draws
    average to rho0 on each side); dividing by the squared mean norm gives
    the normalized purity. The pairs a < b of the first k columns, k the
    fewest with k(k-1)/2 >= budget, are taken in row-major order and
    truncated to the budget; the ratio makes this an approximate
    lower-bound estimate.
    """
    keep, mean_norm = 2, success_probability(state)
    while keep * (keep - 1) // 2 < budget and keep < state.shape[1]:
        keep += 1
    if state.shape[1] < 2 or mean_norm <= 0:
        return float("nan")
    a, b = (idx[:budget] for idx in np.triu_indices(keep, 1))
    overlaps = (state[:, :keep].conj().T @ state[:, :keep])[a, b]
    return float(np.sum(np.abs(overlaps) ** 2) / len(a) / mean_norm**2)
