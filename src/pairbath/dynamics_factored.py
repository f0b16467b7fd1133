"""Large-register engine: V^m on a block of state vectors, matrix free.

A block holds r pure states of N spins as the columns of a (2^N, r)
complex array, spin 0 the most significant bit of the row index as in the
dense engine. One round maps every column psi to |alpha|^2 U+ psi +
|beta|^2 U- psi without forming U+- or V: the spins are cut into the
fewest runs of at most FUSE consecutive spins, of balanced sizes, and
each run is fused into one Kronecker factor (Hams & De Raedt, PRE 62,
4365 (2000)); the weights ride on the first factor.
build_branch_operators builds them for every engine; with bounds [0, N]
they are the weighted dense U+- build_V sums. apply_t is the one kernel:
each factor is one 2-D gemm that contracts the leading run of spins and
moves its new index to the back, so it returns the product transposed.
A round on the block and the dense engine's rho rounds both use it.
Pair RDMs come from the union of at most two runs, or from the pair alone
when the union's reduced state would outgrow the block: one copy of the
block's real and imaginary parts and three real gemms reduce it to those
spins, and every pair inside is read from that.
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

# every engine stops before the first round whose conditional p is below
# this, so a run is extinct exactly when it kept fewer rounds than it asked
EXTINCTION_FLOOR = 1e-14

# block-sized complex arrays alive at the engine's peak: the block, the
# round's sum and the input and output of one factor's gemm. A pair RDM
# holds two (the block, and its reordered real and imaginary parts of
# half a block each) plus the reduced state, which pair_rdms keeps within
# one block. Peaks read with tracemalloc at N=16: 4.00 blocks at r = 16
# and 4.04 at r = 1, set by the rounds; all 120 pair RDMs peak at 2.07
# and 3.05, where the reduced state of 8 spins is itself one block.
BLOCKS = 4


def balanced_bounds(n: int, fuse: int = FUSE) -> list[int]:
    """Spin boundaries of the fewest runs of at most fuse consecutive spins,
    their sizes differing by at most one: N=16 gives 4+4+4+4, not 5+5+5+1,
    whose lone trailing spin would be the costliest factor."""
    count = -(-n // fuse)
    return [k * n // count for k in range(count + 1)]


def build_branch_operators(c: CouplingSet, tau: float, alpha: complex,
                           beta: complex, bounds: list[int] | None = None
                           ) -> tuple[list, list]:
    """Kronecker factors of |alpha|^2 U+ and |beta|^2 U-, one per run of
    spins between consecutive bounds (default balanced_bounds), with the
    weights folded into the first factor. bounds [0, N] gives the dense
    operators of the whole bath, each a one-factor list."""
    bounds = balanced_bounds(c.n_spins) if bounds is None else bounds
    out = []
    for u, weight in zip(branch_propagators(c.g_vectors, c.omega, tau),
                         (abs(alpha) ** 2, abs(beta) ** 2)):
        factors = [reduce(np.kron, u[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        factors[0] = weight * factors[0]
        out.append(factors)
    return tuple(out)


def apply_t(factors: list, z: np.ndarray, out: tuple | None = None) -> np.ndarray:
    """((kron of factors) @ z)^T for a 2-D z, one 2-D gemm per factor:
    each contracts the leading run of spins and moves its new index to the
    back, so after the last factor z's columns lead. Each gemm allocates
    its product, unless out gives two contiguous arrays of z's size and
    the product's dtype, neither sharing z's memory: the gemms then write
    them in turn, the last one out[0], which the result is a view of."""
    s = z
    for k, f in enumerate(factors):
        x = s.reshape(len(f), -1).T
        if out is None:
            s = x @ f.T
        else:
            dest = out[(len(factors) - 1 - k) % 2].reshape(len(x), len(f))
            s = np.matmul(x, f.T, out=dest)
    return s.reshape(z.shape[::-1])


def extend(state: np.ndarray, plus: list, minus: list) -> np.ndarray:
    """One round on the block: V state with V = (kron plus) + (kron minus),
    the fused factors of |alpha|^2 U+ and |beta|^2 U- (build_branch_operators)."""
    dim = math.prod(len(f) for f in plus)
    if dim != state.shape[0] or math.prod(len(f) for f in minus) != dim:
        raise ValueError(f"factors of dimension {dim} for a block of "
                         f"{state.shape[0]} rows")
    out = apply_t(plus, state)
    out += apply_t(minus, state)
    return np.ascontiguousarray(out.T)


def success_probability(state: np.ndarray) -> float:
    """Mean squared column norm: ||V^m psi||^2 averaged over the columns."""
    return float(np.vdot(state, state).real / state.shape[1])


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


def pair_rdms(state: np.ndarray, pairs) -> dict[tuple[int, int], np.ndarray]:
    """Normalized two-spin RDMs of the (i, j) pairs, basis order (i, j),
    summed over the block's columns.

    Every pair lies in the union of at most two balanced_bounds runs, at
    most 2 FUSE spins. A pair is grouped by that union when the union's
    4^u entries are at most the block's 2^N r, and alone otherwise (at
    N <= 10 the union is the whole bath); each group's spins are reduced
    in one _rdm_unnormalized call and every pair of the group is read from
    that reduced state by pair_rdm.
    """
    pairs, n = list(pairs), state.shape[0].bit_length() - 1
    bounds = balanced_bounds(n)
    run = np.searchsorted(bounds, np.arange(n), side="right") - 1
    last = max(len(bounds) - 3, 0)     # first of the last two runs
    groups = {}
    for i, j in pairs:
        if i == j:
            raise ValueError(f"need two distinct spins, got ({i}, {j})")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"spins ({i}, {j}) outside a block of {n} spins")
        a, b = sorted((run[i], run[j]))
        if a == b:                      # one run: share a union with the next
            a = min(a, last)
            b = a + 1
        union = tuple(np.flatnonzero((run == a) | (run == b)))
        key = union if 4 ** len(union) <= state.size else tuple(sorted((i, j)))
        groups.setdefault(key, []).append((i, j))
    out = {}
    for group in groups.values():
        spins = sorted({s for pair in group for s in pair})
        num, norm = _rdm_unnormalized(state, spins)
        if norm <= 0:
            raise ValueError("block has zero norm, no conditional state exists")
        num /= norm
        for i, j in group:
            out[(i, j)] = pair_rdm(num, len(spins), spins.index(i), spins.index(j))
        del num                         # the next group's copies take its place
    return {p: out[p] for p in pairs}


def reduced_density_matrix(state: np.ndarray, i: int, j: int) -> np.ndarray:
    """Normalized two-spin RDM of (i, j), summed over the block's columns."""
    return pair_rdms(state, [(i, j)])[(i, j)]


def _rdm_unnormalized(state: np.ndarray, spins: list) -> tuple[np.ndarray, float]:
    """(sum over columns of Tr_rest |psi><psi| on the sorted spins, its
    trace): the rows R + iI of the block with those spins moved to the
    front, times their adjoint, contract everything else. R and I are two
    half-size copies, and R R^T + I I^T and B - B^T with B = I R^T are
    the real and imaginary parts of the product: no conjugated copy is
    made, and numpy hands x @ x.T to a symmetric rank-k update."""
    n = state.shape[0].bit_length() - 1
    rest = [k for k in range(n + 1) if k not in spins]
    t = state.reshape((2,) * n + (-1,)).transpose(list(spins) + rest)
    shape = (2 ** len(spins), -1)
    re = np.ascontiguousarray(t.real).reshape(shape)
    im = np.ascontiguousarray(t.imag).reshape(shape)
    g = re @ re.T
    g += im @ im.T
    b = im @ re.T
    del re, im                         # the reduced state takes their place
    rho = g.astype(complex)
    del g
    np.subtract(b, b.T, out=rho.imag)
    return rho, float(np.trace(rho).real)


def _propagate(states: np.ndarray, cfg: ProtocolConfig,
               c: CouplingSet) -> tuple[np.ndarray, np.ndarray]:
    """Rounds on the block of the products of the (N, 2, r) unit vectors
    states, up to before the first round whose conditional p is below
    EXTINCTION_FLOOR: (block after the last kept round, cumulative p of
    each)."""
    cfg.require_omega_of(c)
    if cfg.dephasing_rate > 0:
        raise ConfigError(
            f"dephasing_rate {cfg.dephasing_rate!r}: the factored and montecarlo "
            "engines do not model readout dephasing; use the dense engine")
    n, _, r = states.shape
    require_memory(BLOCKS * r * 16 * 2**n,
                   f"{BLOCKS} blocks of 2^{n} x {r} complex amplitudes",
                   "use fewer spins or samples")
    plus, minus = build_branch_operators(c, cfg.tau, cfg.alpha, cfg.beta)
    state = reduce(lambda b, s: (b[:, None, :] * s).reshape(-1, r), states,
                   np.ones((1, r), dtype=complex))
    cum, prev = [], 1.0
    for _ in range(cfg.measurements):
        nxt = extend(state, plus, minus)
        p = success_probability(nxt)
        if not p / prev >= EXTINCTION_FLOOR:
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
        pair_rdms=pair_rdms(state, pair_list or ()),
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
