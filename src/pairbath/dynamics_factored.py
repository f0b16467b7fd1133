"""Large-register engine: V^m on a product state as a sum of 2^m products.

Applying V = |alpha|^2 U+ + |beta|^2 U- to a product state m times yields
a sum over the 2^m branch words b in {+,-}^m, each branch again a product
state: spin k carries the ordered product of its own 2x2 branch factors.
All scalar observables reduce to the per-spin Gram matrices

    G_k[a, b] = <v_{a,k} | v_{b,k}>

via P = sum_{a,b} conj(w_a) w_b prod_k G_k[a,b]. Unitarity makes the
diagonal blocks of each extension step trivial (G'_{00} = G'_{11} = G), so
one extension costs a single 2x2-sandwich gemm per spin for the cross
block, O(4^m N) in memory. No truncation is applied. Before the first
round run_factored checks that the last two Gram caches fit in physical
memory, and raises CapacityError if they do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics_dense import ProtocolConfig
from .errors import ConfigError, require_memory
from .spin_core import CouplingSet, branch_propagators

# rows per block in the deterministic Gram reductions; fixed so that the
# summation order never depends on worker count or array layout
REDUCE_BLOCK = 256


@dataclass(frozen=True)
class BranchEnsemble:
    """Sum of weighted product states with per-spin Gram caches.

    vectors: (B, N, 2) complex, branch b's state of spin k is vectors[b, k]
    weights: (B,) complex branch scalars
    grams:   (N, B, B) complex, grams[k][a, b] = <v_{a,k}|v_{b,k}>
    """

    vectors: np.ndarray
    weights: np.ndarray
    grams: np.ndarray

    @property
    def n_branches(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_spins(self) -> int:
        return self.vectors.shape[1]


def from_product_state(spin_states) -> BranchEnsemble:
    """Single-branch ensemble from one product state, one (2,) vector per spin."""
    vecs = np.asarray(spin_states, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[1] != 2:
        raise ValueError(f"expected (N, 2) spin states, got {vecs.shape}")
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm spin state")
    vecs = vecs / norms[:, None]
    n = vecs.shape[0]
    grams = np.ones((n, 1, 1), dtype=complex)
    return BranchEnsemble(vecs[None, :, :].copy(), np.ones(1, dtype=complex), grams)


def extend(ens: BranchEnsemble, up: np.ndarray, um: np.ndarray,
           alpha: complex, beta: complex) -> BranchEnsemble:
    """One measurement round: branch count doubles.

    up and um are the (N, 2, 2) branch propagators of the spins. Appended
    bit 0 applies U+ to every spin with weight factor |alpha|^2, bit 1
    applies U- with |beta|^2. Gram update is incremental: the
    same-bit blocks are invariant under the joint unitaries, and only
    G01[a, b] = <v_a | U+^dag U- | v_b> needs fresh gemms (G10 = G01^dag).
    """
    b, n = ens.n_branches, ens.n_spins
    if up.shape != (n, 2, 2) or um.shape != (n, 2, 2):
        raise ValueError(f"propagators of shape {up.shape} and {um.shape} "
                         f"for {n} spins")

    new_vecs = np.empty((2 * b, n, 2), dtype=complex)
    new_vecs[:b] = np.einsum("kij,bkj->bki", up, ens.vectors)
    new_vecs[b:] = np.einsum("kij,bkj->bki", um, ens.vectors)

    new_weights = np.concatenate([abs(alpha) ** 2 * ens.weights,
                                  abs(beta) ** 2 * ens.weights])

    new_grams = np.empty((n, 2 * b, 2 * b), dtype=complex)
    w = np.einsum("kji,kjl->kil", up.conj(), um)  # U+^dag U- per spin
    for k in range(n):
        vk = ens.vectors[:, k, :]                 # (B, 2)
        cross = vk.conj() @ w[k] @ vk.T           # (B, B)
        new_grams[k, :b, :b] = ens.grams[k]
        new_grams[k, b:, b:] = ens.grams[k]
        new_grams[k, :b, b:] = cross
        new_grams[k, b:, :b] = cross.conj().T
    return BranchEnsemble(new_vecs, new_weights, new_grams)


def _blocked_bilinear(weights: np.ndarray, prod: np.ndarray) -> complex:
    """sum_{a,b} conj(w_a) w_b prod[a, b] in fixed block order."""
    b = len(weights)
    total = 0.0 + 0.0j
    for lo in range(0, b, REDUCE_BLOCK):
        hi = min(lo + REDUCE_BLOCK, b)
        total += weights[lo:hi].conj() @ prod[lo:hi] @ weights
    return total


def gram_product(ens: BranchEnsemble, exclude: tuple[int, ...] = ()) -> np.ndarray:
    """Elementwise product over spins of the Gram matrices, optionally
    excluding some spins. Fixed spin order keeps results deterministic."""
    b = ens.n_branches
    out = np.ones((b, b), dtype=complex)
    for k in range(ens.n_spins):
        if k in exclude:
            continue
        out *= ens.grams[k]
    return out


def success_probability(ens: BranchEnsemble) -> float:
    """Cumulative probability P = ||V^m psi||^2 = sum conj(w_a) w_b prod_k G_k."""
    val = _blocked_bilinear(ens.weights, gram_product(ens))
    return float(np.real(val))


def reduced_density_matrix(ens: BranchEnsemble, i: int, j: int) -> np.ndarray:
    """Normalized two-spin RDM of (i, j) straight from the branch sum."""
    num, norm = _rdm_unnormalized(ens, i, j)
    if norm <= 0:
        raise ValueError("ensemble has zero norm, no conditional state exists")
    rho = num / norm
    return 0.5 * (rho + rho.conj().T)


def _rdm_unnormalized(ens: BranchEnsemble, i: int, j: int) -> tuple[np.ndarray, float]:
    if i == j:
        raise ValueError(f"need two distinct spins, got ({i}, {j})")
    w = gram_product(ens, exclude=(i, j))
    w = ens.weights.conj()[:, None] * ens.weights[None, :] * w
    vi = ens.vectors[:, i, :]
    vj = ens.vectors[:, j, :]
    rho = np.einsum("ab,bs,bt,ap,aq->stpq", w, vi, vj, vi.conj(), vj.conj(),
                    optimize=True).reshape(4, 4)
    norm = float(np.real(np.trace(rho)))
    return rho, norm


@dataclass
class MonteCarloResult:
    success_probability: np.ndarray   # cumulative, per step
    pair_rdms: dict
    purity_estimate: float
    samples: int


def run_factored(spin_states, cfg: ProtocolConfig,
                 c: CouplingSet) -> tuple[BranchEnsemble, np.ndarray]:
    """Propagate one product state through cfg.measurements rounds.

    Returns the final ensemble and the cumulative success probability
    after each round. Readout dephasing is not modelled, so a config that
    asks for it is rejected rather than run without it.
    """
    if cfg.dephasing_rate > 0:
        raise ConfigError(
            f"dephasing_rate {cfg.dephasing_rate!r}: the factored and montecarlo "
            "engines do not model readout dephasing; use the dense engine")
    n, rounds = len(spin_states), cfg.measurements
    # bytes of the last Gram cache and the one it is built from
    require_memory(n * 16 * (4**rounds + 4 ** (rounds - 1)),
                   f"the Gram caches of {rounds} rounds on {n} spins",
                   "use fewer measurements or the dense engine")
    up, um = branch_propagators(c.g_vectors, c.omega, cfg.tau)
    ens = from_product_state(spin_states)
    probs = np.empty(cfg.measurements)
    for m in range(cfg.measurements):
        ens = extend(ens, up, um, cfg.alpha, cfg.beta)
        probs[m] = success_probability(ens)
    return ens, probs


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
    V^M rho0 V^dag^M by linearity. Normalized quantities (pair RDMs) are
    ratio estimates; the purity estimate uses cross-sample overlaps and is
    biased low at finite R. Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if basis not in ("haar", "z"):
        raise ValueError(f"unknown sampling basis {basis!r}")
    draw = _haar_product if basis == "haar" else _zbasis_product
    n = c.n_spins
    streams = np.random.SeedSequence(seed).spawn(samples)

    # cross-sample purity needs k samples kept around, k(k-1)/2 >= budget
    keep = 2
    while keep * (keep - 1) // 2 < purity_pair_budget and keep < samples:
        keep += 1

    cum = np.zeros(cfg.measurements)
    norm_sum = 0.0
    rdm_num = {p: np.zeros((4, 4), dtype=complex) for p in (pair_list or [])}
    rdm_den = {p: 0.0 for p in (pair_list or [])}
    kept = []   # (vectors, weights) of the first samples, for the purity
    for s in range(samples):
        rng = np.random.default_rng(streams[s])
        ens, probs = run_factored(draw(rng, n), cfg, c)
        cum += probs
        norm_sum += probs[-1]
        for p in rdm_num:
            num, den = _rdm_unnormalized(ens, *p)
            rdm_num[p] += num
            rdm_den[p] += den
        if len(kept) < keep:
            kept.append((ens.vectors, ens.weights))
    cum /= samples

    pair_rdms = {}
    for p, num in rdm_num.items():
        rho = num / rdm_den[p]
        pair_rdms[p] = 0.5 * (rho + rho.conj().T)

    pur = _purity_from_samples(kept, budget=purity_pair_budget,
                               mean_norm=norm_sum / samples)
    return MonteCarloResult(success_probability=cum, pair_rdms=pair_rdms,
                            purity_estimate=pur, samples=samples)


def _cross_gram(s1: tuple, s2: tuple) -> complex:
    """<V^m psi_1 | V^m psi_2> across two samples with the same history,
    each given as the (vectors, weights) of its ensemble."""
    (v1, w1), (v2, w2) = s1, s2
    prod = np.ones((len(w1), len(w2)), dtype=complex)
    for k in range(v1.shape[1]):
        prod *= v1[:, k, :].conj() @ v2[:, k, :].T
    return w1.conj() @ prod @ w2


def _purity_from_samples(samples: list, budget: int, mean_norm: float) -> float:
    """Cross-sample purity estimate of the conditional state.

    |<V^m psi_a | V^m psi_b>|^2 averaged over distinct sample pairs is an
    unbiased estimate of Tr[(V^m rho0 V^dag^m)^2] (independent Haar draws
    average to rho0 on each side); dividing by the squared mean norm gives
    the normalized purity. The pair set is truncated deterministically to
    the budget; the ratio makes this an approximate lower-bound estimate.
    """
    r = len(samples)
    if r < 2 or mean_norm <= 0:
        return float("nan")
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    pairs = pairs[:budget]
    acc = 0.0
    for a, b in pairs:
        acc += abs(_cross_gram(samples[a], samples[b])) ** 2
    return float(acc / len(pairs) / mean_norm**2)
