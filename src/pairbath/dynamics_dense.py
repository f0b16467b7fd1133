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
factors, built once per run, each writing into one of four arrays the
run allocates once. Every round of a run is this one, followed by a
divide by its trace, whatever rho's rank: an eigendecomposition to
continue on a low-rank block costs more than the rounds it would save.

Without dephasing the final state from the maximally mixed start also
needs only W = V^M: rho_M = W W^dag / Tr[W W^dag], with the cumulative
probability P_M = Tr[W W^dag] / d. final_state_by_squaring builds W by
repeated squaring, in O(log M) plain products instead of M sandwiches,
and returns None when P_M is below EXTINCTION_FLOOR.

For an even N the engine runs in real arithmetic. Every branch propagator
is in SU(2), and in the magic basis of a spin pair (Hill & Wootters, PRL
78, 5022 (1997)), columns of Mq = Mq'/sqrt(2) with

    Mq' = [[1, 0, 0, i], [0, i, 1, 0], [0, i, -1, 0], [1, 0, 0, -i]],

Mq^dag (Ua (x) Ub) Mq is real orthogonal (Kraus & Cirac, PRA 63, 062309
(2001)). So the factors of runs of whole pairs, U+-, V and every rho a
round forms from a time-reversal-symmetric start (I/d, singlet products)
are real in T = (x)Mq' over the pairs. The bath is cut into runs of at
most two pairs, 2 * balanced_bounds(N // 2, 2) (N=10 is 2+4+4), and each
factor F becomes 2^-k T^dag F T for a run of k pairs. Mq' has exact
entries, T^dag T = 2^k I exactly, and the power-of-two scale is exact, so
the change of basis adds rounding but no bias: a 1/sqrt(2)-normalized Mq
is unitary only to rounding, and that biases every round's p (about 1e-12
relative over 800 rounds). magic_basis gives the T of each run. The
maximally mixed start (rho0 None) is I/d in every basis, so run_protocol
builds it real in T, and rotates in only a start its caller passes; a scan
point squares conditional_operator's real V. Either keeps its final state
in T: a Trajectory rotates it back (from_magic) only when final_rho is
read, and all_pair_rdms reads each pair in T from the at most 16 x 16
state of the one or two magic pairs that hold it, because a trace over
whole pairs does not see their basis. So no complex d x d matrix exists
in a run or scan point from a real start. An odd N has no real basis
(time reversal squares to -1) and runs complex, as does a start that is
not real in the basis, on the real factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dynamics_factored import (EXTINCTION_FLOOR, apply_t, balanced_bounds,
                                build_branch_operators, pair_rdm)
from .errors import ConfigError, require_memory
from .spin_core import CouplingSet

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# sqrt(2) times the magic basis of a spin pair, in columns: exact entries
MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]])

# largest imaginary part a factor or start may have and still count as real
REAL_TOL = 1e-14

# d x d complex matrices the dense engine holds at its peak, rounded up.
# Peaks read with tracemalloc. An odd bath runs complex; at N=7: 5.10 for a
# run_protocol from a start its caller passes as a temporary, with or
# without dephasing (rho and the four arrays its rounds write), 4.51 for
# a scan point that squares (V, W, conj(W) and W W^dag) and 5.13 for one
# that falls back to stepping. An even bath from a start its caller passes holds that start's
# complex change of basis; at N=8: 4.03 from I/d, 5.03 from a start that
# is not real in the basis.
DENSE_MATRICES = 6

# d x d real matrices an even bath holds at its peak from a real start,
# rounded up: run_protocol(None, ...) and every scan point, which keep
# their state in the basis (module docstring). Peaks read with tracemalloc
# at N=8: 5.04 for that run, with or without dephasing (rho and the four
# arrays its rounds write), 4.15 for a scan point that squares and 5.08
# for one that steps.
REAL_DENSE_MATRICES = 6


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
    extinct. The state is kept in the run's basis (magic_basis, or None
    for the product basis), where all_pair_rdms reads it."""

    conditional_p: np.ndarray
    cumulative_p: np.ndarray
    purity: np.ndarray
    state: np.ndarray
    basis: list | None

    @property
    def steps(self) -> int:
        return len(self.conditional_p)

    @property
    def final_rho(self) -> np.ndarray:
        """The final state in the product basis, exactly Hermitian; each
        read rotates a new copy out of the basis."""
        return from_magic(self.state, self.basis)


def require_dense_memory(n: int, real: bool = False) -> None:
    """Raise CapacityError if the dense engine's matrices for n spins would
    not fit in physical memory: REAL_DENSE_MATRICES real ones for an even
    bath from a real start (real), DENSE_MATRICES complex ones otherwise."""
    count, size, kind = ((REAL_DENSE_MATRICES, 8, "real") if real
                         else (DENSE_MATRICES, 16, "complex"))
    require_memory(count * size * 4**n,
                   f"the dense engine's {count} matrices of "
                   f"2^{n} x 2^{n} {kind} entries",
                   "use fewer spins, or for run the factored or montecarlo engine")


def maximally_mixed(n: int) -> np.ndarray:
    """The dense engine's mixed start in the product basis; its memory is
    checked first. run_protocol(None, ...) starts from it without forming
    it."""
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


def _pair_bounds(n: int) -> list[int]:
    """Runs of at most two whole spin pairs, balanced: N=10 is 2+4+4."""
    return [2 * b for b in balanced_bounds(n // 2, 2)]


def magic_basis(n: int) -> list | None:
    """T = (x)Mq' of each _pair_bounds run of an even bath, T^dag T = 2^k I
    exactly for k pairs (module docstring); None for an odd bath, which has
    no real basis."""
    if n % 2:
        return None
    bounds = _pair_bounds(n)
    return [reduce(np.kron, [MAGIC] * ((hi - lo) // 2))
            for lo, hi in zip(bounds, bounds[1:])]


def _inverse(t: np.ndarray) -> np.ndarray:
    """T^-1 = 2^-k T^dag, exactly: the scale is a power of two."""
    return t.conj().T / math.isqrt(len(t))


def _sandwich(z: np.ndarray, left: list, right: list) -> np.ndarray:
    """(kron left) z (kron right), as two applications of the kernel."""
    return apply_t([f.T for f in right], apply_t(left, z))


def _branch_factors(c: CouplingSet, tau: float, alpha: complex, beta: complex,
                    basis: list | None) -> tuple[list, list]:
    """The factors of |alpha|^2 U+ and |beta|^2 U- (build_branch_operators):
    with a basis, those of its runs, 2^-k T^dag F T, real. Raises
    ValueError if one is not real to REAL_TOL, which SU(2) propagators
    rule out."""
    if basis is None:
        return build_branch_operators(c, tau, alpha, beta)
    out = []
    for factors in build_branch_operators(c, tau, alpha, beta,
                                          _pair_bounds(c.n_spins)):
        rotated = [_inverse(t) @ f @ t for f, t in zip(factors, basis)]
        worst = max(np.abs(f.imag).max() for f in rotated)
        if not worst <= REAL_TOL:
            raise ValueError(f"a branch factor has an imaginary part of {worst:.3g} "
                             "in the magic basis")
        out.append([np.ascontiguousarray(f.real) for f in rotated])
    return tuple(out)


def conditional_operator(c: CouplingSet, tau: float, alpha: complex = INV_SQRT2,
                         beta: complex = INV_SQRT2) -> tuple[np.ndarray, list | None]:
    """(V, basis): for an even bath V in magic_basis, real, and that basis;
    for an odd one build_V's V and None. all_pair_rdms(rho, n, basis)
    reads the pairs of a state made from V, and from_magic(rho, basis)
    takes it to the product basis. Raises CapacityError, before any
    propagator is built, if the dense engine's matrices would not fit."""
    basis = magic_basis(c.n_spins)
    if basis is None:
        return build_V(c, tau, alpha, beta), None
    _require_unit_norm(alpha, beta)
    require_dense_memory(c.n_spins, real=True)
    plus, minus = _branch_factors(c, tau, alpha, beta, basis)
    return reduce(np.kron, plus) + reduce(np.kron, minus), basis


def _to_magic(rho0: np.ndarray, basis: list | None) -> np.ndarray:
    """A copy of rho0 in basis (magic_basis or None): real when it is real
    there to REAL_TOL, as I/d and every time-reversal-symmetric state are."""
    if basis is None:
        return np.array(rho0, dtype=complex)
    rho = _sandwich(np.asarray(rho0, dtype=complex),
                    [_inverse(t) for t in basis], basis)
    im = rho.imag                      # max and min make no temporary
    if im.max() <= REAL_TOL and -im.min() <= REAL_TOL:
        return np.ascontiguousarray(rho.real)
    return rho


def from_magic(rho: np.ndarray, basis: list | None) -> np.ndarray:
    """rho, a state in basis (magic_basis or None), in the product basis and
    made exactly Hermitian, as a new array: rho itself is never written."""
    if basis is None:
        return _hermitize(rho.copy())
    return _hermitize(_sandwich(rho, basis, [_inverse(t) for t in basis]))


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
    of a gemm sandwich. For a complex out, conj() copies; for a real one it
    returns out itself, so the sum adds out to its own transpose, which is
    exact only because numpy buffers an operand that overlaps the output of
    an in-place operation, and so reads no entry it has already written."""
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


def all_pair_rdms(rho: np.ndarray, n: int,
                  basis: list | None = None) -> dict[tuple[int, int], np.ndarray]:
    """pair_rdm of every pair i < j of rho, a state in basis (magic_basis
    or None). In a basis, each pair is read from the product-basis state
    of the one or two magic pairs that hold it (_magic_block), so rho is
    never rotated back."""
    if basis is None:
        return {(i, j): pair_rdm(rho, n, i, j)
                for i in range(n) for j in range(i + 1, n)}
    rdms, blocks = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            held = tuple(sorted({i // 2, j // 2}))
            if held not in blocks:
                blocks[held] = _magic_block(rho, n, held)
            spins = [s for p in held for s in (2 * p, 2 * p + 1)]
            rdms[(i, j)] = pair_rdm(blocks[held], len(spins),
                                    spins.index(i), spins.index(j))
    return rdms


def _magic_block(rho: np.ndarray, n: int, held: tuple) -> np.ndarray:
    """The product-basis state of the spins of the magic pairs held (one
    or two, ascending) from rho in magic_basis(n). The trace over every
    other pair does not see their basis, since T is a product over pairs;
    the at most 16 x 16 result is rotated back with (x)Mq' and its exact
    inverse."""
    k = n // 2
    cols = [k + p if p in held else p for p in range(k)]
    sigma = np.einsum(rho.reshape((4,) * (2 * k)), list(range(k)) + cols,
                      list(held) + [k + p for p in held])
    t = reduce(np.kron, [MAGIC] * len(held))
    return t @ sigma.reshape(len(t), len(t)) @ _inverse(t)


def _round(rho: np.ndarray, left: tuple, right: tuple, e: float,
           leak: tuple[float, float], work: list) -> np.ndarray:
    """One round, unnormalized, as four transposing applications (apply_t)
    of the fused factors: A^T and B^T from left = (plus, minus), the
    factors of U'+ and U'-, on rho; then X+ U'+^dag + X- U'-^dag from
    right, the conjugated factors, on X+-^T, with X+- = e (A + B) +
    leak+- (A or B) (module docstring). At e = 1 both X are A + B and the
    round is V rho V^dag. Every product is written into work, four arrays
    of rho's shape and dtype other than rho, so a round allocates no
    d x d matrix; the result is work[3]'s memory."""
    a = apply_t(left[0], rho, (work[0], work[2]))
    b = apply_t(left[1], rho, (work[1], work[2]))
    if e == 1.0:
        a += b
        b = a
    else:
        x = np.add(a, b, out=work[2])
        x *= e
        a *= leak[0]
        a += x
        b *= leak[1]
        b += x
    out = apply_t(right[0], a, (work[3], work[2]))
    # the second product goes to whichever of A's and B's arrays it does
    # not read
    free = work[1] if b is a else work[0]
    out += apply_t(right[1], b, (free, work[2]))
    return out


def run_protocol(rho0: np.ndarray | None, cfg: ProtocolConfig,
                 c: CouplingSet) -> Trajectory:
    """Evolve rho0, or the maximally mixed start when it is None, through
    up to cfg.measurements successful rounds.

    Each round applies the reduced evolve/dephase/project map of the module
    docstring matrix free on the fused factors (_round), then divides by
    its p; with dephasing off that map is rho <- V rho V^dag / p. A round
    whose p is below EXTINCTION_FLOOR ends the trajectory before it, which
    then has fewer than cfg.measurements steps. The kernel keeps rho
    Hermitian to rounding (|rho - rho^dag| <= 2.3e-17 over the N=10 dimer
    chain's 100 rounds), so rounds only divide; final_rho makes the state
    exactly Hermitian. An even bath runs in magic_basis, in real
    arithmetic when rho0 is real there (module docstring): the mixed start
    is I/d in every basis, so it is built there, real, and its memory is
    checked for real matrices. The Trajectory keeps the final state in the
    run's basis; its final_rho is in the product basis.
    """
    cfg.require_omega_of(c)
    n = c.n_spins
    basis = magic_basis(n)
    require_dense_memory(n, real=rho0 is None and basis is not None)
    left = _branch_factors(c, cfg.tau, cfg.alpha, cfg.beta, basis)
    right = tuple([f.conj() for f in factors] for factors in left)
    e = np.exp(-cfg.dephasing_rate * cfg.effective_readout_time)
    # s/|alpha|^2 and s/|beta|^2; a branch of weight 0 has zero factors
    s = 0.5 * (1.0 - e)
    leak = tuple(s / w if w > 0 else 0.0
                 for w in (abs(cfg.alpha) ** 2, abs(cfg.beta) ** 2))
    if rho0 is None:
        rho = np.eye(2**n, dtype=complex if basis is None else float) / 2**n
    else:
        rho = _to_magic(rho0, basis)  # a copy the Trajectory does not share
        del rho0                      # frees a caller's temporary start
    # the rounds reuse these arrays: fresh ones every round would have the
    # allocator return their pages and fault them in again
    work = [np.empty_like(rho) for _ in range(4)]
    cond, purs = [], []
    for _ in range(cfg.measurements):
        out = _round(rho, left, right, e, leak, work)
        p = float(np.real(np.trace(out)))
        if not p >= EXTINCTION_FLOOR:
            break
        out /= p
        work[3], rho = rho, out
        cond.append(p)
        purs.append(purity(rho))
    return Trajectory(
        conditional_p=np.array(cond),
        cumulative_p=np.cumprod(cond),
        purity=np.array(purs),
        state=rho,
        basis=basis,
    )
