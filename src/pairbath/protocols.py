"""Pulse-sequence verification and sensing demonstrations.

The verification sequence is an XY-framed CPMG train on the central spin,

    X_{pi/2} - [ U(tau_v) - Y_pi - U(tau_v) ]^m - X_{-pi/2},

central spin starting in |0>. Because the pi pulses swap the two branch
evolutions deterministically, the sequence explores exactly two bath
paths, and for product bath states the flip probability factorizes:

    P_flip = 1/2 (1 - Re prod_blocks Tr[rho_block A1^dag A0])

with per-spin path operators accumulated as (A1, A0) <- (X A0, Y A1),
X = U+ U-, Y = U- U+. One pass of that recurrence gives A1^dag A0 for
every block count up to m, so a verification curve costs one recurrence
per spin. The same engine drives the multi-species
spectroscopy scan; singlet pairs with identical couplings contribute
det(A1^dag A0) = 1 and are exactly invisible to the probe, which is what
makes paired baths better sensors.

Pulse rotations use the half-angle convention R = cos(theta/2) 1
- i sin(theta/2) sigma, under which the empty-bath sequence is an exact
echo (flip probability 0 for every m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import phased_singlet
from .spin_core import CouplingSet, single_spin_propagators

# default flip threshold for m*: sin^2(1 rad), the point where the
# accumulated conditional rotation reaches unit phase
FLIP_THRESHOLD = np.sin(1.0) ** 2

PREPARATIONS = ("mixed", "polarized", "paired", "unpolarized")


@dataclass(frozen=True)
class SpeciesGroup:
    """Bath spins sharing one Larmor frequency and one preparation tag."""

    omega: float
    g_vectors: np.ndarray
    preparation: str = "mixed"

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.g_vectors, dtype=float))
        if g.shape[1] != 3:
            raise ValueError(f"g_vectors must be (n, 3), got {g.shape}")
        if self.preparation not in PREPARATIONS:
            raise ValueError(f"unknown preparation {self.preparation!r}")
        if self.preparation == "paired" and g.shape[0] % 2 != 0:
            raise ValueError("paired preparation needs an even spin count")
        object.__setattr__(self, "g_vectors", g)

    @property
    def n_spins(self) -> int:
        return self.g_vectors.shape[0]


@dataclass(frozen=True)
class SpeciesBath:
    groups: tuple

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("species bath needs at least one group")

    def spins(self) -> list:
        """Flat [(g_vector, omega)] list over all groups."""
        out = []
        for grp in self.groups:
            out.extend((g, grp.omega) for g in grp.g_vectors)
        return out


# ---------------------------------------------------------------------------
# path-operator engine
# ---------------------------------------------------------------------------

_MIXED2 = np.eye(2, dtype=complex) / 2
_ZUP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_XPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def _path_operators(g, omega, tau, m):
    """A1^dag A0 after each block count k = 0..m, as an (m + 1, 2, 2) stack
    indexed by k."""
    pair = single_spin_propagators(g, omega, tau)
    x = pair.u_plus @ pair.u_minus
    y = pair.u_minus @ pair.u_plus
    a1 = np.empty((m + 1, 2, 2), dtype=complex)
    a0 = np.empty_like(a1)
    a1[0] = a0[0] = np.eye(2)
    for k in range(m):
        np.matmul(x, a0[k], out=a1[k + 1])
        np.matmul(y, a1[k], out=a0[k + 1])
    return a1.conj().transpose(0, 2, 1) @ a0


def _blocks_for(group: SpeciesGroup, offset: int) -> list:
    """(kind, rho, indices) blocks realizing the group's preparation."""
    tag = group.preparation
    if tag == "paired":
        sing = phased_singlet(0.0)
        rho4 = np.outer(sing, sing.conj())
        return [("pair", rho4, offset + 2 * p, offset + 2 * p + 1)
                for p in range(group.n_spins // 2)]
    rho2 = {"mixed": _MIXED2, "polarized": _ZUP, "unpolarized": _XPLUS}[tag]
    return [("one", rho2, offset + k) for k in range(group.n_spins)]


def _bath_blocks(groups) -> list:
    """Blocks of consecutive groups, indexed into the flat spin list."""
    blocks = []
    off = 0
    for grp in groups:
        blocks.extend(_blocks_for(grp, off))
        off += grp.n_spins
    return blocks


def _block_overlap(blocks: list, ops: list) -> complex:
    """prod over blocks of Tr[rho_block op_block], where a pair block's
    operator is the Kronecker product of its two spins' operators."""
    ov = 1.0 + 0.0j
    for blk in blocks:
        if blk[0] == "one":
            ov *= np.trace(blk[1] @ ops[blk[2]])
        else:
            ov *= np.trace(blk[1] @ np.kron(ops[blk[2]], ops[blk[3]]))
    return ov


def _flip(blocks: list, ops: list) -> float:
    """Flip probability 1/2 (1 - Re prod_blocks Tr[rho_block op_block])."""
    return float(0.5 * (1.0 - np.real(_block_overlap(blocks, ops))))


def sequence_flip_probability(spins: list, blocks: list, m: int, tau: float) -> float:
    """Central-spin flip probability after the m-block CPMG train.

    spins: [(g_vector, omega)] per bath spin; blocks assign each spin (or
    consecutive pair) its initial state. Exact for any product of
    single-spin and pair states.
    """
    return _flip(blocks, [_path_operators(g, om, tau, m)[m] for g, om in spins])


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationResult:
    curve: np.ndarray
    m_star: int | None
    reached: bool
    max_probability: float
    threshold: float
    tau_v: float

    @property
    def status(self) -> str:
        return "reached" if self.reached else "not reached"


def verification_scan(g1: float, g2: float, omega: float,
                      tau_v: float | None = None, m_max: int = 50,
                      preparation: str = "unpolarized",
                      threshold: float = FLIP_THRESHOLD) -> VerificationResult:
    """Scan the CPMG train length m = 1..m_max on the two-spin bath
    H = S^z (g1 Ix_1 + g2 Ix_2) + omega (Iz_1 + Iz_2).

    m* is the first m whose flip probability exceeds the threshold; the
    full curve is returned either way. tau_v defaults to pi/(4 omega),
    the first decoupling resonance of the Larmor precession (period
    pi/omega under the Pauli convention). The singlet bath flips in
    m ~ omega/|g1 - g2| trains while the unpolarized reference needs only
    m ~ omega/sqrt(g1^2 + g2^2), so identical couplings leave the singlet
    dark at any m.
    """
    if omega <= 0:
        raise ValueError(f"verification needs omega > 0, got {omega}")
    if tau_v is None:
        tau_v = np.pi / (4.0 * omega)
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if tau_v <= 0:
        raise ValueError(f"tau_v must be > 0, got {tau_v}")
    # "singlet" names the paired preparation of the two-spin bath
    group = SpeciesGroup(omega, [[g1, 0.0, 0.0], [g2, 0.0, 0.0]],
                         "paired" if preparation == "singlet" else preparation)
    blocks = _blocks_for(group, 0)

    ops = [_path_operators(g, omega, tau_v, m_max) for g in group.g_vectors]
    curve = np.array([_flip(blocks, [op[m] for op in ops])
                      for m in range(1, m_max + 1)])
    above = np.nonzero(curve > threshold)[0]
    if above.size:
        m_star = int(above[0] + 1)
        return VerificationResult(curve, m_star, True, float(curve.max()),
                                  threshold, tau_v)
    return VerificationResult(curve, None, False, float(curve.max()),
                              threshold, tau_v)


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def coherence_trace(bath_state, c, t_grid) -> np.ndarray:
    """|Tr[U-(t)^dag U+(t) rho_bath]| on the grid; the central spin is
    prepared in (|1> + |-1>)/sqrt(2) and this is its off-diagonal decay
    envelope. L(0) = 1 exactly.

    bath_state: a preparation tag from PREPARATIONS applied to every group,
    or None to use each group's own tag. c: CouplingSet or SpeciesBath.
    """
    if bath_state is not None and not isinstance(bath_state, str):
        raise ValueError(f"bath_state must be None or a preparation tag from "
                         f"{PREPARATIONS}, got {type(bath_state).__name__}")
    if isinstance(c, SpeciesBath):
        groups = c.groups
        if bath_state is not None:
            groups = tuple(SpeciesGroup(grp.omega, grp.g_vectors, bath_state)
                           for grp in groups)
    elif bath_state is None:
        raise ValueError("a CouplingSet carries no preparation, pass a tag")
    else:
        groups = (SpeciesGroup(c.omega, c.g_vectors, bath_state),)
    spins = SpeciesBath(groups).spins()
    blocks = _bath_blocks(groups)
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.empty(len(t_grid))
    for it, t in enumerate(t_grid):
        pairs = [single_spin_propagators(g, om, t) for g, om in spins]
        ops = [p.u_minus.conj().T @ p.u_plus for p in pairs]
        out[it] = abs(_block_overlap(blocks, ops))
    return out


# ---------------------------------------------------------------------------
# spectroscopy
# ---------------------------------------------------------------------------

@dataclass
class SpectroscopyScan:
    tau_grid: np.ndarray
    signal: np.ndarray
    m: int


def spectroscopy_scan(species: SpeciesBath, tau_grid, m: int = 16) -> SpectroscopyScan:
    """Central-spin transition probability after the m-block CPMG train,
    as a function of the interrogation time tau, for the bath as prepared
    in the species group tags."""
    spins = species.spins()
    blocks = _bath_blocks(species.groups)
    tau_grid = np.asarray(tau_grid, dtype=float)
    signal = np.array([sequence_flip_probability(spins, blocks, m, t)
                       for t in tau_grid])
    return SpectroscopyScan(tau_grid, signal, m)


def find_local_maxima(x: np.ndarray, y: np.ndarray, prominence: float = 0.05) -> list:
    """Interior local maxima that rise at least `prominence` above the
    lowest level on both sides. Returns [(x_i, y_i)] in x order."""
    out = []
    for i in range(1, len(y) - 1):
        if y[i] >= y[i - 1] and y[i] >= y[i + 1] and (y[i] > y[i - 1] or y[i] > y[i + 1]):
            drop = y[i] - max(y[:i].min(), y[i + 1:].min())
            if drop >= prominence:
                out.append((float(x[i]), float(y[i])))
    return out


def resolves_side_features(scan: SpectroscopyScan, omega: float, eps: float,
                           position_tol: float = 0.02,
                           prominence: float = 0.05) -> bool:
    """True when the scan shows exactly two prominent maxima, one within
    position_tol (relative) of each side-species resonance pi/(4(omega+-eps))."""
    peaks = find_local_maxima(scan.tau_grid, scan.signal, prominence)
    if len(peaks) != 2:
        return False
    targets = sorted((np.pi / (4.0 * (omega + eps)), np.pi / (4.0 * (omega - eps))))
    found = sorted(p[0] for p in peaks)
    return all(abs(f - t) / t <= position_tol for f, t in zip(found, targets))
