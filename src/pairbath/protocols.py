"""Pulse-sequence verification and sensing demonstrations.

The verification sequence is an XY-framed CPMG train on the central spin,

    X_{pi/2} - [ U(tau_v) - Y_pi - U(tau_v) ]^m - X_{-pi/2},

central spin starting in |0>. Because the pi pulses swap the two branch
evolutions deterministically, the sequence explores exactly two bath
paths, and for product bath states the flip probability factorizes:

    P_flip = 1/2 (1 - Re prod_blocks Tr[rho_block A1^dag A0])

with per-spin path operators accumulated as (A1, A0) <- (X A0, Y A1),
X = U+ U-, Y = U- U+. The recurrence runs on arrays over every spin and
every grid time at once: one pass gives A1^dag A0 for each block count up
to m, which is a whole verification curve, and its last step is a whole
spectroscopy scan. Singlet pairs with identical couplings contribute
det(A1^dag A0) = 1 and are exactly invisible to the probe, which is what
makes paired baths better sensors.

A bath is a SpeciesBath of groups, each prepared as a tag of one table:
a one-spin block state (mixed, polarized, unpolarized) or the singlet
(paired). SpeciesBath.retagged is the one way to re-prepare a bath.

Pulse rotations use the half-angle convention R = cos(theta/2) 1
- i sin(theta/2) sigma, under which the empty-bath sequence is an exact
echo (flip probability 0 for every m).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .analysis import phased_singlet
from .errors import require_memory
from .spin_core import branch_propagators

# default flip threshold for m*: sin^2(1 rad), the point where the
# accumulated conditional rotation reaches unit phase
FLIP_THRESHOLD = np.sin(1.0) ** 2

_SINGLET = phased_singlet(0.0)
# preparation tag -> (block state, spins per block); a group is tiled by blocks
_BLOCK_STATES = {
    "mixed": (np.eye(2, dtype=complex) / 2, 1),
    "polarized": (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), 1),
    "paired": (np.outer(_SINGLET, _SINGLET.conj()), 2),
    "unpolarized": (np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), 1),
}
PREPARATIONS = tuple(_BLOCK_STATES)


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
        if not (np.all(np.isfinite(g)) and np.isfinite(self.omega)):
            raise ValueError("omega and g_vectors must be finite")
        if self.preparation not in PREPARATIONS:
            raise ValueError(f"unknown preparation {self.preparation!r}")
        if g.shape[0] % _BLOCK_STATES[self.preparation][1] != 0:
            raise ValueError(f"{self.preparation} preparation needs an even spin count")
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

    def spins(self) -> tuple[np.ndarray, np.ndarray]:
        """(g (n, 3), omega (n,)) of every spin, groups in order."""
        return (np.concatenate([grp.g_vectors for grp in self.groups]),
                np.concatenate([np.full(grp.n_spins, grp.omega)
                                for grp in self.groups]))

    def retagged(self, tag: str) -> SpeciesBath:
        """The same spins with every group prepared as tag."""
        return SpeciesBath(tuple(replace(grp, preparation=tag) for grp in self.groups))


# ---------------------------------------------------------------------------
# path-operator engine
# ---------------------------------------------------------------------------

# grid + (n, 2, 2) arrays at the recurrence's peak: U+-, X, Y, A1, A0, 2 products
GRID_ARRAYS = 8


def require_grid_memory(points: int, n_spins: int) -> None:
    """Raise CapacityError if the path operators of a grid would not fit in
    physical memory."""
    require_memory(GRID_ARRAYS * 64 * points * n_spins,
                   f"the path operators of {points} grid points on {n_spins} spins",
                   "use fewer grid points")


def _grid_propagators(species: SpeciesBath, grid) -> tuple[np.ndarray, np.ndarray]:
    """U+ and U- of every spin at every grid time, type and memory checked first."""
    if not isinstance(species, SpeciesBath):
        raise ValueError(f"species must be a SpeciesBath, got "
                         f"{type(species).__name__}")
    g, omega = species.spins()
    require_grid_memory(np.size(grid), len(g))
    return branch_propagators(g, omega, grid)


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _path_operators(up: np.ndarray, um: np.ndarray, m: int):
    """Yield (A1, A0) after each block count k = 0..m, over whatever
    leading axes U+ and U- carry; only the running pair is kept."""
    x, y = up @ um, um @ up
    a1 = a0 = np.broadcast_to(np.eye(2, dtype=complex), x.shape)
    yield a1, a0
    for _ in range(m):
        a1, a0 = x @ a0, y @ a1
        yield a1, a0


def _blocks_for(group: SpeciesGroup, offset: int) -> list:
    """(rho, spins) blocks realizing the group's preparation: its block
    state on each run of consecutive spins of the block's width."""
    rho, width = _BLOCK_STATES[group.preparation]
    return [(rho, tuple(range(k, k + width)))
            for k in range(offset, offset + group.n_spins, width)]


def _bath_blocks(groups) -> list:
    """Blocks of consecutive groups, indexed into the flat spin list."""
    offsets = np.cumsum([0] + [grp.n_spins for grp in groups])
    return [blk for grp, off in zip(groups, offsets)
            for blk in _blocks_for(grp, int(off))]


def _block_overlap(blocks: list, ops: np.ndarray) -> np.ndarray:
    """prod over blocks of Tr[rho_block op_block] for operators of shape
    grid + (n, 2, 2), one value per grid point. A pair block's operator is
    the Kronecker product of its two spins' operators."""
    ov = np.ones(ops.shape[:-3], dtype=complex)
    for rho, spins in blocks:
        op = ops[..., spins[0], :, :]
        if len(spins) == 2:
            b = ops[..., spins[1], :, :]
            op = (op[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
                op.shape[:-2] + (4, 4))
        ov = ov * np.trace(rho @ op, axis1=-2, axis2=-1)
    return ov


def _flip(blocks: list, ops: np.ndarray) -> np.ndarray:
    """Flip probability 1/2 (1 - Re prod_blocks Tr[rho_block op_block])."""
    return 0.5 * (1.0 - np.real(_block_overlap(blocks, ops)))


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
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"verification needs a finite omega > 0, got {omega}")
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

    steps = _path_operators(*branch_propagators(group.g_vectors, omega, tau_v), m_max)
    next(steps)   # k = 0
    curve = np.array([_flip(blocks, _dagger(a1) @ a0) for a1, a0 in steps])
    above = np.nonzero(curve > threshold)[0]
    m_star = int(above[0] + 1) if above.size else None
    return VerificationResult(curve, m_star, m_star is not None,
                              float(curve.max()), threshold, tau_v)


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def coherence_trace(bath_state, species: SpeciesBath, t_grid) -> np.ndarray:
    """|Tr[U-(t)^dag U+(t) rho_bath]| on the grid; the central spin is
    prepared in (|1> + |-1>)/sqrt(2) and this is its off-diagonal decay
    envelope. L(0) = 1 exactly.

    bath_state: a preparation tag from PREPARATIONS applied to every group,
    or None to use each group's own tag.
    """
    if bath_state is not None and not isinstance(bath_state, str):
        raise ValueError(f"bath_state must be None or a preparation tag from "
                         f"{PREPARATIONS}, got {type(bath_state).__name__}")
    up, um = _grid_propagators(species, t_grid)     # a retag keeps g and omega
    if bath_state is not None:
        species = species.retagged(bath_state)
    return np.abs(_block_overlap(_bath_blocks(species.groups), _dagger(um) @ up))


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
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    tau_grid = np.asarray(tau_grid, dtype=float)
    steps = _path_operators(*_grid_propagators(species, tau_grid), m)
    a1, a0 = deque(steps, maxlen=1).pop()     # holds no step but the last
    signal = _flip(_bath_blocks(species.groups), _dagger(a1) @ a0)
    return SpectroscopyScan(tau_grid, signal, m)


def find_local_maxima(x: np.ndarray, y: np.ndarray, prominence: float = 0.05) -> list:
    """Interior local maxima that rise at least `prominence` above the
    lowest level on both sides. Returns [(x_i, y_i)] in x order."""
    y = np.asarray(y)
    left, mid, right = y[:-2], y[1:-1], y[2:]
    low = np.maximum(np.minimum.accumulate(y)[:-2],               # min y[:i]
                     np.minimum.accumulate(y[::-1])[::-1][2:])    # min y[i+1:]
    peak = ((mid >= left) & (mid >= right) & ((mid > left) | (mid > right))
            & (mid - low >= prominence))
    return [(float(x[i + 1]), float(y[i + 1])) for i in np.flatnonzero(peak)]


def resolves_side_features(scan: SpectroscopyScan, omega: float, eps: float,
                           position_tol: float = 0.02,
                           prominence: float = 0.05) -> bool:
    """True when the scan shows exactly two prominent maxima, one within
    position_tol (relative) of each side-species resonance pi/(4(omega+-eps)),
    both of which exist only for |eps| < omega."""
    if not abs(eps) < omega:
        raise ValueError(f"side resonances need |epsilon| < omega, got "
                         f"epsilon {eps} with omega {omega}")
    peaks = find_local_maxima(scan.tau_grid, scan.signal, prominence)
    if len(peaks) != 2:
        return False
    targets = sorted((np.pi / (4.0 * (omega + eps)), np.pi / (4.0 * (omega - eps))))
    found = sorted(p[0] for p in peaks)
    return all(abs(f - t) / t <= position_tol for f, t in zip(found, targets))
