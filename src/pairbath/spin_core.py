"""Geometry, couplings, and exact per-spin branch propagators.

The central spin sits at the origin with quantization axis z. Each bath
spin k couples through a vector g_k, and the conditional evolution splits
into two branches generated by

    H_pm = sum_k (omega * I_z^k +- g_k . I^k)

with the I operators represented as Pauli matrices (eigenvalues +-1).
Each branch factorizes over spins, so a 2x2 propagator pair per spin
and dwell time is all the downstream engines ever need:

    U_pm = exp(+i (omega z_hat +- g_k) . sigma * tau)
         = cos(d tau) 1 + i sin(d tau) (n_hat . sigma),   d = |omega z_hat +- g_k|

The rotation axis is branch dependent; using the exact axis keeps the
propagators unitary for arbitrary coupling orientations, not just
transverse ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ZHAT = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class SpinGeometry:
    """Positions of the bath spins, in nanometers, central spin at the origin."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError(f"positions must be (N, 3) with N >= 1, got shape {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        radii = np.linalg.norm(pos, axis=1)
        bad = np.nonzero(radii == 0.0)[0]
        if bad.size:
            raise ValueError(f"bath spin {bad[0]} sits at the origin (r=0)")
        object.__setattr__(self, "positions", pos)

    @property
    def n_spins(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class CouplingSet:
    """Coupling vectors g_k (rad/s) plus the shared Larmor frequency omega."""

    g_vectors: np.ndarray
    omega: float

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.g_vectors, dtype=float))
        if g.ndim != 2 or g.shape[1] != 3 or g.shape[0] < 1:
            raise ValueError(f"g_vectors must be (N, 3) with N >= 1, got shape {g.shape}")
        if not (np.all(np.isfinite(g)) and np.isfinite(self.omega)):
            raise ValueError("couplings and omega must be finite")
        object.__setattr__(self, "g_vectors", g)
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def n_spins(self) -> int:
        return self.g_vectors.shape[0]


def chain_geometry(n: int, spacing: float, z0: float, x0: float = 0.0) -> SpinGeometry:
    """Linear chain along x at height z0: x_k = x0 + k*spacing, k = 0..n-1."""
    xs = x0 + spacing * np.arange(n)
    return SpinGeometry(np.column_stack([xs, np.zeros(n), np.full(n, z0)]))


def dimer_chain_geometry(n_pairs: int, pair_spacing: float, dimer_gap: float,
                         z0: float, x0: float = 0.0) -> SpinGeometry:
    """Chain of close pairs: pair j centered at x0 + j*pair_spacing, members
    split by dimer_gap. Small gap-to-spacing ratio makes partners nearly
    identical while keeping pairs distinguishable from each other."""
    pos = []
    for j in range(n_pairs):
        c = x0 + j * pair_spacing
        pos.append([c - dimer_gap / 2, 0.0, z0])
        pos.append([c + dimer_gap / 2, 0.0, z0])
    return SpinGeometry(np.array(pos))


def plane_geometry(n: int, box: tuple[float, float, float, float], z0: float,
                   seed: int) -> SpinGeometry:
    """n spins uniformly random in the x-y rectangle (xlo, xhi, ylo, yhi) at height z0."""
    xlo, xhi, ylo, yhi = box
    if not (xhi > xlo and yhi > ylo):
        raise ValueError(f"empty box {box}")
    rng = np.random.default_rng(seed)
    xy = np.column_stack([rng.uniform(xlo, xhi, n), rng.uniform(ylo, yhi, n)])
    return SpinGeometry(np.column_stack([xy, np.full(n, z0)]))


def dipolar_couplings(geom: SpinGeometry, prefactor: float = 1.0,
                      omega: float = 0.0) -> CouplingSet:
    """Secular dipolar field of the z-polarized central spin at each bath site.

    g_k = (prefactor / r_k^3) * (3 (z_hat . r_hat_k) r_hat_k - z_hat)

    The magnitude scales as sqrt(3 cos^2 theta + 1) / r^3 and the transverse
    fraction peaks at theta = 45 deg, which is what makes pairing geometry
    sensitive.
    """
    pos = geom.positions
    radii = np.linalg.norm(pos, axis=1)
    rhat = pos / radii[:, None]
    cos_t = rhat[:, 2]
    g = (prefactor / radii**3)[:, None] * (3.0 * cos_t[:, None] * rhat - ZHAT)
    return CouplingSet(g, omega)


def branch_propagators(g_vectors, omega, tau) -> tuple[np.ndarray, np.ndarray]:
    """U+ and U- of every spin at every dwell time.

    g_vectors is (n, 3), omega a scalar or one value per spin, tau a scalar
    or an array of finite times >= 0. Each result has shape
    np.shape(tau) + (n, 2, 2):
    U_pm = cos(d_pm tau) 1 + i sin(d_pm tau) (n_hat_pm . sigma) with
    n_pm = omega z_hat +- g_k and d_pm = |n_pm|. A zero field has a zero
    axis, so it gives the identity at any tau, as tau = 0 does for any field.
    """
    tau = np.asarray(tau, dtype=float)
    ok = np.isfinite(tau) & (tau >= 0)
    if not np.all(ok):
        raise ValueError(f"tau must be finite and >= 0, got {tau[~ok].flat[0]}")
    g = np.asarray(g_vectors, dtype=float).reshape(-1, 3)
    field = np.zeros_like(g)
    field[:, 2] = omega
    out = []
    for sign in (1.0, -1.0):
        n = field + sign * g
        # |n| by a dot product, rounded as np.linalg.norm rounds one vector
        d = np.sqrt((n[:, None, :] @ n[:, :, None])[:, 0, 0])
        nx, ny, nz = (n / np.where(d > 0, d, 1.0)[:, None]).T
        ang = tau[..., None] * d
        c, s = np.cos(ang), np.sin(ang)
        u = np.empty(ang.shape + (2, 2), dtype=complex)
        u[..., 0, 0] = c + 1j * (s * nz)
        u[..., 0, 1] = s * ny + 1j * (s * nx)
        u[..., 1, 0] = -(s * ny) + 1j * (s * nx)
        u[..., 1, 1] = c - 1j * (s * nz)
        out.append(u)
    return out[0], out[1]


def effective_coupling(c: CouplingSet) -> float:
    """g_eff = sqrt(mean |g_k|^2), the natural frequency unit of the bath."""
    return float(np.sqrt(np.mean(np.sum(c.g_vectors**2, axis=1))))


def optimal_params(c: CouplingSet) -> tuple[float, float]:
    """Heuristically optimal (omega, tau) for purification:

    omega = (1/2N) sum_k sum_l |g_k^l|,  tau = 1/omega.
    """
    total = np.abs(c.g_vectors).sum()
    if total == 0.0:
        raise ValueError("optimal_params undefined for all-zero couplings")
    omega = total / (2 * c.n_spins)
    return float(omega), float(1.0 / omega)
