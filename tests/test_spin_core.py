import numpy as np
import pytest
from scipy.linalg import expm

from pairbath.spin_core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CouplingSet,
    SpinGeometry,
    branch_propagators,
    chain_geometry,
    dimer_chain_geometry,
    dipolar_couplings,
    effective_coupling,
    optimal_params,
    plane_geometry,
)


def _sigma_dot(v):
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def _expm_pair(g, omega, tau):
    """Independent oracle: U_pm = expm(+i (omega z +- g).sigma tau)."""
    zhat = np.array([0.0, 0.0, 1.0])
    return (expm(1j * tau * _sigma_dot(omega * zhat + g)),
            expm(1j * tau * _sigma_dot(omega * zhat - g)))


def test_propagators_unitary():
    rng = np.random.default_rng(3)
    g = rng.normal(0, 2.0, (20, 3))
    omega = rng.uniform(0, 10, 20)
    tau = rng.uniform(0, 2.0, 10)
    for u in branch_propagators(g, omega, tau):
        assert u.shape == (10, 20, 2, 2)
        uu = u.conj().swapaxes(-1, -2) @ u
        assert np.abs(uu - np.eye(2)).max() < 1e-12


def test_propagators_match_matrix_exponential():
    # a tau grid times spins with one omega each, a zero field (d = 0 on
    # both branches) and tau = 0 among them
    rng = np.random.default_rng(4)
    g = rng.normal(0, 1.5, (6, 3))
    omega = rng.uniform(0, 6, 6)
    g[2], omega[2] = 0.0, 0.0
    tau = np.concatenate([[0.0], rng.uniform(0.01, 1.5, 8)]).reshape(3, 3)
    up, um = branch_propagators(g, omega, tau)
    assert up.shape == um.shape == (3, 3, 6, 2, 2)
    for idx in np.ndindex(tau.shape):
        for k in range(6):
            want_p, want_m = _expm_pair(g[k], omega[k], tau[idx])
            assert np.abs(up[idx][k] - want_p).max() < 1e-12
            assert np.abs(um[idx][k] - want_m).max() < 1e-12
    # a scalar tau and a shared omega drop the grid axes
    up1, um1 = branch_propagators(g, 2.5, 0.7)
    assert up1.shape == (6, 2, 2)
    for k in range(6):
        want_p, want_m = _expm_pair(g[k], 2.5, 0.7)
        assert np.abs(up1[k] - want_p).max() < 1e-12
        assert np.abs(um1[k] - want_m).max() < 1e-12


def test_transverse_coupling_branches_share_frequency():
    # with g in the x-y plane, |omega z + g| = |omega z - g|, so the two
    # branches are rotations by the same angle about mirrored axes
    g = np.array([[0.8, -0.5, 0.0]])
    up, um = branch_propagators(g, 2.0, 0.6)
    assert abs(np.trace(up[0]) - np.trace(um[0])) < 1e-12  # equal cos(d tau)
    flipped, _ = branch_propagators(-g, 2.0, 0.6)
    assert np.abs(um - flipped).max() < 1e-12


def test_degenerate_inputs_give_identity():
    eye = np.eye(2)
    up, um = branch_propagators([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [2.0, 0.0],
                                [0.0, 1.3])
    # tau = 0 for any field, and a zero field at any tau, exactly
    for u in (up, um):
        assert not np.isnan(u).any()
        assert np.abs(u[0] - eye).max() == 0.0
        assert np.abs(u[1, 1] - eye).max() == 0.0


def test_negative_tau_rejected():
    for tau in (-0.1, [0.0, 0.5, -0.2], np.nan, np.inf, [0.1, np.nan]):
        with pytest.raises(ValueError, match="tau"):
            branch_propagators(np.array([[1.0, 0, 0]]), 1.0, tau)


def test_chain_geometry_positions():
    geom = chain_geometry(3, spacing=2.0, z0=5.0, x0=1.0)
    want = np.array([[1.0, 0, 5.0], [3.0, 0, 5.0], [5.0, 0, 5.0]])
    assert np.abs(geom.positions - want).max() == 0.0
    assert geom.n_spins == 3


def test_dimer_chain_positions():
    geom = dimer_chain_geometry(2, pair_spacing=8.0, dimer_gap=1.0, z0=4.0, x0=10.0)
    xs = geom.positions[:, 0]
    assert np.allclose(xs, [9.5, 10.5, 17.5, 18.5])
    assert np.all(geom.positions[:, 2] == 4.0)


def test_plane_geometry_deterministic_and_in_box():
    box = (-0.9, 0.9, -0.3, 0.7)
    a = plane_geometry(20, box, 1.0, seed=5)
    b = plane_geometry(20, box, 1.0, seed=5)
    assert np.array_equal(a.positions, b.positions)
    assert np.all(a.positions[:, 0] >= box[0]) and np.all(a.positions[:, 0] <= box[1])
    assert np.all(a.positions[:, 1] >= box[2]) and np.all(a.positions[:, 1] <= box[3])
    assert np.all(a.positions[:, 2] == 1.0)
    with pytest.raises(ValueError, match="box"):
        plane_geometry(4, (0.5, -0.5, 0, 1), 1.0, seed=0)


def test_origin_spin_rejected_by_index():
    pos = [[1.0, 0, 0], [0.0, 0.0, 0.0], [0, 1.0, 0]]
    with pytest.raises(ValueError, match="bath spin 1"):
        SpinGeometry(np.array(pos))


def test_dipolar_couplings_axis_cases():
    # on the z axis: 3(z.r)r - z = 2z; in the equatorial plane: -z
    geom = SpinGeometry(np.array([[0, 0, 2.0], [3.0, 0, 0]]))
    c = dipolar_couplings(geom, prefactor=1.0)
    assert np.allclose(c.g_vectors[0], [0, 0, 2.0 / 8.0], atol=1e-14)
    assert np.allclose(c.g_vectors[1], [0, 0, -1.0 / 27.0], atol=1e-14)


def test_dipolar_magnitude_law():
    rng = np.random.default_rng(8)
    pos = rng.normal(0, 3.0, (12, 3))
    geom = SpinGeometry(pos)
    c = dipolar_couplings(geom, prefactor=1.7)
    r = np.linalg.norm(pos, axis=1)
    cos_t = pos[:, 2] / r
    want = 1.7 * np.sqrt(3 * cos_t**2 + 1) / r**3
    got = np.linalg.norm(c.g_vectors, axis=1)
    assert np.abs(got - want).max() < 1e-12


def test_dipolar_prefactor_linear():
    geom = chain_geometry(4, 1.0, 2.0)
    a = dipolar_couplings(geom, prefactor=1.0).g_vectors
    b = dipolar_couplings(geom, prefactor=2.5).g_vectors
    assert np.abs(b - 2.5 * a).max() < 1e-14


def test_effective_coupling_hand_value():
    c = CouplingSet(np.array([[3.0, 0, 0], [0, 4.0, 0]]), 0.0)
    assert abs(effective_coupling(c) - np.sqrt(12.5)) < 1e-14


def test_optimal_params_single_spin():
    c = CouplingSet(np.array([[1.0, -2.0, 0.5]]), 0.0)
    omega, tau = optimal_params(c)
    assert abs(omega - 3.5 / 2) < 1e-14
    assert abs(tau - 2 / 3.5) < 1e-14


def test_optimal_params_homogeneity():
    rng = np.random.default_rng(9)
    g = rng.normal(0, 1, (5, 3))
    o1, t1 = optimal_params(CouplingSet(g, 0.0))
    o2, t2 = optimal_params(CouplingSet(2 * g, 0.0))
    assert abs(o2 - 2 * o1) < 1e-12
    assert abs(t2 - t1 / 2) < 1e-12


def test_optimal_params_all_zero_rejected():
    with pytest.raises(ValueError, match="all-zero"):
        optimal_params(CouplingSet(np.zeros((3, 3)), 0.0))


def test_coupling_set_validation():
    with pytest.raises(ValueError, match="N, 3"):
        CouplingSet(np.zeros((2, 4)), 0.0)
    # an empty bath is rejected here, not as an engine's unrelated error
    with pytest.raises(ValueError, match="N >= 1"):
        CouplingSet(np.zeros((0, 3)), 0.0)
    with pytest.raises(ValueError, match="finite"):
        CouplingSet(np.array([[np.inf, 0, 0]]), 0.0)
