import numpy as np
import pytest

from pairbath.spin_core import CouplingSet, branch_propagators
from pairbath.dynamics_dense import (
    ProtocolConfig,
    build_V,
    maximally_mixed,
    pair_rdm,
    purity,
    run_protocol,
)
from pairbath.dynamics_factored import (
    extend,
    from_product_state,
    mixed_state_monte_carlo,
    reduced_density_matrix,
    run_factored,
    success_probability,
)


def _rand_product(rng, n):
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _dense_vector(states):
    psi = np.eye(1, dtype=complex).ravel()
    for s in states:
        psi = np.kron(psi, s)
    return psi


def test_from_product_state_shape_and_validation():
    ens = from_product_state([[1, 0], [0, 1], [1, 1]])
    assert ens.n_branches == 1
    assert ens.n_spins == 3
    assert np.abs(ens.grams - 1.0).max() < 1e-14  # normalized inputs
    with pytest.raises(ValueError, match=r"\(N, 2\)"):
        from_product_state([[1, 0, 0]])
    with pytest.raises(ValueError, match="zero-norm"):
        from_product_state([[0, 0]])


def test_extend_single_round_weights():
    c = CouplingSet(np.array([[0.3, -0.2, 0.9]]), 1.1)
    up, um = branch_propagators(c.g_vectors, c.omega, 0.4)
    ens = from_product_state([[1, 0]])
    ens = extend(ens, up, um, 2**-0.5, 2**-0.5)
    assert ens.n_branches == 2
    assert np.allclose(ens.weights, [0.5, 0.5])
    assert np.abs(ens.vectors[0, 0] - up[0][:, 0]).max() < 1e-14
    assert np.abs(ens.vectors[1, 0] - um[0][:, 0]).max() < 1e-14
    with pytest.raises(ValueError, match="for 1 spins"):
        extend(ens, up[[0, 0]], um[[0, 0]], 2**-0.5, 2**-0.5)


def test_longitudinal_norm_closed_form():
    # g along z, omega = 0, |z+> input: every round multiplies the
    # conditional amplitude by cos(g tau), so P_m = cos^{2m}(g tau)
    g, tau = 0.8, 0.5
    c = CouplingSet(np.array([[0.0, 0.0, g]]), 0.0)
    cfg = ProtocolConfig(omega=0.0, tau=tau, measurements=7)
    _, probs = run_factored([[1, 0]], cfg, c)
    want = np.cos(g * tau) ** (2 * np.arange(1, 8))
    assert np.abs(probs - want).max() < 1e-12


def test_factored_matches_dense():
    rng = np.random.default_rng(30)
    n, m = 3, 5
    c = CouplingSet(rng.normal(0, 1.2, (n, 3)), 1.4)
    tau = 0.38
    states = _rand_product(rng, n)
    cfg = ProtocolConfig(omega=1.4, tau=tau, measurements=m)
    ens, probs = run_factored(states, cfg, c)

    psi = _dense_vector(states)
    rho = np.outer(psi, psi.conj())
    traj = run_protocol(rho, cfg, c)
    assert np.abs(probs - traj.cumulative_p).max() < 1e-12
    for i in range(n):
        for j in range(i + 1, n):
            got = reduced_density_matrix(ens, i, j)
            want = pair_rdm(traj.final_rho, n, i, j)
            assert np.abs(got - want).max() < 1e-12


def test_gram_cache_matches_scratch():
    rng = np.random.default_rng(32)
    n = 4
    c = CouplingSet(rng.normal(0, 1.0, (n, 3)), 2.0)
    up, um = branch_propagators(c.g_vectors, c.omega, 0.55)
    ens = from_product_state(_rand_product(rng, n))
    for _ in range(5):
        ens = extend(ens, up, um, 0.6, 0.8)
    # recompute every per-spin Gram from the branch vectors directly
    for k in range(n):
        vk = ens.vectors[:, k, :]
        scratch = vk.conj() @ vk.T
        assert np.abs(ens.grams[k] - scratch).max() < 1e-12


def test_success_probability_large_ensemble_blocked():
    # push past the reduction block size (256) and check against the plain
    # full bilinear form
    rng = np.random.default_rng(33)
    c = CouplingSet(rng.normal(0, 0.8, (2, 3)), 1.0)
    cfg = ProtocolConfig(omega=1.0, tau=0.42, measurements=9)  # 512 branches
    ens, probs = run_factored(_rand_product(rng, 2), cfg, c)
    assert ens.n_branches == 512
    prod = np.ones((512, 512), dtype=complex)
    for k in range(2):
        prod *= ens.grams[k]
    plain = np.real(ens.weights.conj() @ prod @ ens.weights)
    assert abs(probs[-1] - plain) < 1e-12
    assert probs[-1] >= 0


def test_rdm_before_any_round_is_product():
    rng = np.random.default_rng(34)
    states = _rand_product(rng, 3)
    ens = from_product_state(states)
    got = reduced_density_matrix(ens, 0, 2)
    psi = np.kron(states[0], states[2])
    assert np.abs(got - np.outer(psi, psi.conj())).max() < 1e-13
    with pytest.raises(ValueError, match="distinct"):
        reduced_density_matrix(ens, 1, 1)


def test_monte_carlo_error_shrinks_as_sqrt_samples():
    rng = np.random.default_rng(31)
    c = CouplingSet(rng.normal(0, 1.1, (4, 3)), 1.8)
    cfg = ProtocolConfig(omega=1.8, tau=0.45, measurements=6)
    traj = run_protocol(maximally_mixed(4), cfg, c)
    exact = traj.cumulative_p[-1]
    errs = {}
    for r in (100, 1000, 10000):
        res = mixed_state_monte_carlo(c, cfg, samples=r, seed=7)
        errs[r] = abs(res.success_probability[-1] - exact)
    # fixed seeds; observed C in err = C/sqrt(R) is 2e-3..4e-3, bound at 5x
    for r, e in errs.items():
        assert e < 0.02 / np.sqrt(r), (r, e)
    assert errs[10000] < errs[100]


def test_monte_carlo_rdm_and_purity_estimates():
    rng = np.random.default_rng(31)
    c = CouplingSet(rng.normal(0, 1.1, (4, 3)), 1.8)
    cfg = ProtocolConfig(omega=1.8, tau=0.45, measurements=6)
    traj = run_protocol(maximally_mixed(4), cfg, c)
    want_rdm = pair_rdm(traj.final_rho, 4, 0, 1)
    res = mixed_state_monte_carlo(c, cfg, samples=1000, seed=7, pair_list=[(0, 1)])
    assert np.abs(res.pair_rdms[(0, 1)] - want_rdm).max() < 2e-2
    assert abs(res.purity_estimate - purity(traj.final_rho)) < 0.05


def test_monte_carlo_single_unitary_sample():
    # beta = 0 keeps each trajectory unitary: the one sample is exact
    c = CouplingSet(np.array([[0.7, -0.4, 0.2], [0.1, 0.3, -0.6]]), 1.3)
    cfg = ProtocolConfig(omega=1.3, tau=0.5, measurements=4, alpha=1.0, beta=0.0)
    res = mixed_state_monte_carlo(c, cfg, samples=1, seed=3)
    assert np.abs(res.success_probability - 1.0).max() < 1e-12
    assert np.isnan(res.purity_estimate)  # cross-sample estimate needs >= 2


def test_monte_carlo_fixed_seed_reproducible():
    rng = np.random.default_rng(36)
    c = CouplingSet(rng.normal(0, 1.0, (3, 3)), 0.9)
    cfg = ProtocolConfig(omega=0.9, tau=0.6, measurements=5)
    a = mixed_state_monte_carlo(c, cfg, samples=40, seed=11, pair_list=[(0, 2)])
    b = mixed_state_monte_carlo(c, cfg, samples=40, seed=11, pair_list=[(0, 2)])
    assert np.array_equal(a.success_probability, b.success_probability)
    assert np.array_equal(a.pair_rdms[(0, 2)], b.pair_rdms[(0, 2)])
    assert a.purity_estimate == b.purity_estimate
    # a different seed must actually change the draw
    d = mixed_state_monte_carlo(c, cfg, samples=40, seed=12, pair_list=[(0, 2)])
    assert not np.array_equal(a.success_probability, d.success_probability)


def test_monte_carlo_z_basis_unbiased():
    # +-z sampling also averages to the mixed state; check against dense
    rng = np.random.default_rng(37)
    c = CouplingSet(rng.normal(0, 1.0, (3, 3)), 1.6)
    cfg = ProtocolConfig(omega=1.6, tau=0.5, measurements=4)
    traj = run_protocol(maximally_mixed(3), cfg, c)
    res = mixed_state_monte_carlo(c, cfg, samples=4000, seed=9, basis="z")
    err = abs(res.success_probability[-1] - traj.cumulative_p[-1])
    # z draws carry more variance than Haar on this observable; seed-fixed
    # error observed at 3.3e-4, bound with ~5x headroom
    assert err < 0.1 / np.sqrt(4000)
    with pytest.raises(ValueError, match="basis"):
        mixed_state_monte_carlo(c, cfg, samples=10, seed=0, basis="y")
