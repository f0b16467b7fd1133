from functools import reduce

import numpy as np
import pytest

from pairbath.spin_core import CouplingSet, branch_propagators
from pairbath.dynamics_dense import (
    ProtocolConfig,
    all_pair_rdms,
    build_V,
    maximally_mixed,
    pair_rdm,
    purity,
    run_protocol,
)
from pairbath.dynamics_factored import (
    _haar_product,
    _zbasis_product,
    apply_left,
    apply_right,
    balanced_bounds,
    build_branch_operators,
    extend,
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


def test_run_factored_input_checks():
    c = CouplingSet(np.array([[0.3, -0.2, 0.9]]), 1.1)
    cfg = ProtocolConfig(omega=1.1, tau=0.4, measurements=2)
    with pytest.raises(ValueError, match=r"\(N, 2\)"):
        run_factored([[1, 0, 0]], cfg, c)
    with pytest.raises(ValueError, match="zero-norm"):
        run_factored([[0, 0]], cfg, c)
    # unnormalized rows are normalized: the same run as the unit vector
    _, scaled = run_factored([[3.0, 4.0j]], cfg, c)
    _, unit = run_factored([[0.6, 0.8j]], cfg, c)
    assert np.abs(scaled - unit).max() < 1e-15


def test_extend_single_round_weights():
    c = CouplingSet(np.array([[0.3, -0.2, 0.9]]), 1.1)
    up, um = branch_propagators(c.g_vectors, c.omega, 0.4)
    start = np.array([[1.0], [0.0]], dtype=complex)
    state = extend(start, *build_branch_operators(c, 0.4, 2**-0.5, 2**-0.5))
    assert state.shape == (2, 1)
    want = 0.5 * up[0][:, 0] + 0.5 * um[0][:, 0]
    assert np.abs(state[:, 0] - want).max() < 1e-15
    assert abs(success_probability(state) - np.vdot(want, want).real) < 1e-15
    with pytest.raises(ValueError, match="dimension 4 for a block of 2 rows"):
        two = CouplingSet(c.g_vectors[[0, 0]], c.omega)
        extend(start, *build_branch_operators(two, 0.4, 2**-0.5, 2**-0.5))


def test_balanced_bounds():
    assert balanced_bounds(16) == [0, 4, 8, 12, 16]
    assert balanced_bounds(10) == [0, 5, 10]
    assert balanced_bounds(7) == [0, 3, 7]
    assert balanced_bounds(7, 1) == list(range(8))
    for n in range(1, 25):
        sizes = np.diff(balanced_bounds(n))
        assert sizes.sum() == n and sizes.max() <= 5
        assert sizes.max() - sizes.min() <= 1 and len(sizes) == -(-n // 5)


def test_fused_application_matches_dense():
    # N = 7 from the left and from the right, with runs of spins cut after
    # 1, 3, 5 and 7 spins, one spin per factor, one factor, and balanced
    rng = np.random.default_rng(38)
    n = 7
    block = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
    rows = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    c = CouplingSet(rng.normal(0, 1.0, (n, 3)), 0.7)
    up, um = branch_propagators(c.g_vectors, c.omega, 0.45)
    dense = (0.36 * reduce(np.kron, up), 0.64 * reduce(np.kron, um))
    for bounds in ([0, 1, 3, 5, 7], list(range(8)), [0, 7], balanced_bounds(n)):
        for factors, op in zip(build_branch_operators(c, 0.45, 0.6, 0.8j, bounds),
                               dense):
            want = op @ block
            got = apply_left(factors, block)
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
            want = rows @ op.conj().T
            got = apply_right(rows, factors)
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    got = extend(block, *build_branch_operators(c, 0.45, 0.6, 0.8j))
    assert np.abs(got - (dense[0] + dense[1]) @ block).max() < 1e-12


def test_one_run_builds_the_dense_operators():
    # bounds [0, N]: one factor per branch, exactly |w|^2 kron(U), which
    # build_V sums
    rng = np.random.default_rng(41)
    n, tau, alpha, beta = 6, 0.37, 0.6, 0.8j
    c = CouplingSet(rng.normal(0, 1.0, (n, 3)), 1.3)
    built = build_branch_operators(c, tau, alpha, beta, [0, n])
    for factors, u, w in zip(built, branch_propagators(c.g_vectors, c.omega, tau),
                             (alpha, beta)):
        assert len(factors) == 1
        assert np.array_equal(factors[0], abs(w) ** 2 * reduce(np.kron, u))
    assert np.array_equal(build_V(c, tau, alpha, beta), built[0][0] + built[1][0])


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


def test_rdm_before_any_round_is_product():
    rng = np.random.default_rng(34)
    states = _rand_product(rng, 3)
    state = _dense_vector(states)[:, None]
    for i, j in ((0, 2), (2, 0)):
        got = reduced_density_matrix(state, i, j)
        psi = np.kron(states[i], states[j])
        assert np.abs(got - np.outer(psi, psi.conj())).max() < 1e-13
    with pytest.raises(ValueError, match="distinct"):
        reduced_density_matrix(state, 1, 1)
    with pytest.raises(ValueError, match="zero norm"):
        reduced_density_matrix(np.zeros_like(state), 0, 1)


def test_cumulative_probability_exact_when_small():
    # one transverse spin with cos^2(tau) = 0.05: V = cos(tau) 1, so every
    # conditional p is 0.05 and P_11 = 0.05^11, below the extinction floor
    c = CouplingSet(np.array([[1.0, 0.0, 0.0]]), 0.0)
    cfg = ProtocolConfig(omega=0.0, tau=1.3452829208967654, measurements=11)
    _, cum = run_factored([[1, 0]], cfg, c)
    assert len(cum) == 11
    assert abs(cum[-1] / 0.05**11 - 1.0) < 1e-12
    cond = cum / np.concatenate([[1.0], cum[:-1]])
    assert np.abs(cond - 0.05).max() < 1e-12


def test_extinct_first_round_returns_start_block():
    # three transverse spins at tau = pi/2: V = 0 up to rounding, so both
    # engines keep no round and return the start state, not rounding noise
    c = CouplingSet(np.array([[1.0, 0.0, 0.0]] * 3), 0.0)
    cfg = ProtocolConfig(omega=0.0, tau=float(np.pi / 2), measurements=3)
    states = _rand_product(np.random.default_rng(39), 3)
    state, cum = run_factored(states, cfg, c)
    assert cum.shape == (0,)
    assert np.array_equal(state[:, 0], _dense_vector(states))
    pairs = [(0, 1), (0, 2), (1, 2)]
    res = mixed_state_monte_carlo(c, cfg, samples=5, seed=4, pair_list=pairs)
    assert res.success_probability.shape == (0,)
    rho0 = _empirical_start(3, 5, seed=4, basis="haar")
    for p in pairs:
        assert np.abs(res.pair_rdms[p] - pair_rdm(rho0, 3, *p)).max() < 1e-12


def _empirical_start(n, samples, seed, basis):
    """(1/R) sum_s |psi_s><psi_s| of the draws mixed_state_monte_carlo makes."""
    draw = _haar_product if basis == "haar" else _zbasis_product
    rho = 0
    for stream in np.random.SeedSequence(seed).spawn(samples):
        psi = _dense_vector(draw(np.random.default_rng(stream), n))
        rho = rho + np.outer(psi, psi.conj())
    return rho / samples


@pytest.mark.parametrize("basis", ["haar", "z"])
def test_monte_carlo_equals_dense_from_its_own_draws(basis):
    rng = np.random.default_rng(40)
    n, samples = 5, 7
    c = CouplingSet(rng.normal(0, 1.0, (n, 3)), 1.2)
    cfg = ProtocolConfig(omega=1.2, tau=0.5, measurements=6)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    res = mixed_state_monte_carlo(c, cfg, samples=samples, seed=13,
                                  pair_list=pairs, basis=basis)
    traj = run_protocol(_empirical_start(n, samples, 13, basis), cfg, c)
    assert traj.steps == 6
    rel = np.abs(res.success_probability / traj.cumulative_p - 1.0)
    assert rel.max() < 1e-12
    want = all_pair_rdms(traj.final_rho, n)
    for p in pairs:
        assert np.abs(res.pair_rdms[p] - want[p]).max() < 1e-12


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
