import math
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from pairbath.errors import CapacityError, ConfigError
from pairbath.dynamics_factored import EXTINCTION_FLOOR
from pairbath.spin_core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CouplingSet,
    branch_propagators,
    chain_geometry,
    dimer_chain_geometry,
    dipolar_couplings,
    optimal_params,
)
from pairbath.dynamics_dense import (
    DENSE_MATRICES,
    MAGIC,
    REAL_DENSE_MATRICES,
    ProtocolConfig,
    all_pair_rdms,
    apply_projection,
    build_V,
    conditional_operator,
    final_state_by_squaring,
    from_magic,
    magic_basis,
    maximally_mixed,
    pair_rdm,
    purity,
    run_protocol,
)

PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _random_mixed(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _joint_hamiltonian(c: CouplingSet):
    """Dense S^z (x) sum g.sigma + omega sum I_z on the full central+bath space."""
    n = c.n_spins
    dim = 2**n
    h_int = np.zeros((dim, dim), dtype=complex)
    h_bath = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        gk = sum(c.g_vectors[k][a] * PAULI[a] for a in range(3))
        h_int += np.kron(np.kron(np.eye(2**k), gk), np.eye(2 ** (n - k - 1)))
        h_bath += np.kron(np.kron(np.eye(2**k), SIGMA_Z), np.eye(2 ** (n - k - 1)))
    return np.kron(SIGMA_Z, h_int) + c.omega * np.kron(np.eye(2), h_bath)


def _joint_step(c, tau, alpha, beta, rho_b, gamma_d=0.0, t_read=None):
    """Full-space oracle for one round: evolve, optionally dephase, project on phi.

    Returns (rho_bath_normalized, p). Written against the joint channel so the
    reduced per-round update in run_protocol has something independent to match.
    """
    n = c.n_spins
    dim = 2**n
    phi = np.concatenate([alpha * np.eye(1), beta * np.eye(1)]).ravel()
    rho_j = np.kron(np.outer(phi, phi.conj()), rho_b)
    u = expm(1j * tau * _joint_hamiltonian(c))
    rho_j = u @ rho_j @ u.conj().T
    if gamma_d > 0:
        e = np.exp(-gamma_d * (tau if t_read is None else t_read))
        tr_s = rho_j[:dim, :dim] + rho_j[dim:, dim:]
        rho_j = e * rho_j + 0.5 * (1 - e) * np.kron(np.eye(2), tr_s)
    bra = np.kron(phi.conj()[None, :], np.eye(dim))
    out = bra @ rho_j @ bra.conj().T
    p = float(np.real(np.trace(out)))
    return out / p, p


def test_config_validation():
    with pytest.raises(ConfigError, match="measurements"):
        ProtocolConfig(omega=1.0, tau=0.5, measurements=0)
    with pytest.raises(ConfigError, match="alpha"):
        ProtocolConfig(omega=1.0, tau=0.5, measurements=1, alpha=1.0, beta=1.0)
    # a nan norm passed the old check `abs(norm - 1) > 1e-12`, and the run
    # then kept 0 rounds, which read as an extinct run
    for bad in (complex(np.nan), complex(np.nan, 0.5), np.inf, complex(0.5, np.inf)):
        with pytest.raises(ConfigError, match="alpha"):
            ProtocolConfig(omega=1.0, tau=0.5, measurements=1, alpha=bad, beta=0.5)
        with pytest.raises(ConfigError, match="alpha"):
            ProtocolConfig(omega=1.0, tau=0.5, measurements=1, alpha=0.5, beta=bad)
    for rate in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError, match="dephasing_rate"):
            ProtocolConfig(omega=1.0, tau=0.5, measurements=1, dephasing_rate=rate)
    for t_read in (-3.0, 0.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="readout_time"):
            ProtocolConfig(omega=1.0, tau=0.5, measurements=1, dephasing_rate=1.0,
                           readout_time=t_read)


def test_effective_readout_time_defaults_to_tau():
    cfg = ProtocolConfig(omega=1.0, tau=0.7, measurements=1)
    assert cfg.effective_readout_time == 0.7
    cfg = ProtocolConfig(omega=1.0, tau=0.7, measurements=1, readout_time=0.2)
    assert cfg.effective_readout_time == 0.2


def test_build_V_longitudinal_single_spin():
    # g along z, omega = 0: U_pm = exp(+-i g tau sigma_z), so V = cos(g tau) 1
    g = 0.9
    tau = 0.4
    c = CouplingSet(np.array([[0.0, 0.0, g]]), 0.0)
    v = build_V(c, tau)
    assert np.abs(v - np.cos(g * tau) * np.eye(2)).max() < 1e-14


def test_build_V_rejects_non_unit_amplitudes():
    # a nan amplitude used to return an all-nan V
    c = CouplingSet(np.array([[0.3, 0.0, 0.2], [0.1, 0.4, 0.0]]), 1.0)
    for alpha, beta in ((complex(np.nan), 0.5), (0.5, np.nan), (np.inf, 0.0),
                        (1.0, 1.0)):
        with pytest.raises(ConfigError, match="alpha"):
            build_V(c, 0.3, alpha, beta)


def test_run_protocol_rejects_omega_of_another_bath():
    # no engine reads cfg.omega: a mismatch used to run silently at c.omega
    c = CouplingSet(np.array([[0.3, 0.0, 0.2], [0.1, 0.4, 0.0]]), 1.0)
    for omega in (999.0, 1.0 + 1e-9, np.nan):
        cfg = ProtocolConfig(omega=omega, tau=0.3, measurements=2)
        with pytest.raises(ConfigError, match="omega"):
            run_protocol(maximally_mixed(2), cfg, c)
    # an int omega equal to the bath's is the same omega
    cfg = ProtocolConfig(omega=1, tau=0.3, measurements=2)
    assert run_protocol(maximally_mixed(2), cfg, c).steps == 2


def test_build_V_beta_zero_is_unitary():
    rng = np.random.default_rng(12)
    c = CouplingSet(rng.normal(0, 1.5, (3, 3)), 2.0)
    v = build_V(c, 0.6, alpha=1.0, beta=0.0)
    assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-12
    rho = _random_mixed(rng, 8)
    cfg = ProtocolConfig(omega=2.0, tau=0.6, measurements=5, alpha=1.0, beta=0.0)
    traj = run_protocol(rho, cfg, c)
    # unitary conditioning: probability 1 every round, purity frozen
    assert np.abs(traj.conditional_p - 1.0).max() < 1e-12
    assert np.abs(traj.purity - purity(rho)).max() < 1e-12


def test_build_V_matches_joint_oracle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        c = CouplingSet(rng.normal(0, 1.2, (2, 3)), rng.uniform(0, 4))
        tau = rng.uniform(0.05, 1.0)
        alpha, beta = 0.6, 0.8
        rho = _random_mixed(rng, 4)
        v = build_V(c, tau, alpha, beta)
        got = v @ rho @ v.conj().T
        want, p = _joint_step(c, tau, alpha, beta, rho)
        assert np.abs(got / np.trace(got).real - want).max() < 1e-12
        assert abs(np.trace(got).real - p) < 1e-12


def test_apply_projection_identity_operator():
    rng = np.random.default_rng(14)
    rho = _random_mixed(rng, 4)
    out, p = apply_projection(rho, np.eye(4, dtype=complex))
    assert abs(p - 1.0) < 1e-14
    assert np.abs(out - rho).max() < 1e-14


def test_apply_projection_longitudinal_fixed_point():
    # V = cos(g tau) 1: any state is reproduced with p = cos^2(g tau)
    g, tau = 1.1, 0.3
    c = CouplingSet(np.array([[0.0, 0.0, g]]), 0.0)
    v = build_V(c, tau)
    rng = np.random.default_rng(15)
    rho = _random_mixed(rng, 2)
    out, p = apply_projection(rho, v)
    assert abs(p - np.cos(g * tau) ** 2) < 1e-14
    assert np.abs(out - rho).max() < 1e-12


def test_apply_projection_independent_recompute():
    rng = np.random.default_rng(16)
    c = CouplingSet(rng.normal(0, 1.0, (3, 3)), 1.5)
    v = build_V(c, 0.45)
    rho = _random_mixed(rng, 8)
    out, p = apply_projection(rho, v)
    # same quantities with the multiplications grouped differently
    vr = v @ rho
    want_p = float(np.real(np.trace(vr @ v.conj().T)))
    want = (vr @ v.conj().T) / want_p
    assert abs(p - want_p) < 1e-13
    assert np.abs(out - 0.5 * (want + want.conj().T)).max() < 1e-12


def test_apply_projection_extinction():
    # V = 0: p = 0 and no conditional state exists. The floor is the
    # caller's: g transverse at tau = pi/2 gives V = cos(pi/2) 1, p = 3.7e-33
    with pytest.raises(ValueError, match="conditional probability 0.0"):
        apply_projection(maximally_mixed(1), np.zeros((2, 2), dtype=complex))
    c = CouplingSet(np.array([[1.0, 0.0, 0.0]]), 0.0)
    _, p = apply_projection(maximally_mixed(1), build_V(c, np.pi / 2))
    assert 0.0 < p < 1e-30


def test_run_protocol_eigenvector_fixed_point():
    rng = np.random.default_rng(21)
    c = CouplingSet(rng.normal(0, 1.3, (3, 3)), 1.0)
    v = build_V(c, 0.5)
    w, vecs = np.linalg.eig(v)
    top = np.argmax(np.abs(w))
    psi = vecs[:, top]
    rho0 = np.outer(psi, psi.conj())
    cfg = ProtocolConfig(omega=1.0, tau=0.5, measurements=8)
    traj = run_protocol(rho0, cfg, c)
    assert np.abs(traj.conditional_p - np.abs(w[top]) ** 2).max() < 1e-10
    assert np.abs(traj.purity - 1.0).max() < 1e-10
    assert np.abs(traj.final_rho - rho0).max() < 1e-8


def test_run_protocol_cumulative_equals_product_and_trace():
    rng = np.random.default_rng(22)
    c = CouplingSet(rng.normal(0, 1.0, (4, 3)), 2.2)
    tau = 0.37
    rho0 = maximally_mixed(4)
    cfg = ProtocolConfig(omega=2.2, tau=tau, measurements=6)
    traj = run_protocol(rho0, cfg, c)
    assert abs(traj.cumulative_p[-1] - np.prod(traj.conditional_p)) < 1e-12
    v = build_V(c, tau)
    vm = np.linalg.matrix_power(v, 6)
    want = float(np.real(np.trace(vm @ rho0 @ vm.conj().T)))
    assert abs(traj.cumulative_p[-1] - want) < 1e-12


def test_run_protocol_trajectory_invariants():
    rng = np.random.default_rng(23)
    c = CouplingSet(rng.normal(0, 1.1, (3, 3)), 1.7)
    cfg = ProtocolConfig(omega=1.7, tau=0.4, measurements=20)
    traj = run_protocol(maximally_mixed(3), cfg, c)
    assert traj.steps == 20
    assert np.all(np.diff(traj.cumulative_p) <= 1e-15)
    assert np.all(traj.purity >= 2**-3 - 1e-9)
    assert np.all(traj.purity <= 1 + 1e-9)
    assert abs(np.trace(traj.final_rho) - 1.0) < 1e-12


def test_run_protocol_extinction_truncates():
    # V = 0 at the first round: no steps recorded, state handed back untouched
    c = CouplingSet(np.array([[1.0, 0.0, 0.0]]), 0.0)
    cfg = ProtocolConfig(omega=0.0, tau=np.pi / 2, measurements=5)
    rho0 = maximally_mixed(1)
    traj = run_protocol(rho0, cfg, c)
    assert traj.steps == 0
    assert np.abs(traj.final_rho - rho0).max() == 0.0


def test_run_protocol_dephasing_matches_joint_oracle():
    rng = np.random.default_rng(24)
    for n in (1, 2):
        c = CouplingSet(rng.normal(0, 1.2, (n, 3)), rng.uniform(0.5, 3))
        tau = rng.uniform(0.1, 0.8)
        alpha, beta = 0.6, 0.8j
        gamma = 0.9
        rho0 = _random_mixed(rng, 2**n)
        cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=1,
                             alpha=alpha, beta=beta, dephasing_rate=gamma)
        traj = run_protocol(rho0, cfg, c)
        want, p = _joint_step(c, tau, alpha, beta, rho0, gamma_d=gamma)
        assert abs(traj.conditional_p[0] - p) < 1e-12
        assert np.abs(traj.final_rho - want).max() < 1e-12


def test_run_protocol_dephasing_readout_time():
    rng = np.random.default_rng(25)
    c = CouplingSet(rng.normal(0, 1.0, (2, 3)), 1.0)
    rho0 = _random_mixed(rng, 4)
    cfg = ProtocolConfig(omega=1.0, tau=0.5, measurements=1,
                         dephasing_rate=1.2, readout_time=0.05)
    traj = run_protocol(rho0, cfg, c)
    want, p = _joint_step(c, 0.5, 2**-0.5, 2**-0.5, rho0, gamma_d=1.2, t_read=0.05)
    assert abs(traj.conditional_p[0] - p) < 1e-12
    assert np.abs(traj.final_rho - want).max() < 1e-12


def _dephased_round(rho, up, um, V, wa, wb, e):
    """Reference dephased round on dense U+-, V, unnormalized:
    e V rho V^dag + (1-e)/2 (wa U+ rho U+^dag + wb U- rho U-^dag)."""
    leak = up @ rho @ up.conj().T
    leak *= wa
    part = um @ rho @ um.conj().T
    part *= wb
    leak += part
    out = V @ rho @ V.conj().T
    out *= e
    leak *= 0.5 * (1.0 - e)
    out += leak
    return out


@pytest.mark.parametrize("e", [1.0, 0.97, 0.74, 0.05])
@pytest.mark.parametrize("alpha,beta", [(0.6, 0.8j), (1.0, 0.0), (0.0, 1.0)])
def test_run_protocol_rounds_match_dense_dephased_rounds(e, alpha, beta):
    # N=7 cuts into two fused factors; the reference sums three dense
    # sandwiches per round
    n, tau, steps = 7, 0.3, 5
    rng = np.random.default_rng(28)
    c = CouplingSet(rng.normal(size=(n, 3)), 1.0)
    rho0 = _random_mixed(rng, 2**n)
    cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=steps, alpha=alpha,
                         beta=beta, dephasing_rate=-np.log(e) / tau)
    traj = run_protocol(rho0, cfg, c)

    e = np.exp(-cfg.dephasing_rate * cfg.effective_readout_time)
    up, um = (reduce(np.kron, u)
              for u in branch_propagators(c.g_vectors, c.omega, tau))
    wa, wb = abs(alpha) ** 2, abs(beta) ** 2
    v = wa * up + wb * um
    rho, cond, purs = rho0, [], []
    for _ in range(steps):
        out = _dephased_round(rho, up, um, v, wa, wb, e)
        p = np.trace(out).real
        rho = out / p
        rho = 0.5 * (rho + rho.conj().T)
        cond.append(p)
        purs.append(purity(rho))
    assert traj.steps == steps
    assert np.abs(traj.conditional_p - cond).max() < 1e-12
    assert np.abs(traj.purity - purs).max() < 1e-12
    assert np.abs(traj.final_rho - rho).max() < 1e-12


def test_dephased_run_builds_no_full_bath_operators(monkeypatch):
    # run_protocol builds only fused factors, none spanning the whole bath,
    # with dephasing (gamma_d tau = 0.01) and without it
    import pairbath.dynamics_dense as dd
    c, tau = _chain_bath(8, dimers=True)
    real = dd.build_branch_operators

    def sub_bath_only(*args, **kwargs):
        plus, minus = real(*args, **kwargs)
        if any(len(f) == 2**c.n_spins for f in plus + minus):
            raise AssertionError("dense U+- built on the full bath")
        return plus, minus
    monkeypatch.setattr(dd, "build_branch_operators", sub_bath_only)
    for rate in (0.0, 0.01 / tau):
        cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=60,
                             dephasing_rate=rate)
        traj = run_protocol(maximally_mixed(8), cfg, c)
        assert traj.steps == 60


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_dephased_run_within_dense_memory_estimate(rate):
    # the dense memory check assumes DENSE_MATRICES matrices of 4^N entries;
    # from the mixed start run passes, a round holds rho, A, B, their sum
    # and the right applications, the start being freed after its copy
    import tracemalloc
    n = 7
    c = CouplingSet(np.random.default_rng(26).normal(size=(n, 3)), 1.0)
    cfg = ProtocolConfig(omega=1.0, tau=0.3, measurements=3, dephasing_rate=rate)
    tracemalloc.start()
    try:
        run_protocol(maximally_mixed(n), cfg, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DENSE_MATRICES * 16 * 4**n


def _chain_bath(n: int, dimers: bool):
    """Criterion 7's chain, or the dimer chain of criteria 3 and 4, at the
    heuristic omega and tau."""
    geom = (dimer_chain_geometry(n // 2, 8.0, 1.0, 100.0, 60.0) if dimers
            else chain_geometry(n, 8.0, 100.0, 60.0))
    c0 = dipolar_couplings(geom)
    omega, tau = optimal_params(c0)
    return CouplingSet(c0.g_vectors, omega), tau


def _gemm_stepping(rho0, cfg, c):
    """Conditional rounds as two dense gemms each, through apply_projection:
    (conditional p, purity, final rho) up to before the first round whose
    p is below the extinction floor."""
    v = build_V(c, cfg.tau, cfg.alpha, cfg.beta)
    rho, cond, purs = np.array(rho0, dtype=complex), [], []
    for _ in range(cfg.measurements):
        out, p = apply_projection(rho, v)
        if p < EXTINCTION_FLOOR:
            break
        rho = out
        cond.append(p)
        purs.append(purity(rho))
    return np.array(cond), np.array(purs), rho


def _assert_matches_gemm(traj, rho0, cfg, c):
    cond, purs, rho = _gemm_stepping(rho0, cfg, c)
    assert traj.steps == len(cond)
    assert np.abs(traj.conditional_p - cond).max() < 1e-12
    # relative: cumulative p reaches 1e-47 on the N=6 chain
    assert np.abs(traj.cumulative_p / np.cumprod(cond) - 1.0).max() < 1e-12
    assert np.abs(traj.purity - purs).max() < 1e-12
    n = c.n_spins
    for i in range(n):
        for j in range(i + 1, n):
            diff = pair_rdm(traj.final_rho, n, i, j) - pair_rdm(rho, n, i, j)
            assert np.abs(diff).max() < 1e-12


def _pure_chain_start():
    c, tau = _chain_bath(6, dimers=True)
    psi = _random_state(np.random.default_rng(41), 2**6)
    return c, tau, np.outer(psi, psi.conj())


@pytest.mark.parametrize("start,n,m", [("dimers", 8, 100), ("chain", 6, 800),
                                       ("pure", 6, 20), ("pure", 6, 60)])
def test_rho_rounds_match_gemm_stepping(start, n, m):
    # mixed starts purify to rank 5 (the N=8 dimer chain by M=100) and 1
    # (criterion 7's chain by M=800, where cumulative p falls to 3e-47)
    if start == "pure":
        c, tau, rho0 = _pure_chain_start()
    else:
        c, tau = _chain_bath(n, dimers=start == "dimers")
        rho0 = maximally_mixed(n)
    cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=m)
    traj = run_protocol(rho0, cfg, c)
    assert traj.steps == m
    _assert_matches_gemm(traj, rho0, cfg, c)


def test_rho_rounds_stay_hermitian_without_hermitizing(monkeypatch):
    # the kernel round's output, divided by its trace, is Hermitian to
    # rounding every round; only the returned state is made exactly so
    import pairbath.dynamics_dense as dd
    real, drift = dd._round, []

    def recorded(rho, *args):
        out = real(rho, *args)
        drift.append(np.abs(out - out.conj().T).max() / np.trace(out).real)
        return out
    monkeypatch.setattr(dd, "_round", recorded)
    c, tau = _chain_bath(8, dimers=True)
    cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=100)
    traj = run_protocol(maximally_mixed(8), cfg, c)
    assert len(drift) == 100 and max(drift) < 1e-15
    assert np.array_equal(traj.final_rho, traj.final_rho.conj().T)


def test_run_within_dense_memory_estimate():
    # rho and a round's temporaries, from a pure start freed after its copy
    import tracemalloc
    n = 7
    rng = np.random.default_rng(27)
    c = CouplingSet(rng.normal(size=(n, 3)), 1.0)
    psi = _random_state(rng, 2**n)
    cfg = ProtocolConfig(omega=1.0, tau=0.3, measurements=3)
    tracemalloc.start()
    try:
        run_protocol(np.outer(psi, psi.conj()), cfg, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DENSE_MATRICES * 16 * 4**n


@pytest.mark.parametrize("n", range(1, 7))
def test_final_state_by_squaring_matches_stepping(n):
    # where stepping's cumulative p is at or above the floor the squaring
    # gives its state; below the floor it gives None, though every round
    # was kept
    rng = np.random.default_rng(30 + n)
    alpha, beta = 0.6, 0.8j
    for m in (1, 2, 3, 40, 64, 100, 255):
        c = CouplingSet(rng.normal(0, 1.0, (n, 3)), rng.uniform(0.5, 2.0))
        tau = rng.uniform(0.2, 1.0)
        cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=m, alpha=alpha,
                             beta=beta)
        traj = run_protocol(maximally_mixed(n), cfg, c)
        assert traj.steps == m
        got = final_state_by_squaring(build_V(c, tau, alpha, beta), m)
        if traj.cumulative_p[-1] < EXTINCTION_FLOOR:
            assert got is None
            continue
        rho, p = got
        assert np.abs(rho - traj.final_rho).max() < 1e-12
        assert abs(p / traj.cumulative_p[-1] - 1.0) < 1e-12
        assert abs(purity(rho) - traj.purity[-1]) < 1e-12


def test_final_state_by_squaring_none_below_floor():
    c = CouplingSet(np.array([[1.0, 0.0, 0.0]]), 0.0)
    # p = cos^2(tau) = 0.05 per round: P_11 = 0.05^11 = 4.9e-15 < 1e-14
    v = build_V(c, 1.3452829208967654)
    assert final_state_by_squaring(v, 11) is None
    rho, p = final_state_by_squaring(v, 10)
    assert abs(p / 0.05**10 - 1.0) < 1e-12
    # V = 0
    assert final_state_by_squaring(build_V(c, np.pi / 2), 3) is None


def _pair_rdm_oracle(rho, n, i, j):
    """Basis-index partial trace, written without einsum on purpose."""
    out = np.zeros((4, 4), dtype=complex)
    dim = 2**n
    rest = [k for k in range(n) if k not in (i, j)]
    for a in range(dim):
        bits_a = [(a >> (n - 1 - k)) & 1 for k in range(n)]
        for b in range(dim):
            bits_b = [(b >> (n - 1 - k)) & 1 for k in range(n)]
            if any(bits_a[k] != bits_b[k] for k in rest):
                continue
            ra = 2 * bits_a[i] + bits_a[j]
            rb = 2 * bits_b[i] + bits_b[j]
            out[ra, rb] += rho[a, b]
    return out


def test_pair_rdm_against_basis_oracle():
    rng = np.random.default_rng(26)
    rho = _random_mixed(rng, 16)
    for i, j in ((0, 1), (1, 3), (0, 3), (2, 1)):
        got = pair_rdm(rho, 4, i, j)
        want = _pair_rdm_oracle(rho, 4, i, j)
        assert np.abs(got - want).max() < 1e-13


def _pair_rdm_transpose(rho, n, i, j):
    """The transpose-and-trace formula pair_rdm used before the einsum view."""
    t = rho.reshape((2,) * (2 * n))
    rest = [k for k in range(n) if k not in (i, j)]
    perm = [i, j] + rest + [n + i, n + j] + [n + k for k in rest]
    t = t.transpose(perm).reshape(4, 2 ** (n - 2), 4, 2 ** (n - 2))
    out = np.einsum("asbs->ab", t)
    return 0.5 * (out + out.conj().T)


def test_pair_rdm_matches_transpose_formula():
    rng = np.random.default_rng(27)
    for n in range(2, 7):
        rho = _random_mixed(rng, 2**n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    got = pair_rdm(rho, n, i, j)
                    assert np.abs(got - _pair_rdm_transpose(rho, n, i, j)).max() <= 1e-15


def test_pair_rdm_same_index_rejected():
    with pytest.raises(ValueError):
        pair_rdm(maximally_mixed(2), 2, 1, 1)


def test_all_pair_rdms_keys():
    rho = maximally_mixed(4)
    rdms = all_pair_rdms(rho, 4)
    assert set(rdms) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    for m in rdms.values():
        assert np.abs(m - np.eye(4) / 4).max() < 1e-14


def test_maximally_mixed_purity():
    for n in (1, 2, 5):
        assert abs(purity(maximally_mixed(n)) - 2.0**-n) < 1e-14


def test_hermitize_real_matrix_is_exact_symmetric_part():
    # for a real array conj() returns the array itself, so the in-place
    # sum adds it to its own transpose; numpy buffers the overlap
    import pairbath.dynamics_dense as dd
    a = np.random.default_rng(50).normal(size=(64, 64))
    assert a.conj() is a
    want = (a + a.T) / 2
    got = dd._hermitize(a.copy())
    assert np.array_equal(got, want)
    assert np.array_equal(got, got.T)


def test_magic_basis_is_orthogonal_up_to_an_exact_power_of_two():
    # runs of at most two whole pairs, balanced; (x)Mq' over k pairs has
    # T^dag T = 2^k I with no rounding
    sizes = {2: [4], 4: [16], 6: [4, 16], 8: [16, 16], 10: [4, 16, 16],
             12: [16, 16, 16]}
    for n, want in sizes.items():
        basis = magic_basis(n)
        assert [len(t) for t in basis] == want
        for t in basis:
            assert np.array_equal(t.conj().T @ t, math.isqrt(len(t)) * np.eye(len(t)))
    assert np.array_equal(MAGIC.conj().T @ MAGIC, 2 * np.eye(4))
    for n in (1, 3, 5, 7):
        assert magic_basis(n) is None


@pytest.mark.parametrize("n", [2, 4, 6])
def test_magic_factors_of_random_baths_are_real(n):
    # every branch propagator is in SU(2), so each run's factor is real in
    # (x)Mq': checked here from the product-basis factors, and the engine's
    # factors are their real parts
    import pairbath.dynamics_dense as dd
    rng = np.random.default_rng(60 + n)
    for _ in range(5):
        c = CouplingSet(rng.normal(0, 1.5, (n, 3)), rng.uniform(0, 4))
        tau = rng.uniform(0.05, 2.0)
        basis = magic_basis(n)
        real = dd._branch_factors(c, tau, 0.6, 0.8j, basis)
        product = dd.build_branch_operators(c, tau, 0.6, 0.8j, dd._pair_bounds(n))
        for got, factors in zip(real, product):
            for f, t, r in zip(factors, basis, got):
                rotated = t.conj().T @ f @ t / math.isqrt(len(t))
                assert np.abs(rotated.imag).max() <= 1e-14
                assert r.dtype == np.float64
                assert np.array_equal(r, rotated.real)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_time_reversal_conjugates_V(n):
    # sigma_y U sigma_y = U* for every SU(2) rotation, so Y V Y = V* with
    # Y the product of sigma_y: the symmetry the magic basis makes explicit
    rng = np.random.default_rng(70 + n)
    y = reduce(np.kron, [SIGMA_Y] * n)
    for _ in range(5):
        c = CouplingSet(rng.normal(0, 1.5, (n, 3)), rng.uniform(0, 4))
        v = build_V(c, rng.uniform(0.05, 2.0), 0.6, 0.8j)
        assert np.abs(y @ v @ y - v.conj()).max() <= 1e-15


def _singlet_product(n):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    psi = reduce(np.kron, [singlet] * (n // 2))
    return np.outer(psi, psi.conj()).astype(complex)


@pytest.mark.parametrize("case", ["mixed_even", "singlets", "mixed_odd", "random_even"])
def test_rounds_run_real_for_time_reversal_symmetric_starts(case, monkeypatch):
    # the rounds run real from I/d and from singlet pairs on an even bath;
    # an odd bath, and a start that is not real in the magic basis, run
    # complex; each matches gemm stepping in the product basis
    import pairbath.dynamics_dense as dd
    real_round, dtypes = dd._round, []

    def recorded(rho, *args):
        dtypes.append(rho.dtype)
        return real_round(rho, *args)
    monkeypatch.setattr(dd, "_round", recorded)
    n = 5 if case == "mixed_odd" else 6
    c, tau = _chain_bath(n, dimers=False)
    rho0 = {"mixed_even": maximally_mixed(n), "mixed_odd": maximally_mixed(n),
            "singlets": _singlet_product(n),
            "random_even": _random_mixed(np.random.default_rng(80), 2**n)}[case]
    cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=40)
    traj = run_protocol(rho0, cfg, c)
    assert traj.steps == 40
    want = np.float64 if case in ("mixed_even", "singlets") else np.complex128
    assert set(dtypes) == {np.dtype(want)}
    assert traj.final_rho.dtype == np.complex128
    _assert_matches_gemm(traj, rho0, cfg, c)


@pytest.mark.parametrize("rate_tau", [0.0, 0.3])
def test_real_rounds_keep_the_complex_cumulative_p(rate_tau, monkeypatch):
    # criterion 7's chain at M=800: real rounds in the exactly scaled basis
    # keep cumulative p within 5e-13 (relative) of complex rounds in the
    # product basis; a basis normalized by 1/sqrt(2) is unitary only to
    # rounding and drifts to about 9e-13
    import pairbath.dynamics_dense as dd
    c, tau = _chain_bath(6, dimers=False)
    cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=800,
                         dephasing_rate=rate_tau / tau)
    traj = run_protocol(maximally_mixed(6), cfg, c)
    monkeypatch.setattr(dd, "magic_basis", lambda n: None)
    want = run_protocol(maximally_mixed(6), cfg, c)
    assert traj.steps == want.steps == 800
    assert np.abs(traj.cumulative_p / want.cumulative_p - 1.0).max() < 5e-13
    assert np.abs(traj.conditional_p - want.conditional_p).max() < 1e-12
    assert np.abs(traj.purity - want.purity).max() < 1e-12
    assert np.abs(traj.final_rho - want.final_rho).max() < 1e-12


@pytest.mark.parametrize("alpha,beta", [(2**-0.5, 2**-0.5), (0.6, 0.8j)])
def test_scan_point_squares_real_V_like_the_complex_one(alpha, beta):
    # an even bath squares V in the magic basis, an odd one build_V's V
    for n in (8, 7):
        c, tau = _chain_bath(n, dimers=False)
        v, basis = conditional_operator(c, tau, alpha, beta)
        assert (basis is None) == (n % 2 == 1)
        assert v.dtype == (np.complex128 if n % 2 else np.float64)
        rho, p = final_state_by_squaring(v, 40)
        rho = from_magic(rho, basis)
        want_rho, want_p = final_state_by_squaring(build_V(c, tau, alpha, beta), 40)
        assert np.abs(rho - want_rho).max() < 1e-12
        assert abs(p / want_p - 1.0) < 1e-12
        assert np.array_equal(rho, rho.conj().T)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_even_run_within_dense_memory_estimate(rate):
    # an even bath from a start its caller passes: the complex change of
    # basis into T, then a real rho and its rounds
    import tracemalloc
    n = 8
    c = CouplingSet(np.random.default_rng(26).normal(size=(n, 3)), 1.0)
    cfg = ProtocolConfig(omega=1.0, tau=0.3, measurements=3, dephasing_rate=rate)
    tracemalloc.start()
    try:
        run_protocol(maximally_mixed(n), cfg, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DENSE_MATRICES * 16 * 4**n


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_even_mixed_start_within_real_memory_estimate(rate):
    # the mixed start of an even bath is a real I/d built in T, and the
    # state stays there: no complex d x d matrix is formed
    import tracemalloc
    n = 8
    c = CouplingSet(np.random.default_rng(26).normal(size=(n, 3)), 1.0)
    cfg = ProtocolConfig(omega=1.0, tau=0.3, measurements=3, dephasing_rate=rate)
    tracemalloc.start()
    try:
        traj = run_protocol(None, cfg, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.state.dtype == np.float64
    assert peak <= REAL_DENSE_MATRICES * 8 * 4**n


def test_real_starts_are_admitted_on_the_real_estimate(monkeypatch):
    # with physical memory between the real and the complex estimate of
    # N=8, a mixed-start even run is admitted; an odd one, and an even
    # bath's start passed by its caller, are not
    import pairbath.errors
    have = (REAL_DENSE_MATRICES * 8 + DENSE_MATRICES * 16) * 4**8 // 2
    sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}
    monkeypatch.setattr(pairbath.errors.os, "sysconf", sizes.__getitem__)
    c = CouplingSet(np.random.default_rng(26).normal(size=(8, 3)), 1.0)
    cfg = ProtocolConfig(omega=1.0, tau=0.3, measurements=2)
    assert run_protocol(None, cfg, c).steps == 2
    conditional_operator(c, 0.3)
    with pytest.raises(CapacityError,
                       match=rf"{DENSE_MATRICES} matrices of 2\^8 x 2\^8 complex"):
        run_protocol(np.eye(256) / 256, cfg, c)
    with pytest.raises(CapacityError):
        maximally_mixed(8)
    odd = CouplingSet(np.random.default_rng(26).normal(size=(9, 3)), 1.0)
    sizes["SC_PHYS_PAGES"] = REAL_DENSE_MATRICES * 8 * 4**9
    with pytest.raises(CapacityError):
        run_protocol(None, cfg, odd)


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("n", range(3, 9))
def test_none_start_is_the_maximally_mixed_start(n, rate):
    # I/d is I/d in every basis, so building it in T changes no bit of the
    # rounds; only the final state's way back to the product basis differs
    c, tau = _chain_bath(n, dimers=False)
    cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=30,
                         dephasing_rate=rate / tau)
    got = run_protocol(None, cfg, c)
    want = run_protocol(maximally_mixed(n), cfg, c)
    assert got.steps == want.steps == 30
    for field in ("conditional_p", "cumulative_p", "purity"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert np.abs(got.final_rho - want.final_rho).max() <= 1e-15
    assert (got.basis is None) == (n % 2 == 1)
    assert got.state.dtype == (np.complex128 if n % 2 else np.float64)


def _random_real_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    rho = a @ a.T
    return rho / np.trace(rho)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pairs_read_in_the_magic_basis_match_the_rotated_state(n):
    # each pair is read from the one or two magic pairs that hold it, as
    # the pair of the whole state rotated back to the product basis
    basis = magic_basis(n)
    rng = np.random.default_rng(90 + n)
    for _ in range(3):
        rho = _random_real_symmetric(rng, 2**n)
        got = all_pair_rdms(rho, n, basis)
        want = all_pair_rdms(from_magic(rho, basis), n)
        assert list(got) == list(want)
        for key in want:
            assert np.abs(got[key] - want[key]).max() <= 1e-13


def test_pairs_read_in_the_magic_basis_after_singlet_rounds():
    c, tau = _chain_bath(6, dimers=True)
    cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=20)
    traj = run_protocol(_singlet_product(6), cfg, c)
    assert traj.state.dtype == np.float64
    got = all_pair_rdms(traj.state, 6, traj.basis)
    want = all_pair_rdms(traj.final_rho, 6)
    for key in want:
        assert np.abs(got[key] - want[key]).max() <= 1e-13


@pytest.mark.parametrize("n", [3, 4])
def test_from_magic_never_writes_its_argument(n):
    # final_rho rotates the stored state on every read, which must stay
    # as the run left it, in either basis
    c, tau = _chain_bath(n, dimers=False)
    cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=5)
    traj = run_protocol(_random_mixed(np.random.default_rng(95), 2**n), cfg, c)
    kept = traj.state.copy()
    first = traj.final_rho
    assert np.array_equal(traj.state, kept)
    assert first is not traj.state
    assert np.array_equal(traj.final_rho, first)
    assert np.array_equal(first, first.conj().T)
    rho = _random_mixed(np.random.default_rng(96), 2**n)
    rho += 1e-3j * np.eye(2**n)            # not Hermitian
    kept = rho.copy()
    from_magic(rho, None)
    assert np.array_equal(rho, kept)
