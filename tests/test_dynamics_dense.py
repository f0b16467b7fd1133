from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from pairbath.errors import ConfigError, ExtinctionError
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
    ProtocolConfig,
    all_pair_rdms,
    apply_projection,
    build_V,
    final_state_by_squaring,
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
    with pytest.raises(ConfigError, match="dephasing_rate"):
        ProtocolConfig(omega=1.0, tau=0.5, measurements=1, dephasing_rate=-0.1)


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
    # g transverse, tau = pi/2: V = cos(pi/2) 1 = 0 exactly
    c = CouplingSet(np.array([[1.0, 0.0, 0.0]]), 0.0)
    v = build_V(c, np.pi / 2)
    with pytest.raises(ExtinctionError, match="below floor"):
        apply_projection(maximally_mixed(1), v)


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
    assert traj.status == "completed"
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
    assert traj.status == "extinct"
    assert traj.extinct_step == 1
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
    assert traj.status == "completed" and traj.steps == steps
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
        assert traj.status == "completed" and traj.steps == 60


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
    (conditional p, purity, final rho) up to the first extinct round."""
    v = build_V(c, cfg.tau, cfg.alpha, cfg.beta)
    rho, cond, purs = np.array(rho0, dtype=complex), [], []
    for _ in range(cfg.measurements):
        try:
            rho, p = apply_projection(rho, v, cfg.extinction_floor)
        except ExtinctionError:
            break
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
    assert traj.status == "completed"
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
    rng = np.random.default_rng(30 + n)
    alpha, beta = 0.6, 0.8j
    for m in (1, 2, 3, 40, 64, 100, 255):
        c = CouplingSet(rng.normal(0, 1.0, (n, 3)), rng.uniform(0.5, 2.0))
        tau = rng.uniform(0.2, 1.0)
        # a floor this low lets deep M run, where P_M is far below 1e-14
        cfg = ProtocolConfig(omega=c.omega, tau=tau, measurements=m, alpha=alpha,
                             beta=beta, extinction_floor=1e-300)
        traj = run_protocol(maximally_mixed(n), cfg, c)
        assert traj.status == "completed"
        rho, p = final_state_by_squaring(build_V(c, tau, alpha, beta), m,
                                         cfg.extinction_floor)
        assert np.abs(rho - traj.final_rho).max() < 1e-12
        assert abs(p / traj.cumulative_p[-1] - 1.0) < 1e-12
        assert abs(purity(rho) - traj.purity[-1]) < 1e-12


def test_final_state_by_squaring_raises_below_floor():
    c = CouplingSet(np.array([[1.0, 0.0, 0.0]]), 0.0)
    # p = cos^2(tau) = 0.05 per round: P_11 = 0.05^11 = 4.9e-15 < 1e-14
    v = build_V(c, 1.3452829208967654)
    with pytest.raises(ExtinctionError) as exc:
        final_state_by_squaring(v, 11)
    assert abs(exc.value.probability / 0.05**11 - 1.0) < 1e-12
    rho, p = final_state_by_squaring(v, 10)
    assert abs(p / 0.05**10 - 1.0) < 1e-12
    # V = 0
    with pytest.raises(ExtinctionError):
        final_state_by_squaring(build_V(c, np.pi / 2), 3)


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
