import numpy as np
import pytest

from pairbath.spin_core import (
    CouplingSet,
    dipolar_couplings,
    optimal_params,
    plane_geometry,
)
from pairbath.dynamics_dense import (
    ProtocolConfig,
    all_pair_rdms,
    build_V,
    maximally_mixed,
    purity,
    run_protocol,
)
from pairbath.analysis import (
    _spin_eigenbases,
    best_phase,
    classical_steady_state_check,
    concurrence,
    detect_pairing,
    pair_fidelity,
    phased_singlet,
    singlet_state,
)


def _random_mixed(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_unitary(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_phased_singlet_basics():
    s = singlet_state()
    assert abs(np.linalg.norm(s) - 1) < 1e-14
    assert np.allclose(s, [0, 2**-0.5, -(2**-0.5), 0])
    # phi = pi flips the relative sign into the triplet, orthogonal to S(0)
    t = phased_singlet(np.pi)
    assert abs(np.vdot(s, t)) < 1e-14
    for phi in (0.0, 1.3, 4.2):
        v = phased_singlet(phi)
        assert abs(np.linalg.norm(v) - 1) < 1e-14
        assert v[0] == 0 and v[3] == 0


def test_concurrence_reference_states():
    s = singlet_state()
    assert abs(concurrence(np.outer(s, s.conj())) - 1.0) < 1e-12
    e01 = np.zeros(4)
    e01[1] = 1.0
    assert concurrence(np.outer(e01, e01)) == 0.0
    # Werner state p S + (1-p) 1/4: C = max(0, (3p - 1)/2)
    sing = np.outer(s, s.conj())
    for p, want in ((0.6, 0.4), (0.8, 0.7), (0.3, 0.0)):
        w = p * sing + (1 - p) * np.eye(4) / 4
        assert abs(concurrence(w) - want) < 1e-12


def test_concurrence_local_unitary_invariant():
    rng = np.random.default_rng(40)
    for _ in range(500):
        rho = _random_mixed(rng)
        c0 = concurrence(rho)
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        assert abs(concurrence(u @ rho @ u.conj().T) - c0) < 1e-10


def test_concurrence_rejects_invalid_states():
    with pytest.raises(ValueError, match="4x4"):
        concurrence(np.eye(2) / 2)
    bad = np.diag([0.7, 0.5, -0.2, 0.0])
    with pytest.raises(ValueError, match="negative"):
        concurrence(bad)


def test_pair_fidelity_matches_direct_overlap():
    rng = np.random.default_rng(41)
    for _ in range(30):
        rho = _random_mixed(rng)
        phi = rng.uniform(0, 2 * np.pi)
        v = phased_singlet(phi)
        want = float(np.real(v.conj() @ rho @ v))
        assert abs(pair_fidelity(rho, phi) - want) < 1e-12


def test_best_phase_recovers_pure_phase():
    for phi0 in (0.0, 0.7, 2.9, 5.6):
        v = phased_singlet(phi0)
        phi, fid = best_phase(np.outer(v, v.conj()))
        assert abs(fid - 1.0) < 1e-12
        assert abs(np.angle(np.exp(1j * (phi - phi0)))) < 1e-12


def test_best_phase_dominates_grid():
    rng = np.random.default_rng(42)
    grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for _ in range(25):
        rho = _random_mixed(rng)
        phi, fid = best_phase(rho)
        grid_best = max(pair_fidelity(rho, p) for p in grid)
        assert fid >= grid_best - 1e-12
        assert abs(pair_fidelity(rho, phi) - fid) < 1e-12


def test_best_fidelity_equals_concurrence_relation_in_span():
    # pure a|01> + b e^{i x}|10>: F* = (|a| + |b|)^2 / 2 = (1 + C)/2
    rng = np.random.default_rng(43)
    for _ in range(40):
        a = rng.uniform(0.05, 1.0)
        b = np.sqrt(1 - a**2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        v = np.array([0, a, b, 0], dtype=complex)
        rho = np.outer(v, v.conj())
        _, fid = best_phase(rho)
        # rank-1 R matrix leaves ~1e-8 noise in the nonsymmetric eigvals
        assert abs(fid - (1 + concurrence(rho)) / 2) < 1e-7


def test_transverse_pair_phase_tracks_coupling_azimuths():
    # two transverse couplings of equal magnitude at azimuths th1, th2:
    # the surviving pure state is a phased singlet with phi* = th1 - th2,
    # independent of omega and tau
    th1, th2 = 0.3, 1.1
    g = np.array([[np.cos(th1), np.sin(th1), 0.0],
                  [np.cos(th2), np.sin(th2), 0.0]])
    for omega, tau in ((2.0, 0.8), (3.0, 0.45)):
        v = build_V(CouplingSet(g, omega), tau)
        rng = np.random.default_rng(1)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        for _ in range(2000):
            psi = v @ psi
            psi /= np.linalg.norm(psi)
        phi, fid = best_phase(np.outer(psi, psi.conj()))
        assert fid > 1 - 1e-8
        assert abs(np.angle(np.exp(1j * (phi - (th1 - th2))))) < 1e-2


def test_detect_pairing_synthetic_singlets():
    va = phased_singlet(0.3)
    vb = phased_singlet(4.0)
    rho = np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
    asg = detect_pairing(all_pair_rdms(rho, 4), 4)
    assert [(m.i, m.j) for m in asg.matches] == [(0, 1), (2, 3)]
    assert asg.all_paired and not asg.unmatched
    d = asg.as_dict()
    assert abs(d[(0, 1)].fidelity - 1.0) < 1e-10
    assert abs(np.angle(np.exp(1j * (d[(0, 1)].phase - 0.3)))) < 1e-8
    assert abs(np.angle(np.exp(1j * (d[(2, 3)].phase - 4.0)))) < 1e-8


def test_detect_pairing_product_state_unpaired():
    rng = np.random.default_rng(44)
    spins = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    spins /= np.linalg.norm(spins, axis=1)[:, None]
    psi = np.eye(1, dtype=complex).ravel()
    for s in spins:
        psi = np.kron(psi, s)
    rho = np.outer(psi, psi.conj())
    asg = detect_pairing(all_pair_rdms(rho, 4), 4)
    # the separable ceiling on the phased-singlet fidelity is 1/2
    assert all(m.fidelity <= 0.5 + 1e-12 for m in asg.matches)
    assert all(not m.paired for m in asg.matches)
    assert not asg.all_paired


def test_detect_pairing_disjoint_cover():
    rng = np.random.default_rng(45)
    rho = _random_mixed(rng, 2**5)
    asg = detect_pairing(all_pair_rdms(rho, 5), 5)
    seen = [k for m in asg.matches for k in (m.i, m.j)]
    assert len(seen) == len(set(seen))
    assert sorted(seen + list(asg.unmatched)) == list(range(5))
    assert len(asg.unmatched) == 1  # odd spin count
    with pytest.raises(ValueError, match="degenerate"):
        detect_pairing({(1, 1): np.eye(4) / 4}, 2)


def test_plane_geometry_pairing_example():
    # frozen run: 8 spins scattered on a plane above the probe pair up by
    # reflection symmetry of the dipolar field; values pinned from this
    # implementation and cross-checked against the conditional eigenvector
    geom = plane_geometry(8, (-0.9, 0.9, -0.9, 0.9), 1.0, seed=1232)
    c = dipolar_couplings(geom, prefactor=1.0)
    omega, tau = optimal_params(c)
    c = CouplingSet(c.g_vectors, omega)
    traj = run_protocol(maximally_mixed(8),
                        ProtocolConfig(omega=omega, tau=tau, measurements=100), c)
    assert abs(purity(traj.final_rho) - 0.987295) < 1e-3
    asg = detect_pairing(all_pair_rdms(traj.final_rho, 8), 8)
    assert [(m.i, m.j) for m in asg.matches] == [(0, 6), (1, 7), (2, 5), (3, 4)]
    assert asg.all_paired
    want = {(0, 6): (0.992994, 4.624651), (1, 7): (0.882690, 3.019935),
            (2, 5): (0.953753, 0.100433), (3, 4): (0.987819, 4.647205)}
    for key, (fid, phase) in want.items():
        m = asg.as_dict()[key]
        assert abs(m.fidelity - fid) < 1e-3
        assert abs(np.angle(np.exp(1j * (m.phase - phase)))) < 1e-3
    # phases cluster near multiples of pi/2 (in-plane azimuth differences)
    quad = np.array([0, np.pi / 2, np.pi, 3 * np.pi / 2])
    for m in asg.matches:
        dev = np.abs(np.angle(np.exp(1j * (m.phase - quad)))).min()
        assert dev < 0.2


def _dense_certificate(rho, c):
    """The certificate with W = kron of the per-spin eigenbases built as a
    2^N x 2^N matrix, a per-index bit loop for the sectors and purity as
    Tr(rho rho): the oracle for the Kronecker-kernel version."""
    n = c.n_spins
    w = np.eye(1, dtype=complex)
    for b in _spin_eigenbases(c):
        w = np.kron(w, b)
    rho_eig = w.conj().T @ rho @ w
    diag = np.real(np.diagonal(rho_eig))
    evals, evecs = np.linalg.eigh(rho)
    structure = True
    for idx in (-1, -2):
        vec = (w.conj().T @ evecs[:, idx]).reshape((2,) * n)
        for k in range(n):
            axes = tuple(a for a in range(n) if a != k)
            if abs(np.tensordot(vec, vec.conj(), axes=(axes, axes))[0, 1]) > 1e-6:
                structure = False
    mags = {}
    for index in range(2**n):
        m_tot = sum(1 if (index >> (n - 1 - k)) & 1 == 0 else -1 for k in range(n))
        mags[m_tot] = mags.get(m_tot, 0.0) + float(diag[index])
    return dict(
        offdiag_norm=float(np.linalg.norm(rho_eig - np.diag(np.diagonal(rho_eig)))),
        leading_eigenvalues=(float(evals[-1]), float(evals[-2])),
        two_branch_structure=structure,
        support_dimension=int(np.sum(evals > 1e-8)),
        magnetization_weights=mags,
        purity=float(np.real(np.trace(rho @ rho))),
    )


def _certificate_cases():
    rng = np.random.default_rng(28)
    for n in range(1, 7):
        c = CouplingSet(rng.normal(0, 1.0, (n, 3)), 0.0)
        cfg = ProtocolConfig(omega=0.0, tau=1.0, measurements=60)
        yield c, run_protocol(maximally_mixed(n), cfg, c).final_rho
        yield c, _random_mixed(rng, 2**n)
    g0 = np.array([1.3, 0.0, 0.4])
    c = CouplingSet(np.tile(g0, (4, 1)), 0.0)
    cfg = ProtocolConfig(omega=0.0, tau=0.7 / np.linalg.norm(g0), measurements=500)
    yield c, run_protocol(maximally_mixed(4), cfg, c).final_rho


def test_classical_check_matches_dense_kronecker_oracle():
    structures = set()
    for c, rho in _certificate_cases():
        got = classical_steady_state_check(rho, c)
        want = _dense_certificate(rho, c)
        for name in ("offdiag_norm", "purity"):
            assert abs(getattr(got, name) - want[name]) < 1e-12, name
        assert np.allclose(got.leading_eigenvalues, want["leading_eigenvalues"],
                           rtol=0, atol=1e-12)
        assert got.two_branch_structure == want["two_branch_structure"]
        assert got.support_dimension == want["support_dimension"]
        mags = want["magnetization_weights"]
        assert list(got.magnetization_weights) == list(mags)   # +N first
        assert all(abs(got.magnetization_weights[m] - mags[m]) < 1e-12 for m in mags)
        structures.add(got.two_branch_structure)
    assert structures == {True, False}


def test_classical_steady_state_generic_couplings():
    rng = np.random.default_rng(4)
    c = CouplingSet(rng.normal(0, 1.0, (3, 3)), 0.0)
    cfg = ProtocolConfig(omega=0.0, tau=1.0, measurements=300)
    traj = run_protocol(maximally_mixed(3), cfg, c)
    rep = classical_steady_state_check(traj.final_rho, c)
    # generic couplings: the (s, -s) eigenvalue degeneracy leaves two
    # equal-weight classical branches, purity saturates at 1/2
    assert abs(rep.purity - 0.5) < 1e-6
    assert abs(rep.leading_eigenvalues[0] - 0.5) < 1e-6
    assert abs(rep.leading_eigenvalues[1] - 0.5) < 1e-6
    assert rep.offdiag_norm < 1e-8
    assert rep.support_dimension == 2
    assert rep.two_branch_structure


def test_classical_steady_state_identical_couplings():
    # four identical couplings: the zero-magnetization sector (dim 6)
    # survives uniformly, purity 1/6
    g0 = np.array([1.3, 0.0, 0.4])
    c = CouplingSet(np.tile(g0, (4, 1)), 0.0)
    tau = 0.7 / np.linalg.norm(g0)
    cfg = ProtocolConfig(omega=0.0, tau=tau, measurements=500)
    traj = run_protocol(maximally_mixed(4), cfg, c)
    rep = classical_steady_state_check(traj.final_rho, c)
    assert abs(rep.purity - 1 / 6) < 1e-6
    assert rep.support_dimension == 6
    assert abs(rep.zero_magnetization_weight - 1.0) < 1e-6


def test_classical_single_spin_eigenstate_is_rank_one_fixed_point():
    g = np.array([[0.9, -0.2, 0.5]])
    c = CouplingSet(g, 0.0)
    h = (g[0, 0] * np.array([[0, 1], [1, 0]])
         + g[0, 1] * np.array([[0, -1j], [1j, 0]])
         + g[0, 2] * np.diag([1, -1])).astype(complex)
    _, vecs = np.linalg.eigh(h)
    psi = vecs[:, 1]
    rho0 = np.outer(psi, psi.conj())
    cfg = ProtocolConfig(omega=0.0, tau=0.8, measurements=30)
    traj = run_protocol(rho0, cfg, c)
    rep = classical_steady_state_check(traj.final_rho, c)
    assert rep.support_dimension == 1
    assert abs(rep.purity - 1.0) < 1e-10
    assert np.abs(traj.final_rho - rho0).max() < 1e-10


def test_classical_check_requires_zero_omega():
    c = CouplingSet(np.array([[1.0, 0, 0]]), 0.5)
    with pytest.raises(ValueError, match="omega"):
        classical_steady_state_check(maximally_mixed(1), c)
    c0 = CouplingSet(np.array([[1.0, 0, 0]]), 0.0)
    with pytest.raises(ValueError, match="dimension"):
        classical_steady_state_check(maximally_mixed(2), c0)
