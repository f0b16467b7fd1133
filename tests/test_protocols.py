import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from pairbath.spin_core import CouplingSet
from pairbath.analysis import phased_singlet
from pairbath.protocols import (
    FLIP_THRESHOLD,
    PREPARATIONS,
    SpeciesBath,
    SpeciesGroup,
    _blocks_for,
    coherence_trace,
    find_local_maxima,
    resolves_side_features,
    spectroscopy_scan,
    verification_scan,
)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)
_MIXED2 = np.eye(2, dtype=complex) / 2


def _expm_pair(g, omega, tau):
    """U+ and U- of one spin from the matrix exponential,
    U_pm = expm(+i (omega z +- g).sigma tau), independent of spin_core."""
    def gen(v):
        return v[0] * _SX + v[1] * _SY + (v[2] + omega) * _SZ
    g = np.asarray(g, dtype=float)
    return expm(1j * tau * gen(g)), expm(1j * tau * gen(-g))


def _one_spin_groups(spins):
    """A species bath of mixed one-spin groups from [(g, omega)]."""
    return SpeciesBath(tuple(SpeciesGroup(om, [g]) for g, om in spins))


def _flip_prob_dense(spins, m, tau, rho_b):
    """Joint-space CPMG oracle: X_{pi/2} [U Y_pi U]^m X_{-pi/2} on the
    central spin, built as explicit 2*2^N matrices."""
    dimb = rho_b.shape[0]
    bp = np.eye(1, dtype=complex)
    bm = np.eye(1, dtype=complex)
    for g, om in spins:
        u_plus, u_minus = _expm_pair(g, om, tau)
        bp = np.kron(bp, u_plus)
        bm = np.kron(bm, u_minus)
    u = np.zeros((2 * dimb, 2 * dimb), dtype=complex)
    u[:dimb, :dimb] = bp               # central |1> block
    u[dimb:, dimb:] = bm               # central |0> block

    def crot(sig, theta):
        r = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * sig
        return np.kron(r, np.eye(dimb))

    s = crot(_SX, -np.pi / 2) @ np.linalg.matrix_power(
        u @ crot(_SY, np.pi) @ u, m) @ crot(_SX, np.pi / 2)
    rho_c = np.zeros((2, 2), dtype=complex)
    rho_c[1, 1] = 1.0                  # start in |0>
    rho = np.kron(rho_c, rho_b)
    rf = s @ rho @ s.conj().T
    return float(np.real(np.trace(rf[:dimb, :dimb])))


def test_pulse_sequence_validation():
    # an empty train used to pass and then fail inside curve.max()
    for m_max in (0, -3):
        with pytest.raises(ValueError, match="m_max"):
            verification_scan(3.0, 4.0, 10.0, m_max=m_max)
    for tau_v in (0.0, -0.1):
        with pytest.raises(ValueError, match="tau_v"):
            verification_scan(3.0, 4.0, 10.0, tau_v=tau_v, m_max=3)
    # a non-finite time used to give a nan curve
    for tau_v in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            verification_scan(3.0, 4.0, 10.0, tau_v=tau_v, m_max=3)


def test_spectroscopy_rejects_empty_train():
    # m < 1 used to return an all-zero signal
    bath = SpeciesBath((SpeciesGroup(10.0, [[1.0, 0.0, 0.5]]),))
    for m in (0, -2):
        with pytest.raises(ValueError, match="m must be >= 1"):
            spectroscopy_scan(bath, [0.05, 0.1], m=m)


def test_species_group_validation():
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        SpeciesGroup(1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="preparation"):
        SpeciesGroup(1.0, np.zeros((1, 3)), "thermal")
    with pytest.raises(ValueError, match="even"):
        SpeciesGroup(1.0, np.zeros((3, 3)), "paired")
    with pytest.raises(ValueError, match="at least one"):
        SpeciesBath(())
    # a non-finite omega or g used to give a nan spectrum and coherence
    for omega, g in ((np.nan, [[1.0, 0, 0]]), (np.inf, [[1.0, 0, 0]]),
                     (10.0, [[np.nan, 0, 0]]), (10.0, [[0, np.inf, 0]])):
        with pytest.raises(ValueError, match="finite"):
            SpeciesGroup(omega, g)


def test_species_bath_flattens_in_group_order():
    bath = SpeciesBath((
        SpeciesGroup(2.0, np.array([[1.0, 0, 0], [0, 1.0, 0]])),
        SpeciesGroup(3.0, np.array([[0, 0, 1.0]])),
    ))
    g, omega = bath.spins()
    assert g.shape == (3, 3) and omega.shape == (3,)
    assert np.array_equal(omega, [2.0, 2.0, 3.0])
    assert np.array_equal(g[2], [0, 0, 1.0])


def test_echo_identity_with_no_coupling():
    # zero hyperfine coupling: the pi train refocuses the Larmor phase
    # exactly, so the central spin never flips, at any m or tau
    bath = _one_spin_groups([(np.zeros(3), 7.0), (np.zeros(3), 3.0)])
    for m in (1, 2, 5, 16):
        scan = spectroscopy_scan(bath, [0.05, 0.3, 1.7], m=m)
        assert np.abs(scan.signal).max() < 1e-12
    # empty bath too
    empty = SpeciesBath((SpeciesGroup(7.0, np.zeros((0, 3))),))
    assert np.array_equal(spectroscopy_scan(empty, [0.4], m=8).signal, [0.0])


def test_sequence_flip_matches_dense_oracle():
    # one-point grids and a whole grid against the joint-space oracle
    rng = np.random.default_rng(7)
    taus = [0.03, 0.07, 0.2]
    for m in (1, 2, 3, 4):
        spins = [(rng.normal(size=3), 10.0 + rng.normal()) for _ in range(3)]
        want = [_flip_prob_dense(spins, m, tau, np.eye(8, dtype=complex) / 8)
                for tau in taus]
        bath = _one_spin_groups(spins)
        assert np.abs(spectroscopy_scan(bath, [0.07], m=m).signal[0]
                      - want[1]) < 1e-12
        assert np.abs(spectroscopy_scan(bath, taus, m=m).signal - want).max() < 1e-12


def test_sequence_flip_pair_blocks_match_dense_oracle():
    rng = np.random.default_rng(8)
    sing = phased_singlet(0.0)
    rho4 = np.outer(sing, sing.conj())
    for m in (2, 5):
        g = rng.normal(size=(4, 3))
        omega = 10.0 + rng.normal(size=3)
        bath = SpeciesBath((SpeciesGroup(omega[0], g[:2], "paired"),
                            SpeciesGroup(omega[1], g[2:3]),
                            SpeciesGroup(omega[2], g[3:])))
        spins = list(zip(g, omega[[0, 0, 1, 2]]))
        got = spectroscopy_scan(bath, [0.05], m=m).signal[0]
        rho_b = np.kron(rho4, np.eye(4, dtype=complex) / 4)
        want = _flip_prob_dense(spins, m, 0.05, rho_b)
        assert abs(got - want) < 1e-12


def test_spectroscopy_peak_memory_does_not_grow_with_m():
    # only the running (A1, A0) pair is kept, never a stack over m
    rng = np.random.default_rng(9)
    bath = SpeciesBath((SpeciesGroup(10.0, rng.normal(0, 0.4, (6, 3))),))
    tau = np.linspace(0.05, 0.11, 300)
    peaks = {}
    for m in (4, 64):
        tracemalloc.start()
        spectroscopy_scan(bath, tau, m=m)
        peaks[m] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    grid_array = tau.size * 6 * 64     # one array of shape (T, n, 2, 2)
    assert peaks[64] < peaks[4] + grid_array
    assert peaks[64] < 12 * grid_array


def test_verification_contrast_example():
    # g1=3, g2=4, omega=10: the unpolarized reference responds to the
    # quadrature sum of couplings, the singlet only to their difference
    unpol = verification_scan(3.0, 4.0, 10.0)
    sing = verification_scan(3.0, 4.0, 10.0, preparation="singlet")
    assert unpol.reached and unpol.m_star == 2
    assert sing.reached and sing.m_star == 11
    ratio = sing.m_star / unpol.m_star
    assert 3.75 <= ratio <= 6.25
    assert unpol.status == "reached"


def test_verification_identical_couplings_stay_dark():
    res = verification_scan(3.5, 3.5, 10.0, preparation="singlet", m_max=50)
    assert not res.reached
    assert res.m_star is None
    assert res.max_probability < 1e-10
    assert res.status == "not reached"


def test_verification_defaults_and_validation():
    res = verification_scan(3.0, 4.0, 10.0, m_max=3)
    assert abs(res.tau_v - np.pi / 40) < 1e-15
    assert res.threshold == FLIP_THRESHOLD
    assert len(res.curve) == 3
    with pytest.raises(ValueError, match="omega"):
        verification_scan(3.0, 4.0, 0.0)
    # nan gave a nan curve, and inf a misleading "tau_v must be > 0"
    for omega in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite omega"):
            verification_scan(3.0, 4.0, omega, tau_v=0.1)
        with pytest.raises(ValueError, match="finite omega"):
            verification_scan(3.0, 4.0, omega)
    with pytest.raises(ValueError, match="finite"):
        verification_scan(np.nan, 4.0, 10.0)
    with pytest.raises(ValueError, match="preparation"):
        verification_scan(3.0, 4.0, 10.0, preparation="bogus")


def _rebuilt_path_operator(g, omega, tau, m):
    """A1^dag A0 after m blocks, rebuilt from the identity."""
    u_plus, u_minus = _expm_pair(g, omega, tau)
    x = u_plus @ u_minus
    y = u_minus @ u_plus
    a1 = np.eye(2, dtype=complex)
    a0 = np.eye(2, dtype=complex)
    for _ in range(m):
        a1, a0 = x @ a0, y @ a1
    return a1.conj().T @ a0


@pytest.mark.parametrize("m_max", [1, 2, 50, 200])
def test_verification_recurrence_matches_rebuild_per_m(m_max):
    # the one-pass curve matches rebuilding every path operator from
    # scratch for each m, from propagators of the matrix exponential
    rng = np.random.default_rng(60 + m_max)
    sing = phased_singlet(0.0)
    rho_pair = np.outer(sing, sing.conj())
    rho_one = {"mixed": _MIXED2,
               "polarized": np.diag([1.0, 0.0]).astype(complex),
               "unpolarized": np.full((2, 2), 0.5, dtype=complex)}
    for _ in range(3):
        g1, g2 = rng.normal(0.0, 3.0, 2)
        omega = rng.uniform(2.0, 20.0)
        tau = np.pi / (4.0 * omega)
        gs = [np.array([g1, 0.0, 0.0]), np.array([g2, 0.0, 0.0])]
        for prep in (*PREPARATIONS, "singlet"):
            got = verification_scan(g1, g2, omega, m_max=m_max,
                                     preparation=prep).curve
            want = []
            for m in range(1, m_max + 1):
                ops = [_rebuilt_path_operator(g, omega, tau, m) for g in gs]
                ov = 1.0 + 0.0j
                if prep in ("paired", "singlet"):
                    ov *= np.trace(rho_pair @ np.kron(ops[0], ops[1]))
                else:
                    for op in ops:
                        ov *= np.trace(rho_one[prep] @ op)
                want.append(float(0.5 * (1.0 - np.real(ov))))
            assert np.abs(got - np.array(want)).max() < 1e-12, prep


def test_verification_paired_alias():
    a = verification_scan(3.0, 4.0, 10.0, m_max=12, preparation="paired")
    b = verification_scan(3.0, 4.0, 10.0, m_max=12, preparation="singlet")
    assert np.array_equal(a.curve, b.curve)


def _one_group(g, omega):
    """A species bath of one mixed group."""
    return SpeciesBath((SpeciesGroup(omega, g),))


def test_coherence_normalized_at_zero_time():
    rng = np.random.default_rng(50)
    bath = _one_group(rng.normal(0, 1.0, (3, 3)), 2.0)
    out = coherence_trace("mixed", bath, [0.0, 0.1, 0.2])
    assert abs(out[0] - 1.0) < 1e-14
    assert np.all(out <= 1 + 1e-12)
    # no coupling: no decay at all
    bath0 = _one_group(np.zeros((2, 3)), 5.0)
    out = coherence_trace("mixed", bath0, np.linspace(0, 3, 7))
    assert np.abs(out - 1.0).max() < 1e-12


def test_coherence_single_spin_closed_form():
    # omega=0, g along z, mixed spin: U-^dag U+ = exp(2 i g t sigma_z),
    # so L(t) = |cos(2 g t)|
    g = 0.7
    bath = _one_group(np.array([[0.0, 0.0, g]]), 0.0)
    t = np.linspace(0, 4, 60)
    out = coherence_trace("mixed", bath, t)
    assert np.abs(out - np.abs(np.cos(2 * g * t))).max() < 1e-12


def test_coherence_dense_state_matches_tag():
    # dense oracle: |Tr[(kron_k U-^dag U+) rho]| on the joint bath space
    rng = np.random.default_rng(51)
    g, omega = rng.normal(0, 1.0, (3, 3)), 1.5
    t = np.linspace(0, 2, 15)
    by_tag = coherence_trace("mixed", _one_group(g, omega), t)
    rho = np.eye(8, dtype=complex) / 8
    by_state = np.empty(len(t))
    for it, tt in enumerate(t):
        op = np.eye(1, dtype=complex)
        for gk in g:
            u_plus, u_minus = _expm_pair(gk, omega, tt)
            op = np.kron(op, u_minus.conj().T @ u_plus)
        by_state[it] = abs(np.trace(op @ rho))
    assert np.abs(by_tag - by_state).max() < 1e-12


def test_coherence_group_tags_used_when_state_is_none():
    bath = SpeciesBath((
        SpeciesGroup(2.0, np.array([[0.3, 0.1, -0.2]]), "polarized"),
        SpeciesGroup(1.0, np.array([[0.2, -0.4, 0.1]]), "mixed"),
    ))
    t = np.linspace(0, 2, 9)
    a = coherence_trace(None, bath, t)
    # overriding every group with its own tag list reproduces it per group
    bath2 = SpeciesBath((
        SpeciesGroup(2.0, np.array([[0.3, 0.1, -0.2]]), "mixed"),
        SpeciesGroup(1.0, np.array([[0.2, -0.4, 0.1]]), "mixed"),
    ))
    b = coherence_trace(None, bath2, t)
    assert not np.allclose(a, b)  # the tag matters
    assert np.allclose(coherence_trace("mixed", bath, t), b)


def test_coherence_validation():
    bath = _one_group(np.array([[1.0, 0, 0]]), 1.0)
    # a CouplingSet carries no preparation: only a SpeciesBath is accepted
    with pytest.raises(ValueError, match="SpeciesBath"):
        coherence_trace("mixed", CouplingSet(np.array([[1.0, 0, 0]]), 1.0), [0.0, 0.1])
    # dense states are not accepted, only preparation tags
    with pytest.raises(ValueError, match="None or a preparation tag"):
        coherence_trace(np.eye(2) / 2, bath, [0.0])
    with pytest.raises(ValueError, match="preparation"):
        coherence_trace("thermal", bath, [0.0])


def test_retagged_bath_equals_bath_built_with_tag():
    g = np.array([[0.3, 0.1, -0.2], [0.2, -0.4, 0.1], [0.5, 0.0, 0.2], [0.1, 0.1, 0.1]])
    bath = SpeciesBath((SpeciesGroup(2.0, g[:2], "polarized"),
                        SpeciesGroup(1.0, g[2:], "paired")))
    for tag in PREPARATIONS:
        got = bath.retagged(tag)
        want = SpeciesBath((SpeciesGroup(2.0, g[:2], tag), SpeciesGroup(1.0, g[2:], tag)))
        assert [grp.preparation for grp in got.groups] == [tag, tag]
        for a, b in zip(got.groups, want.groups):
            assert a.omega == b.omega and np.array_equal(a.g_vectors, b.g_vectors)
        t = np.linspace(0, 2, 9)
        assert np.array_equal(coherence_trace(None, got, t),
                              coherence_trace(None, want, t))
        assert np.array_equal(coherence_trace(tag, bath, t),
                              coherence_trace(None, want, t))
    # retagging an odd group as paired breaks the even-count rule
    odd = SpeciesBath((SpeciesGroup(1.0, g[:3]),))
    with pytest.raises(ValueError, match="even"):
        odd.retagged("paired")


def test_block_states_match_the_preparation_table():
    # the one-spin states and the singlet outer product, written out here
    one_spin = {"mixed": np.eye(2, dtype=complex) / 2,
                "polarized": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
                "unpolarized": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)}
    sing = phased_singlet(0.0)
    rho4 = np.outer(sing, sing.conj())
    assert PREPARATIONS == ("mixed", "polarized", "paired", "unpolarized")
    g = np.zeros((4, 3))
    for tag in PREPARATIONS:
        for offset in (0, 3):
            blocks = _blocks_for(SpeciesGroup(1.0, g, tag), offset)
            if tag == "paired":
                want = [(rho4, (offset, offset + 1)), (rho4, (offset + 2, offset + 3))]
            else:
                want = [(one_spin[tag], (offset + k,)) for k in range(4)]
            assert len(blocks) == len(want)
            for (rho, spins), (rho_w, spins_w) in zip(blocks, want):
                assert np.array_equal(rho, rho_w) and spins == spins_w


def test_paired_identical_couplings_invisible():
    # a singlet pair with identical couplings contributes det(u) = 1 to
    # every path product: invisible in both coherence and spectroscopy
    g0 = np.array([[2.2, 0.3, 1.1], [2.2, 0.3, 1.1]])
    pair_grp = SpeciesGroup(10.0, g0, "paired")
    side = SpeciesGroup(9.0, np.array([[0.4, 0.1, 0.1]]), "mixed")
    t = np.linspace(0.0, 2.0, 40)
    with_pair = coherence_trace(None, SpeciesBath((pair_grp, side)), t)
    without = coherence_trace(None, SpeciesBath((side,)), t)
    assert np.abs(with_pair - without).max() < 1e-12

    tau = np.linspace(0.055, 0.105, 41)
    s_with = spectroscopy_scan(SpeciesBath((pair_grp, side)), tau, m=16)
    s_without = spectroscopy_scan(SpeciesBath((side,)), tau, m=16)
    assert np.abs(s_with.signal - s_without.signal).max() < 1e-12


def test_spectroscopy_exchange_symmetry():
    rng = np.random.default_rng(52)
    g = rng.normal(0, 0.4, (3, 3))
    tau = np.linspace(0.05, 0.11, 31)
    a = spectroscopy_scan(SpeciesBath((SpeciesGroup(10.0, g, "mixed"),)), tau)
    b = spectroscopy_scan(SpeciesBath((SpeciesGroup(10.0, g[::-1], "mixed"),)), tau)
    assert np.abs(a.signal - b.signal).max() < 1e-14
    # splitting one group into two with the same omega changes nothing
    split = SpeciesBath((SpeciesGroup(10.0, g[:1], "mixed"),
                         SpeciesGroup(10.0, g[1:], "mixed")))
    d = spectroscopy_scan(split, tau)
    assert np.abs(a.signal - d.signal).max() < 1e-14


def test_side_species_resolved_only_when_split():
    sides = lambda eps: SpeciesBath((
        SpeciesGroup(10.0 + eps, np.array([[0.45, 0.0, 0.12]]), "mixed"),
        SpeciesGroup(10.0 - eps, np.array([[0.40, 0.1, 0.10]]), "mixed"),
    ))
    tau = np.linspace(0.055, 0.105, 151)
    split = spectroscopy_scan(sides(1.0), tau, m=16)
    assert resolves_side_features(split, 10.0, 1.0)
    peaks = find_local_maxima(split.tau_grid, split.signal)
    assert len(peaks) == 2
    # resonances sit at pi/(4(omega +- eps))
    want = sorted([np.pi / 44, np.pi / 36])
    for (x, _), w in zip(sorted(peaks), want):
        assert abs(x - w) / w < 0.02
    merged = spectroscopy_scan(sides(0.0), tau, m=16)
    assert not resolves_side_features(merged, 10.0, 1.0)
    # a side resonance pi/(4(omega - |eps|)) that does not exist is an error,
    # not a division by zero or a match against a negative time
    for omega, eps in ((1.0, 1.0), (10.0, -10.0), (10.0, 12.0)):
        with pytest.raises(ValueError, match=r"\|epsilon\| < omega"):
            resolves_side_features(split, omega, eps)


def _local_maxima_loop(x, y, prominence):
    """The point-by-point scan find_local_maxima replaces, as a reference."""
    out = []
    for i in range(1, len(y) - 1):
        if y[i] >= y[i - 1] and y[i] >= y[i + 1] and (y[i] > y[i - 1] or y[i] > y[i + 1]):
            drop = y[i] - max(y[:i].min(), y[i + 1:].min())
            if drop >= prominence:
                out.append((float(x[i]), float(y[i])))
    return out


def test_find_local_maxima_matches_loop():
    # coarse rounding makes plateaus and ties; short inputs have no interior
    rng = np.random.default_rng(53)
    for _ in range(2000):
        n = int(rng.integers(0, 30))
        y = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 3)))
        x = np.linspace(0, 1, n)
        for prominence in (0.0, 0.05, 0.2):
            assert find_local_maxima(x, y, prominence) == _local_maxima_loop(
                x, y, prominence)


def test_find_local_maxima_synthetic():
    x = np.linspace(0, 1, 101)
    y = np.exp(-0.5 * ((x - 0.3) / 0.04) ** 2) + 0.6 * np.exp(-0.5 * ((x - 0.7) / 0.04) ** 2)
    peaks = find_local_maxima(x, y)
    assert len(peaks) == 2
    assert abs(peaks[0][0] - 0.3) < 0.02 and abs(peaks[1][0] - 0.7) < 0.02
    # below-prominence ripple is ignored
    flat = 0.5 + 0.001 * np.sin(20 * x)
    assert find_local_maxima(x, flat) == []
