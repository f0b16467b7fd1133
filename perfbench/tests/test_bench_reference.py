import numpy as np
import pytest

from pairbath import CouplingSet, ProtocolConfig, maximally_mixed, run_protocol
from pairbath.dynamics_dense import all_pair_rdms
from reference import best_phase_fidelity, concurrence, mixed_state_reference


@pytest.mark.parametrize("n, m, alpha, beta", [
    (2, 6, 2 ** -0.5, 2 ** -0.5),
    (4, 5, 0.6, 0.8j),
    (6, 4, 0.8, -0.6),
    (8, 3, 2 ** -0.5, 2 ** -0.5),
])
def test_reference_matches_dense_engine(n, m, alpha, beta):
    rng = np.random.default_rng(n)
    g = rng.normal(0.0, 1.2, size=(n, 3))
    omega, tau = 1.3, 0.4
    c = CouplingSet(g, omega)
    cfg = ProtocolConfig(omega=omega, tau=tau, measurements=m, alpha=alpha, beta=beta)
    traj = run_protocol(maximally_mixed(n), cfg, c)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cum, rdms = mixed_state_reference(g, omega, tau, m, pairs, alpha, beta)
    assert np.abs(cum - traj.cumulative_p).max() < 1e-12
    dense = all_pair_rdms(traj.final_rho, n)
    for p in pairs:
        assert np.abs(rdms[p] - dense[p]).max() < 1e-12


def test_pair_functionals_on_reference_states():
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    rho = np.outer(singlet, singlet)
    assert best_phase_fidelity(rho) == pytest.approx(1.0)
    assert concurrence(rho) == pytest.approx(1.0)
    mixed = np.eye(4) / 4
    assert best_phase_fidelity(mixed) == pytest.approx(0.25)
    assert concurrence(mixed) == 0.0
