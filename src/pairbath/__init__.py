"""Measurement-conditioned purification and singlet pairing of spin baths."""

from .errors import CapacityError, ConfigError
from .spin_core import (
    CouplingSet,
    SpinGeometry,
    chain_geometry,
    dimer_chain_geometry,
    dipolar_couplings,
    effective_coupling,
    optimal_params,
    plane_geometry,
)
from .dynamics_dense import (
    ProtocolConfig,
    Trajectory,
    all_pair_rdms,
    apply_projection,
    build_V,
    maximally_mixed,
    purity,
    run_protocol,
)
from .dynamics_factored import (
    extend,
    mixed_state_monte_carlo,
    pair_rdm,
    pair_rdms,
    reduced_density_matrix,
    run_factored,
    success_probability,
)
from .analysis import (
    PairAssignment,
    best_phase,
    classical_steady_state_check,
    concurrence,
    detect_pairing,
    pair_fidelity,
    phased_singlet,
    singlet_state,
)
from .protocols import (
    SpeciesBath,
    SpeciesGroup,
    coherence_trace,
    resolves_side_features,
    spectroscopy_scan,
    verification_scan,
)

__version__ = "0.1.0"
