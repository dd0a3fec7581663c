"""Numerical laboratory for ground states of fractional KdV/BBM-type equations."""

from .spectral import (
    DispersionSymbol,
    Grid1D,
    RealField,
    apply_multiplier,
    d_alpha,
    field_from_values,
    integrate,
    l2_norm,
    make_grid,
    quad_form,
    resolvent,
    shift_field,
    spectral_tail,
)
from .functionals import (
    FunctionalValue,
    GNReport,
    bbm_hamiltonian,
    bbm_quadratic,
    energy_fkdv,
    energy_norm,
    gn_check,
    mass,
    weinstein,
)
from .ground_state import (
    MinimizerResult,
    ModelSpec,
    SolitaryWave,
    cstar,
    dilate_field,
    minimize_iq,
    petviashvili,
    rescale_solitary,
    solitary_from_profile,
    solve_refined,
)
from .verification import (
    CommutatorDecay,
    GNScanReport,
    IdentityReport,
    IqScalingReport,
    commutator_decay,
    gn_scan,
    identity_suite,
    iq_scaling_check,
    make_scan_battery,
    pohojaev_functional_check,
    smooth_bump,
)
from .evolution import (
    EvolutionTrace,
    StabilityReport,
    evolve,
    make_perturbation,
    orbital_distance,
    stability_experiment,
)
from .kp import (
    BLTReport,
    Grid2D,
    KPConsistencyReport,
    KPIntegrals,
    RealField2D,
    blt_ratio,
    dx_inv_dy,
    field2d_from_function,
    field2d_from_values,
    integrate2d,
    kp_energy,
    kp_identity_consistency,
    kp_rescale,
    make_grid2d,
    project_zero_x_mean,
)
from .errors import ConvergenceError, NoSolitaryWaveError, NumericalError

__version__ = "0.1.0"
