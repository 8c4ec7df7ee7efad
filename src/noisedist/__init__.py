"""Information-theoretic noise and disturbance for successive projective
qubit measurements.

The library computes the conditional-entropy noise N = H(A|M) and
disturbance D = H(B|B') of a sharp spin measurement, exactly and from
simulated counting data, applies outcome-conditioned correction operations,
and verifies the general bound N + D >= c_AB together with the tight qubit
tradeoff g[N]^2 + g[D]^2 <= 1 and its saturating boundary.
"""

__version__ = "0.1.0"

from .bloch import (
    OUTCOMES,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    CorrectionMap,
    Observable,
    ProjectiveInstrument,
    PureState,
    polar_observable,
)
from .bounds import (
    BoundaryCurve,
    BoundarySolverState,
    EnsembleMember,
    GridSearchResult,
    MaassenUffinkReport,
    OracleReport,
    boundary_curve,
    c_ab,
    check_bounds,
    correction_grid_search,
    disturbance_surface,
    ensemble_boundary_oracle,
    maassen_uffink_compare,
    optimal_correction,
    tight_value,
    variational_f,
    variational_solver_state,
)
from .counting import (
    IntensityTable,
    nd_from_counts,
    polar_angle,
    simulate_intensities,
)
from .entropy import (
    NDPoint,
    binary_entropy,
    binary_entropy_derivative,
    binary_entropy_inverse,
    disturbance,
    disturbance_bits,
    joint_tables,
    noise,
    noise_bits,
    theory_disturbance_optimal,
    theory_disturbance_uncorrected,
    theory_noise,
)
from .errors import DomainError, EstimationError, NoiseDistError, ValidationError
