"""Logarithmic connections over the punctured sphere, numerically.

Local normal forms of connections d + A(z) dz/z, weighted flat bundles
with degree/slope/semistability, constructive Fuchsian synthesis, and
independent verification by loop integration.
"""

from .series import MatrixSeries, NumericFailure, ShapeMismatchError, WeightDiagonal
from .eigen import (
    NonConvergenceError,
    NormalizedLog,
    SingularMatrixError,
    SpectralSplit,
    cluster_expm,
    eigenvalues,
    floor_snap,
    norm_log,
    norm_log_scalar,
    schur,
    spectral_split,
)
from .localforms import (
    ConvergenceReport,
    LocalLogConnection,
    NormalForm,
    convergence_diagnostic,
    fundamental_check,
    gauge_residual,
    integer_weights,
    normal_form,
)
from .bundles import (
    InvariantSubspaces,
    Representation,
    Semistability,
    WeightedFlag,
    WeightedFlatBundle,
    degree,
    invariant_subspaces,
    local_extension,
    semistable,
    slope,
)
from .synth import (
    BqFrame,
    CyclicWeightPlan,
    FuchsianSystem,
    Infeasible,
    Rank3Decision,
    Rank3Verdict,
    SplittingType,
    WeightMatrixFamily,
    bq_frame,
    bt_obstruction,
    commutative_fuchsian,
    cyclic_weight_plan,
    double_rank_embedding,
    jordan_block_count,
    rank3_decide,
    shift_weights,
    solve_weights_parabolic,
    splitting_bound_check,
    validate_weight_family,
)
from .verify import (
    GrowthEstimate,
    IntegrationError,
    LoopPath,
    MonodromyReport,
    Transport,
    circle_loop,
    conjugacy_compare,
    growth_exponent,
    integrate_fuchsian,
    integrate_local,
    monodromy_report,
    relation_order,
    standard_loops,
)

__version__ = "0.1.0"
