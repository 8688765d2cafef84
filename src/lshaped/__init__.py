"""Two-stage stochastic LP solver with cut aggregation strategies."""

from .aggregation import (
    AggregationScheme,
    DistanceMeasure,
    Granulated,
    Kmedoids,
    MultiCut,
    Partial,
    SelectClosest,
    SingleCut,
    aggregation_distance,
    kmedoids_cluster,
    parse_scheme,
    scheme_label,
    validate_scheme,
)
from .bounds import (
    bell,
    binomial,
    bound_aggregated,
    bound_aggregated_upper,
    bound_dynamic,
    bound_dynamic_restricted,
    bound_multi_cut,
    bound_single_cut,
    stirling2,
)
from .cuts import (
    OptimalityCut,
    make_feasibility_cuts,
    make_optimality_cuts,
)
from .engine import (
    EngineConfig,
    IterationRecord,
    SolveReport,
    SolveStatus,
    Termination,
    compute_relative_complexities,
    solve_lshaped,
    solve_subproblem,
)
from .problem import (
    FirstStage,
    LinearProgram,
    RandomEntry,
    Scenario,
    StochasticTemplate,
    TwoStageProblem,
    build_extensive_form,
    enumerate_scenarios,
    sample_instance,
    validate_problem,
    validate_template,
)
from .rng import XorShift64Star
from .simplex import (
    KktReport,
    LpSolution,
    LpStatus,
    SimplexError,
    solve_lp,
    verify_farkas,
    verify_kkt,
)
from .smps import (
    ParseDiagnostic,
    ParseError,
    SmpsTriple,
    parse_native,
    parse_smps,
    write_native,
)

__version__ = "0.1.0"
