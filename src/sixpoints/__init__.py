"""Configurations of six plane points with nef anticanonical blow-up.

Classification of the 90 configuration types of six (possibly infinitely
near) points whose blow-up desingularizes a normal cubic surface, and exact
computation of Hilbert functions and graded Betti numbers of fat point ideals
supported on them.  Everything runs on integer lattice data; no polynomial
algebra is involved.
"""

from .curves import (
    AMPLE_CLASS,
    CandidateFamilies,
    NegCurveSet,
    ReductionResult,
    candidate_families,
    euler_characteristic,
    full_neg,
    h0,
    h1,
    h2,
    is_nef,
    minus_one_candidates,
    reduce_to_nef,
)
from .errors import ConsistencyError, ValidationError
from .fatpoints import (
    FatPointScheme,
    GradedResolution,
    HilbertFunction,
    SchemeAnalysis,
    Table2Report,
    analyze,
    fatpoint_class,
    generator_degrees,
    hilbert_I,
    hilbert_function,
    minimal_resolution,
    proximity_reduce,
    resolution,
    table2,
)
from .lattice import (
    CollinearityMatrix,
    DivisorClass,
    E,
    K,
    L,
    ZERO,
    canonical_class,
    e,
    from_collinearity_matrix,
    intersect,
    permute_points,
    selfint,
)
from .notation import format_negset, parse_negset
from .typeenum import (
    ConfigurationType,
    DynkinGraph,
    TorsionGroup,
    candidate_pool,
    canonicalize,
    classify,
    dynkin_graph,
    enumerate_types,
    smith_invariant_factors,
    table1_text,
    torsion,
    type_by_id,
)
from .verify import (
    MuBoundsReport,
    MuStats,
    check_mu_bounds,
    mu_stats,
    run_invariant_suite,
    sample_nef,
    usable_point_indices,
)

__version__ = "1.0.0"
