"""Configurations of six plane points with nef anticanonical blow-up.

Classification of the 90 configuration types of six (possibly infinitely
near) points whose blow-up desingularizes a normal cubic surface, and exact
computation of Hilbert functions and graded Betti numbers of fat point ideals
supported on them.  Everything runs on integer lattice data; no polynomial
algebra is involved.
"""

from .curves import (
    AMPLE_CLASS,
    MuBoundsReport,
    MuStats,
    NegCurveSet,
    ReductionResult,
    candidate_pool,
    check_mu_bounds,
    euler_characteristic,
    full_neg,
    h0,
    h1,
    h2,
    is_nef,
    minus_one_candidates,
    mu_stats,
    reduce_to_nef,
)
from .errors import ConsistencyError, ValidationError
from .fatpoints import (
    GradedResolution,
    HilbertFunction,
    SchemeAnalysis,
    Table2Report,
    analyze,
    fatpoint_class,
    hilbert_function,
    minimal_resolution,
    proximity_reduce,
    table2,
)
from .lattice import (
    DivisorClass,
    E,
    K,
    L,
    ZERO,
    e,
    intersect,
    permute_points,
    selfint,
)
from .notation import format_negset, parse_negset
from .typeenum import (
    ConfigurationType,
    DynkinGraph,
    TorsionGroup,
    classify,
    dynkin_graph,
    enumerate_types,
    smith_invariant_factors,
    table1_text,
    torsion,
    type_by_id,
)
from .verify import run_invariant_suite, sample_nef

__version__ = "10.4.0"
