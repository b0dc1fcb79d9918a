"""Exact arithmetic for monomial curves in A^4 defined by almost arithmetic sequences.

The package computes defining ideals, Groebner bases, graded free resolutions,
Betti numbers and Hilbert series for the semigroup ring k[G] where G is generated
by an arithmetic sequence m0 < m1 < m2 together with one extra element n, and
cross-checks the generic machinery against closed-form structural results.
"""

from monocurve.analysis import (
    ALLOWED_TRIPLES,
    AnalysisReport,
    analyze_sequence,
    census_digest,
    enumerate_box,
    sweep,
)
from monocurve.closedform import (
    CaseId,
    CaseParameters,
    CaseUnmatched,
    DegreeImbalance,
    TemplateMismatch,
    canonical_generators,
    case_id,
    closed_form_base,
    closed_form_resolution,
    extract_parameters,
    graded_shifts,
)
from monocurve.groebner import (
    GroebnerBasis,
    ToricIdeal,
    buchberger,
    is_groebner,
    toric_kernel,
)
from monocurve.poly import Poly, Ring, parse, render
from monocurve.resolution import (
    BettiTable,
    FreeResolution,
    GradedFreeModule,
    GradedMap,
    betti_table,
    build_resolution,
    hilbert_numerator,
    minimalize,
    schreyer_syzygies,
)
from monocurve.semigroup import (
    SequenceSpec,
    SubSemigroup,
    ValidationError,
    apery_set,
    frobenius,
    min_multiple_in,
    series_numerator,
    validate_sequence,
)

__all__ = [
    "ALLOWED_TRIPLES",
    "AnalysisReport",
    "BettiTable",
    "CaseId",
    "CaseParameters",
    "CaseUnmatched",
    "DegreeImbalance",
    "FreeResolution",
    "GradedFreeModule",
    "GradedMap",
    "GroebnerBasis",
    "Poly",
    "Ring",
    "SequenceSpec",
    "SubSemigroup",
    "TemplateMismatch",
    "ToricIdeal",
    "ValidationError",
    "analyze_sequence",
    "apery_set",
    "betti_table",
    "buchberger",
    "build_resolution",
    "canonical_generators",
    "case_id",
    "census_digest",
    "closed_form_base",
    "closed_form_resolution",
    "enumerate_box",
    "extract_parameters",
    "frobenius",
    "graded_shifts",
    "hilbert_numerator",
    "is_groebner",
    "minimalize",
    "min_multiple_in",
    "parse",
    "render",
    "schreyer_syzygies",
    "series_numerator",
    "sweep",
    "toric_kernel",
    "validate_sequence",
]

__version__ = "0.1.0"
