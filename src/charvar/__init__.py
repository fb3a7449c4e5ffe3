"""charvar: exact invariants of PGL(n) character varieties of genus-g curves.

The package computes, by exact arithmetic only, the point-count E-polynomials,
the conjectural two-variable mixed Hodge polynomials H_n(q,t) and their
three-variable (q,x,y) refinement, and the pure-part Poincare polynomials
PP_n(t), all from partition-indexed generating functions; and it verifies the
counting side independently on small finite matrix groups via brute force and
Burnside-Dixon character tables.
"""

from types import ModuleType as _ModuleType

from .errors import (
    CentralElementUnavailable,
    CharvarError,
    ConstantTermNotOne,
    ContextError,
    GroupTooLarge,
    KindMismatch,
    LiftFailure,
    NegativeExponentAtZero,
    NonIntegerCoefficient,
    NonIntegralCount,
    NotDivisible,
    NotPolynomial,
    UnsupportedGenus,
)
from .polynomials import (
    FLAVOR_E,
    FLAVOR_PURE,
    FLAVOR_QT,
    FLAVOR_XY,
    BinomialFactor,
    FactoredFraction,
    Flavor,
    SparsePoly,
    adams,
    adams_poly,
    binomial_product,
    divide_exact,
    frac_sum,
    poly_text,
)
from .partitions import Cell, DiagramStats, Partition, cell_stats, hook_term, partitions_of
from .series import (
    TruncatedSeries,
    extract_layers,
    hook_sum_series,
    invariant_from_layer,
    series_log,
)
from .invariants import (
    CheckEntry,
    CheckReport,
    InvariantCache,
    InvariantKind,
    InvariantResult,
    closed_form,
    compute_invariant,
    curious_duality_entry,
    moebius,
    palindrome_entry,
    parse_kind,
    run_check,
    specialize_invariant,
)
from .groups import (
    ClassFunction,
    ConjugacyData,
    MatrixGroup,
    build_group,
    commutator_distribution,
    diagonal_group,
    tuple_count,
)
from .characters import (
    CharacterTable,
    FrobeniusCounts,
    character_table,
    cyclotomic_polynomial,
    frobenius_sums,
    verify_orthogonality,
)
from .bridge import BridgeReport, point_count_bridge

# the imports above also bind the submodules; they stay attributes, not exports
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"

