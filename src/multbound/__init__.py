"""Exact computation of graded Betti tables, Hilbert series, Koszul
homology, and multiplicity bounds for monomial ideals and Stanley-Reisner
rings."""

from types import ModuleType as _ModuleType

from .monomials import (
    INFINITY,
    BoundVector,
    Monomial,
    MonomialIdeal,
    ideal_from_json,
    ideal_to_json,
    is_stable,
    minimalize,
    squarefree_strongly_stable_closure,
    stable_closure,
    strongly_stable_closure,
)
from .simplicial import (
    SimplicialComplex,
    complex_from_json,
    complex_of_ideal,
    complex_to_json,
    polarize,
    stanley_reisner_ideal,
)
from .homology import ExactMatrix
from .hilbert import (
    HilbertSummary,
    numerator,
    summarize,
)
from .betti import (
    NEG_INFINITY,
    BettiTable,
    Invariants,
    KoszulStrandTable,
    OracleCapError,
    ResolutionStats,
    betti_hochster,
    betti_linear_quotients,
    betti_oracle,
    betti_stable_formula,
    invariants,
    is_componentwise_linear,
    koszul_strands,
    regularity,
    stable_regularity,
    stats,
)
from .koszul import (
    ReductionReport,
    almost_regular_suffix,
    reduction_report,
)
from .bounds import (
    BoundReport,
    CheckResult,
    check_dual_identities,
    evaluate_ideal,
)
from .campaign import CampaignConfig, CampaignError, run_campaign

# the imported names; the submodules stay attributes (``from multbound import betti``)
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
