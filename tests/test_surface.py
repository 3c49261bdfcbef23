"""The public surface, pinned so that every addition or deletion shows up
as a one-line diff here."""

import inspect
from dataclasses import fields

import multbound
from multbound import ExactMatrix, Monomial, ResolutionStats, koszul_strands


def public_attributes(cls):
    return sorted({f.name for f in fields(cls)} | {n for n in dir(cls) if not n.startswith("_")})


def test_public_surface():
    assert sorted(multbound.__all__) == [
        "BettiTable", "BoundReport", "BoundVector", "CampaignConfig", "CampaignError",
        "CheckResult", "ExactMatrix", "HilbertSummary", "INFINITY", "Invariants",
        "KoszulStrandTable", "Monomial", "MonomialIdeal", "NEG_INFINITY", "OracleCapError",
        "ReductionReport", "ResolutionStats", "SimplicialComplex", "almost_regular_suffix",
        "betti_hochster", "betti_linear_quotients", "betti_oracle",
        "betti_stable_formula",
        "check_dual_identities", "complex_from_json", "complex_of_ideal", "complex_to_json",
        "evaluate_ideal", "facet_duality_generators", "ideal_from_json",
        "ideal_to_json", "invariants", "is_componentwise_linear",
        "is_stable", "koszul_strands", "minimalize",
        "numerator", "polarize",
        "reduction_report", "regularity", "run_campaign",
        "squarefree_strongly_stable_closure", "stable_closure", "stable_regularity",
        "stanley_reisner_ideal", "stats", "strongly_stable_closure", "summarize",
    ]
    assert multbound.betti.betti_oracle is multbound.betti_oracle  # submodules stay attributes
    assert public_attributes(ExactMatrix) == ["cols", "compose", "entries", "rank", "rows"]
    assert public_attributes(Monomial) == [
        "degree", "divides", "exponents", "is_constant", "is_squarefree", "n", "one", "sort_key", "support",
    ]
    assert public_attributes(ResolutionStats) == [
        "corner", "max_shift", "max_shifts", "min_shifts", "pdim", "pure", "reg",
    ]
    assert list(inspect.signature(koszul_strands).parameters) == ["ideal", "k", "degree_bound"]
    # the linear-algebra layer imports nothing from the complexes it serves
    assert not [name for name, value in vars(multbound.homology).items()
                if value is multbound.simplicial or getattr(value, "__module__", None) == "multbound.simplicial"]


def test_monomials_functions():
    # the closures and the stability tests share the private tuple steps;
    # no Monomial-level move generator sits beside them
    defined = {name for name, value in vars(multbound.monomials).items()
               if inspect.isfunction(value) and value.__module__ == "multbound.monomials"}
    assert sorted(name for name in defined if not name.startswith("_")) == [
        "colon_exponents", "ideal_from_json", "ideal_to_json", "is_stable", "minimalize",
        "squarefree_strongly_stable_closure", "stable_closure", "strongly_stable_closure",
    ]
