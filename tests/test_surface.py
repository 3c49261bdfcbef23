"""The public surface, pinned so that every addition or deletion shows up
as a one-line diff here."""

import ast
import inspect
from dataclasses import fields

import pytest

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
        "evaluate_ideal", "ideal_from_json",
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


def test_strand_tables_live_beside_the_oracle():
    # reduction_report reads the strand tables through koszul's binding,
    # and only betti knows the lcm-code format and the cell budget
    assert multbound.koszul.koszul_strands is multbound.betti.koszul_strands is koszul_strands
    assert multbound.KoszulStrandTable is multbound.betti.KoszulStrandTable
    tree = ast.parse(inspect.getsource(multbound.koszul))
    private = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "betti" and node.attr.startswith("_")]
    private += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "betti"
                for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_one_refusal_site_for_the_cell_budget(monkeypatch):
    # (x1^3, x2^3) has 9 candidate cells in the oracle and more in its
    # strand tables; both refuse a budget of 8 through betti._charge
    real, refused = multbound.betti._charge, []

    def charge(cells, where=""):
        try:
            real(cells, where)
        except multbound.OracleCapError as exc:
            refused.append(str(exc))
            raise

    monkeypatch.setattr(multbound.betti, "_charge", charge)
    monkeypatch.setattr(multbound.betti, "ORACLE_BUDGET", 8)
    I = multbound.minimalize([Monomial((3, 0)), Monomial((0, 3))], 2)
    with pytest.raises(multbound.OracleCapError):
        multbound.betti_oracle(I)
    with pytest.raises(multbound.OracleCapError):
        koszul_strands(I, 1, 10)
    assert refused == [  # the k = 1 table: 11 heads x1^d over x2^0, 8 over the two cells of x2^3
        "at least 9 candidate cells exceed the oracle budget 8",
        "at least 27 candidate cells in the Koszul strand table exceed the oracle budget 8",
    ]


def test_every_check_reads_the_record():
    # each _CHECKS value is a named function of the Invariants record alone,
    # and bounds reaches a Hilbert summary only through that record
    for name, check in multbound.bounds._CHECKS.items():
        assert check.__name__ != "<lambda>", name
        assert list(inspect.signature(check).parameters) == ["record"], name
    assert "hilbert" not in vars(multbound.bounds)
    tree = ast.parse(inspect.getsource(multbound.bounds))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "hilbert"]


def test_one_alexander_dual():
    # the dual check reads stanley_reisner_ideal(complex_.alexander_dual()),
    # so simplicial has no second dual-ideal builder and bounds builds no
    # ideal through a private constructor of a module it imports from
    assert not hasattr(multbound.simplicial, "facet_duality_generators")
    tree = ast.parse(inspect.getsource(multbound.bounds))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id in imported and node.attr.startswith("_")]
    assert private == []
