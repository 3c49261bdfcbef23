import json
import random
import sys
from dataclasses import fields
from fractions import Fraction

import pytest

from multbound import betti
from multbound.bounds import (
    CHECK_NAMES,
    BoundReport,
    FAIL,
    INAPPLICABLE,
    PASS,
    check_dual_identities,
    evaluate_ideal,
    ideal_hash,
)
from multbound.cli import main
from multbound.monomials import Monomial, MonomialIdeal, minimalize
from multbound.simplicial import SimplicialComplex, complex_of_ideal, stanley_reisner_ideal


def ideal(n, *rows):
    return minimalize([Monomial(tuple(r)) for r in rows], n)


def cx(n, *facets):
    return SimplicialComplex.from_facets(n, [frozenset(f) for f in facets])


def record_calls(monkeypatch, original):
    """Replace a betti function at every binding in the package; return the
    list of ideals it is called on, in call order."""
    calls = []

    def recording(ideal, *args, **kwargs):
        calls.append(ideal)
        return original(ideal, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("multbound"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recording)
    return calls


def record_table_calls(monkeypatch):
    """The ideals whose Betti table is asked for, certified or not."""
    return record_calls(monkeypatch, betti._betti_table)


def record_oracle_calls(monkeypatch):
    """The ideals that reach the Betti oracle."""
    return record_calls(monkeypatch, betti.betti_oracle)


def uncertified(ideals):
    return [I for I in ideals if betti.betti_linear_quotients(I) is None]


# the 5-cycle: its Stanley-Reisner ideal is the edge ideal of a 5-cycle,
# which fails the linear-quotient certificate (173 candidate cells), while
# its dual ideal passes it
PENTAGON = cx(5, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5})
# two disjoint edges: the primal ideal passes the certificate, and the dual
# ideal (x1*x2, x3*x4) fails its last probe (25 candidate cells)
TWO_EDGES = cx(4, {1, 2}, {3, 4})
COMPLETE_INTERSECTION = ideal(4, (1, 1, 0, 0), (0, 0, 1, 1))


def verdict(I, name, **kw):
    report = evaluate_ideal(I, (name,), **kw)
    return report.results[name].verdict


class TestUpperBound:
    def test_linear_sequence_tight(self):
        report = evaluate_ideal(ideal(2, (1, 0), (0, 1)), ("c2",))
        assert report.results["c2"].verdict == PASS
        assert report.upper_bound == Fraction(1) and report.tightness == 1

    def test_square_of_maximal_ideal_tight(self):
        report = evaluate_ideal(ideal(2, (2, 0), (1, 1), (0, 2)), ("c2",))
        assert report.results["c2"].verdict == PASS
        assert report.record.summary.multiplicity == 3 and report.upper_bound == Fraction(3)
        assert report.tightness == 1

    def test_principal_quadric_tight(self):
        report = evaluate_ideal(ideal(2, (1, 1)), ("c2",))
        assert report.results["c2"].verdict == PASS
        assert report.record.summary.multiplicity == 2 and report.upper_bound == Fraction(2)


class TestTwoSidedBound:
    def test_complete_intersection(self):
        report = evaluate_ideal(ideal(3, (1, 1, 0), (0, 0, 2)), ("c1",))
        assert report.results["c1"].verdict == PASS
        assert report.record.summary.multiplicity == 4
        assert report.lower_bound == Fraction(4) and report.record.cm

    def test_linear_sequence(self):
        assert verdict(ideal(2, (1, 0), (0, 1)), "c1") == PASS

    def test_non_cm_inapplicable(self):
        assert verdict(ideal(3, (1, 1, 0), (1, 0, 1)), "c1") == INAPPLICABLE


class TestPureFormula:
    def test_linear_sequence(self):
        assert verdict(ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)), "hm") == PASS

    def test_square_of_maximal_ideal(self):
        assert verdict(ideal(2, (2, 0), (1, 1), (0, 2)), "hm") == PASS

    def test_principal(self):
        assert verdict(ideal(2, (1, 1)), "hm") == PASS

    def test_impure_inapplicable(self):
        assert verdict(ideal(2, (2, 0), (0, 3)), "hm") == INAPPLICABLE


class TestRegularityBinomialBound:
    def test_square_of_maximal_ideal(self):
        report = evaluate_ideal(ideal(2, (2, 0), (1, 1), (0, 2)), ("weak",))
        assert report.results["weak"].verdict == PASS
        assert report.weak_bound == 3 and report.record.stats.corner == 2

    def test_principal_quadric(self):
        report = evaluate_ideal(ideal(2, (1, 1)), ("weak",))
        assert report.results["weak"].verdict == PASS
        assert report.weak_bound == 2 and report.record.stats.corner == 1

    def test_linear_sequence(self):
        report = evaluate_ideal(ideal(2, (1, 0), (0, 1)), ("weak",))
        assert report.results["weak"].verdict == PASS
        assert report.weak_bound == 1


class TestShiftLadderHypothesis:
    def test_squarefree_strongly_stable_triangle(self):
        assert verdict(ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1)), "hyp") == PASS

    def test_complete_intersection_violates_hypothesis(self):
        assert verdict(ideal(2, (2, 0), (0, 3)), "hyp") == INAPPLICABLE

    def test_linear_sequence(self):
        assert verdict(ideal(3, (1, 0, 0), (0, 1, 0)), "hyp") == PASS


class TestComponentwiseLinearCheck:
    def test_pass(self):
        assert verdict(ideal(2, (1, 0), (0, 3)), "cwl") == PASS

    def test_fail(self):
        assert verdict(ideal(2, (2, 0), (0, 3)), "cwl") == FAIL


class TestDualCheck:
    def test_two_edges(self):
        result = check_dual_identities(cx(3, {1, 3}, {2, 3}))
        assert result.verdict == PASS

    def test_path(self):
        assert check_dual_identities(cx(3, {1, 2}, {2, 3})).verdict == PASS

    def test_full_simplex_inapplicable(self):
        assert check_dual_identities(SimplicialComplex.full(2)).verdict == INAPPLICABLE

    def test_dual_over_cap_is_inapplicable(self, monkeypatch):
        # the primal ideal is certified, so no budget applies to it; the
        # dual ideal (x1*x2, x3*x4) has 25 candidate cells, over a budget of 24
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 24)
        result = check_dual_identities(TWO_EDGES)
        assert result.verdict == INAPPLICABLE
        assert "at least 25 candidate cells exceed the oracle budget 24" in result.detail

    def test_dual_over_cap_skips_the_primal_oracle(self, monkeypatch):
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 24)
        tables = record_table_calls(monkeypatch)
        oracle = record_oracle_calls(monkeypatch)
        check_dual_identities(TWO_EDGES)
        assert tables == oracle == [COMPLETE_INTERSECTION]

    def test_primal_over_cap_is_inapplicable(self, monkeypatch):
        # the 5-cycle's primal ideal has 173 candidate cells, over a budget
        # of 172; its dual ideal is certified and needs no budget
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 172)
        tables = record_table_calls(monkeypatch)
        oracle = record_oracle_calls(monkeypatch)
        result = check_dual_identities(PENTAGON)
        assert result.verdict == INAPPLICABLE
        assert "at least 173 candidate cells exceed the oracle budget 172" in result.detail
        primal = stanley_reisner_ideal(PENTAGON)
        assert tables == [stanley_reisner_ideal(PENTAGON.alexander_dual()), primal]
        assert oracle == [primal]

    def test_routed_through_squarefree_ideal(self):
        assert verdict(ideal(3, (1, 1, 0)), "dual") == PASS

    def test_non_squarefree_inapplicable(self):
        assert verdict(ideal(2, (2, 0)), "dual") == INAPPLICABLE

    def test_dual_ideal_is_the_stanley_reisner_ideal_of_the_dual(self, monkeypatch):
        rng = random.Random(606)
        calls = record_table_calls(monkeypatch)
        oracle = record_oracle_calls(monkeypatch)
        for _ in range(30):
            n = rng.randint(2, 6)
            rows = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(rng.randint(1, 5))]
            I = ideal(n, *rows)
            if I.is_zero or I.is_unit:
                continue
            calls.clear()
            oracle.clear()
            evaluate_ideal(I, ("dual",))
            assert calls == [I, stanley_reisner_ideal(complex_of_ideal(I).alexander_dual())]
            assert oracle == uncertified(calls)


class TestInvariantsOnce:
    """Each ideal asks for its Betti table at most once per evaluation, and
    only the uncertified ones reach the oracle."""

    @pytest.mark.parametrize("rows", [
        [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1), (1, 0, 0, 0, 1)],
        [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
        [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1), (1, 0, 1, 0, 1)],
    ])
    def test_evaluate_ideal(self, monkeypatch, rows):
        I = ideal(len(rows[0]), *rows)
        calls = record_table_calls(monkeypatch)
        oracle = record_oracle_calls(monkeypatch)
        report = evaluate_ideal(I, CHECK_NAMES)
        assert report.results["dual"].verdict == PASS
        assert calls.count(I) == 1
        assert len(set(calls)) == len(calls)
        assert oracle == uncertified(calls)

    def test_certified_ideal_never_reaches_the_oracle(self, monkeypatch):
        # the path 1-2-3-4: its edge ideal and its dual both pass the certificate
        I = ideal(4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))
        calls = record_table_calls(monkeypatch)
        oracle = record_oracle_calls(monkeypatch)
        report = evaluate_ideal(I, CHECK_NAMES)
        assert not report.any_fail and report.record.route == betti.ROUTE_LINEAR_QUOTIENTS
        assert calls == [I, stanley_reisner_ideal(complex_of_ideal(I).alexander_dual())]
        assert oracle == []

    def test_check_with_grid(self, monkeypatch, tmp_path, capsys):
        rows = [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [1, 0, 0, 0, 1]]
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 5, "generators": rows}))
        calls = record_table_calls(monkeypatch)
        oracle = record_oracle_calls(monkeypatch)
        main(["check", str(path), "--checks", ",".join(CHECK_NAMES), "--betti-grid"])
        assert "total:" in capsys.readouterr().out
        assert calls.count(ideal(5, *rows)) == 1
        assert len(set(calls)) == len(calls)
        assert oracle == uncertified(calls) and ideal(5, *rows) in oracle

    def test_record_over_cap(self, monkeypatch):
        # (x1*x2, x3*x4) fails the certificate and has 25 candidate cells
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 24)
        record = betti.invariants(COMPLETE_INTERSECTION)
        assert record.table is None and record.stats is None and record.cm is None
        assert record.route == betti.ROUTE_ORACLE
        assert "at least 25 candidate cells exceed the oracle budget 24" in record.cap_message
        assert record.summary.multiplicity == 4
        with pytest.raises(betti.OracleCapError):
            betti.is_componentwise_linear(record)

    def test_report_carries_the_table(self, monkeypatch):
        I = COMPLETE_INTERSECTION
        assert evaluate_ideal(I).record.table == betti.betti_oracle(I)
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 24)
        assert evaluate_ideal(I).record.table is None

    def test_certified_record_ignores_the_budget(self, monkeypatch):
        I = ideal(2, (2, 0), (1, 1), (0, 2))
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 1)
        record = betti.invariants(I)
        assert record.route == betti.ROUTE_LINEAR_QUOTIENTS and record.cap_message is None
        assert evaluate_ideal(I).record.table == record.table
        monkeypatch.undo()
        assert record.table == betti.betti_oracle(I)

    def test_report_route(self):
        assert evaluate_ideal(ideal(2, (2, 0), (1, 1), (0, 2))).record.route == "linear-quotients"
        assert evaluate_ideal(COMPLETE_INTERSECTION).record.route == "oracle"


class TestReportPlumbing:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            evaluate_ideal(ideal(2, (1, 1)), ("nope",))

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            evaluate_ideal(MonomialIdeal.unit(2), ("c2",))

    def test_cap_exceeded_marks_inapplicable(self, monkeypatch):
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 24)
        report = evaluate_ideal(COMPLETE_INTERSECTION, ("c2", "weak"))
        assert all(r.verdict == INAPPLICABLE for r in report.results.values())
        assert report.record.stats is None

    def test_report_carries_the_record(self):
        # the report adds the checks' verdicts and bounds to the one record, and copies none of it
        I = COMPLETE_INTERSECTION
        report = evaluate_ideal(I, ("c2",))
        assert [f.name for f in fields(BoundReport)] == [
            "record", "results", "upper_bound", "lower_bound", "weak_bound", "tightness",
        ]
        assert report.record == betti.invariants(I) and report.record.ideal is I

    def test_hash_stable(self):
        I = ideal(2, (1, 1))
        assert ideal_hash(I) == ideal_hash(ideal(2, (1, 1)))
        assert ideal_hash(I) != ideal_hash(ideal(2, (2, 0)))

    def test_verdict_text_ordering(self):
        report = evaluate_ideal(ideal(2, (1, 1)), ("weak", "c2"))
        assert report.verdict_text() == "c2=pass|weak=pass"

    def test_zero_ideal_trivial_bounds(self):
        report = evaluate_ideal(MonomialIdeal.zero(2), ("c2", "weak", "c1", "hm"))
        assert not report.any_fail
        assert report.record.summary.multiplicity == 1 and report.record.summary.codim == 0
        assert report.upper_bound == Fraction(1)


class TestBoundStrength:
    def test_codim_bound_at_most_cm_upper_bound(self):
        # with every max shift at least its index, the length-c product over
        # c! is dominated by the length-p product over p! on CM quotients
        import random
        from math import factorial, prod

        from multbound.betti import betti_oracle, stats
        from multbound.hilbert import summarize
        from multbound.monomials import minimalize as mk

        rng = random.Random(3)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            gens = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 3)
                e = [0] * n
                for _ in range(d):
                    e[rng.randrange(n)] += 1
                gens.append(Monomial(tuple(e)))
            I = mk(gens, n)
            st = stats(betti_oracle(I))
            summary = summarize(I)
            if st.pdim != summary.codim:
                continue
            assert all(st.max_shift(i) >= i for i in range(1, st.pdim + 1))
            c, p = summary.codim, st.pdim
            lhs = Fraction(prod(st.max_shifts[:c]), factorial(c))
            rhs = Fraction(prod(st.max_shifts), factorial(p))
            assert lhs <= rhs
            checked += 1
        assert checked >= 20
