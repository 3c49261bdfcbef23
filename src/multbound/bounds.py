"""Multiplicity bound checks.

Every comparison is exact: integers are cross-multiplied (e * c! against
the product of maximal shifts) and never rounded.  Checks report one of
three verdicts: pass, fail, or inapplicable (hypotheses not met).

Every check reads one ``betti.Invariants`` record of the ideal, passed as
its argument, so a table from any route is checked by building its record.
The record builds its table from the linear-quotient certificate when that
holds, else from the budgeted Betti oracle, and computes its Hilbert summary
and stats on first read.  cwl passes at once on a certified record and
otherwise reads the tables of the truncations' records; dual reads the table
of the dual ideal's record.  Those records read no Hilbert series, and they
reach the oracle only for ideals that fail the certificate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .betti import Invariants, invariants, is_componentwise_linear, regularity
from .monomials import MonomialIdeal, ideal_to_json
from .simplicial import SimplicialComplex, complex_of_ideal, stanley_reisner_ideal

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str
    detail: str = ""


def ideal_hash(ideal: MonomialIdeal) -> str:
    payload = json.dumps(ideal_to_json(ideal), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class BoundReport:
    """One quotient's invariants record, the check verdicts, and the bounds
    the checks derive from the record.  Over the oracle budget the record has
    no stats, every verdict is inapplicable and the bounds are None;
    lower_bound is None too when the quotient is not Cohen-Macaulay."""

    record: Invariants
    results: dict[str, CheckResult]
    upper_bound: Fraction | None = None
    lower_bound: Fraction | None = None
    weak_bound: int | None = None
    tightness: Fraction | None = None

    @property
    def any_fail(self) -> bool:
        return self._fails(self.verdict_text())

    @staticmethod
    def _fails(verdicts: str) -> bool:
        return any(v.endswith("=" + FAIL) and v != "cwl=" + FAIL for v in verdicts.split("|"))  # cwl bounds nothing

    def verdict_text(self) -> str:
        ordered = [n for n in CHECK_NAMES if n in self.results]
        return "|".join(f"{n}={self.results[n].verdict}" for n in ordered)


def check_upper_bound_codim(record: Invariants) -> CheckResult:
    """e * c! <= product of the first c maximal shifts (c = codim)."""
    summary, st = record.summary, record.stats
    c = summary.codim
    if c > st.pdim:
        raise AssertionError("codimension exceeds the projective dimension")
    bound = prod(st.max_shifts[:c])
    ok = summary.multiplicity * factorial(c) <= bound
    detail = f"e={summary.multiplicity}, codim={c}, prod M_1..M_c={bound}"
    return CheckResult("c2", PASS if ok else FAIL, detail)


def check_two_sided_bound_cm(record: Invariants) -> CheckResult:
    """prod m_i / p! <= e <= prod M_i / p! for Cohen-Macaulay quotients."""
    if not record.cm:
        return CheckResult("c1", INAPPLICABLE, "quotient is not Cohen-Macaulay")
    st = record.stats
    p = st.pdim
    lower = prod(st.min_shifts)
    upper = prod(st.max_shifts)
    scaled = record.summary.multiplicity * factorial(p)
    ok = lower <= scaled <= upper
    detail = f"prod m={lower} <= e*p!={scaled} <= prod M={upper}"
    return CheckResult("c1", PASS if ok else FAIL, detail)


def check_pure_multiplicity_formula(record: Invariants) -> CheckResult:
    """Huneke-Miller: e = (prod of the pure shift degrees) / p! exactly,
    for Cohen-Macaulay quotients with a pure resolution, whose shift at
    each step is its maximal shift."""
    if not record.cm:
        return CheckResult("hm", INAPPLICABLE, "quotient is not Cohen-Macaulay")
    st = record.stats
    if not st.pure:
        return CheckResult("hm", INAPPLICABLE, "resolution is not pure")
    scaled = record.summary.multiplicity * factorial(st.pdim)
    ok = scaled == prod(st.max_shifts)
    detail = f"e*p!={scaled}, prod d={prod(st.max_shifts)}"
    return CheckResult("hm", PASS if ok else FAIL, detail)


def check_regularity_binomial_bound(record: Invariants) -> CheckResult:
    """codim <= corner index of the regularity row, and
    e <= C(reg + codim, codim)."""
    summary, st = record.summary, record.stats
    c = summary.codim
    bound = comb(st.reg + c, c)
    ok = c <= st.corner and summary.multiplicity <= bound
    detail = f"codim={c} vs corner={st.corner}; e={summary.multiplicity} vs C(reg+c,c)={bound}"
    return CheckResult("weak", PASS if ok else FAIL, detail)


def check_shift_ladder_hypothesis(record: Invariants) -> CheckResult:
    """When every maximal shift up to the codimension equals reg + i,
    the codimension upper bound must hold (and is re-checked)."""
    st = record.stats
    holds = all(st.max_shift(i) == st.reg + i for i in range(1, record.summary.codim + 1))
    if not holds:
        return CheckResult("hyp", INAPPLICABLE, "maximal shifts do not sit on the regularity row")
    inner = check_upper_bound_codim(record)
    return CheckResult("hyp", inner.verdict, "hypothesis holds; " + inner.detail)


def check_componentwise_linear(record: Invariants) -> CheckResult:
    ok = is_componentwise_linear(record)
    return CheckResult("cwl", PASS if ok else FAIL, "componentwise linear" if ok else "a truncation has excess regularity")


def check_dual_identities(complex_: SimplicialComplex, record: Invariants | None = None) -> CheckResult:
    """The three Alexander duality identities: multiplicity equals the
    count of minimal generators of least degree on the dual side, the
    codimension equals the dual initial degree, and the projective
    dimension equals the dual regularity.

    The dual ideal is the Stanley-Reisner ideal of the Alexander dual, whose
    kept minimal nonfaces are the facet complements, an antichain, so it
    takes no dualization and no minimalize.  Only the table of its record
    is read, never its Hilbert series; over the oracle budget the verdict is
    inapplicable with the record's cap_message.  The dual record comes first,
    so a dual over the budget costs no primal table; the primal record is
    built only when the caller has none, and its Hilbert series is read
    only once it has a table."""
    if complex_.is_void or complex_.is_full_simplex:
        return CheckResult("dual", INAPPLICABLE, "requires a proper complex")
    dual_ideal = stanley_reisner_ideal(complex_.alexander_dual())
    dual = invariants(dual_ideal)
    if dual.table is None:
        return CheckResult("dual", INAPPLICABLE, dual.cap_message)
    if record is None:
        record = invariants(stanley_reisner_ideal(complex_))
    if record.stats is None:
        return CheckResult("dual", INAPPLICABLE, record.cap_message)
    summary, st = record.summary, record.stats
    initial = dual_ideal.min_gen_degree
    count_initial = sum(1 for g in dual_ideal.gens if g.degree == initial)
    dual_reg = regularity(dual.table.to_ideal())
    ok = (summary.multiplicity, summary.codim, st.pdim) == (count_initial, initial, dual_reg)
    detail = (
        f"e={summary.multiplicity} vs b0(dual initial)={count_initial}; "
        f"codim={summary.codim} vs a(dual)={initial}; "
        f"pdim={st.pdim} vs reg(dual)={dual_reg}"
    )
    return CheckResult("dual", PASS if ok else FAIL, detail)


def _dual_of_record(record: Invariants) -> CheckResult:
    ideal = record.ideal
    if not ideal.is_squarefree or ideal.is_zero:
        return CheckResult("dual", INAPPLICABLE, "duality identities need a squarefree proper ideal")
    return check_dual_identities(complex_of_ideal(ideal), record)


# each check by name, called on a record with stats, in the canonical order of reports and CSV columns
_CHECKS = {
    "c2": check_upper_bound_codim,
    "c1": check_two_sided_bound_cm,
    "hm": check_pure_multiplicity_formula,
    "weak": check_regularity_binomial_bound,
    "hyp": check_shift_ladder_hypothesis,
    "cwl": check_componentwise_linear,
    "dual": _dual_of_record,
}
CHECK_NAMES = tuple(_CHECKS)


def evaluate_ideal(
    ideal: MonomialIdeal,
    checks: tuple[str, ...] = ("c2", "c1", "hm", "weak"),
) -> BoundReport:
    """Run the named checks against one proper ideal and assemble the
    report from the ideal's single invariants record."""
    for name in checks:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}")
    if ideal.is_unit:
        raise ValueError("the unit ideal has no bound report")
    record = invariants(ideal)
    summary, st, cm = record.summary, record.stats, record.cm
    if st is None:
        return BoundReport(record, {name: CheckResult(name, INAPPLICABLE, record.cap_message) for name in checks})
    c = summary.codim
    bound_product = prod(st.max_shifts[:c])  # empty product is 1
    return BoundReport(
        record,
        {name: _CHECKS[name](record) for name in checks},
        upper_bound=Fraction(bound_product, factorial(c)),
        lower_bound=Fraction(prod(st.min_shifts), factorial(st.pdim)) if cm else None,
        weak_bound=comb(st.reg + c, c),
        tightness=Fraction(summary.multiplicity * factorial(c), bound_product),
    )
