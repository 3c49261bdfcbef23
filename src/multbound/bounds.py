"""Multiplicity bound checks.

Every comparison is exact: integers are cross-multiplied (e * c! against
the product of maximal shifts) and never rounded.  Checks report one of
three verdicts: pass, fail, or inapplicable (hypotheses not met).

Every check reads one ``betti.Invariants`` record of the ideal.  Its table
comes from the linear-quotient certificate when that holds, else from the
budgeted Betti oracle.  cwl passes at once on a certified record and runs the
truncation criterion otherwise; dual takes the dual ideal's table by the same
rule, so both reach the oracle only for ideals that fail the certificate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from . import hilbert
from .betti import (
    Invariants,
    OracleCapError,
    ResolutionStats,
    _betti_table,
    invariants,
    is_componentwise_linear,
    regularity,
)
from .monomials import MonomialIdeal, ideal_to_json
from .simplicial import (
    SimplicialComplex,
    complex_of_ideal,
    facet_duality_generators,
    stanley_reisner_ideal,
)

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


def check_upper_bound_codim(summary: hilbert.HilbertSummary, st: ResolutionStats) -> CheckResult:
    """e * c! <= product of the first c maximal shifts (c = codim)."""
    c = summary.codim
    if c > st.pdim:
        raise AssertionError("codimension exceeds the projective dimension")
    bound = prod(st.max_shifts[:c])
    ok = summary.multiplicity * factorial(c) <= bound
    detail = f"e={summary.multiplicity}, codim={c}, prod M_1..M_c={bound}"
    return CheckResult("c2", PASS if ok else FAIL, detail)


def check_two_sided_bound_cm(
    summary: hilbert.HilbertSummary, st: ResolutionStats, cm: bool
) -> CheckResult:
    """prod m_i / p! <= e <= prod M_i / p! for Cohen-Macaulay quotients."""
    if not cm:
        return CheckResult("c1", INAPPLICABLE, "quotient is not Cohen-Macaulay")
    p = st.pdim
    lower = prod(st.min_shifts)
    upper = prod(st.max_shifts)
    scaled = summary.multiplicity * factorial(p)
    ok = lower <= scaled <= upper
    detail = f"prod m={lower} <= e*p!={scaled} <= prod M={upper}"
    return CheckResult("c1", PASS if ok else FAIL, detail)


def check_pure_multiplicity_formula(
    summary: hilbert.HilbertSummary, st: ResolutionStats, cm: bool
) -> CheckResult:
    """Huneke-Miller: e = (prod of the pure shift degrees) / p! exactly,
    for Cohen-Macaulay quotients with a pure resolution, whose shift at
    each step is its maximal shift."""
    if not cm:
        return CheckResult("hm", INAPPLICABLE, "quotient is not Cohen-Macaulay")
    if not st.pure:
        return CheckResult("hm", INAPPLICABLE, "resolution is not pure")
    ok = summary.multiplicity * factorial(st.pdim) == prod(st.max_shifts)
    detail = f"e*p!={summary.multiplicity * factorial(st.pdim)}, prod d={prod(st.max_shifts)}"
    return CheckResult("hm", PASS if ok else FAIL, detail)


def check_regularity_binomial_bound(
    summary: hilbert.HilbertSummary, st: ResolutionStats
) -> CheckResult:
    """codim <= corner index of the regularity row, and
    e <= C(reg + codim, codim)."""
    c = summary.codim
    bound = comb(st.reg + c, c)
    ok = c <= st.corner and summary.multiplicity <= bound
    detail = f"codim={c} vs corner={st.corner}; e={summary.multiplicity} vs C(reg+c,c)={bound}"
    return CheckResult("weak", PASS if ok else FAIL, detail)


def check_shift_ladder_hypothesis(
    summary: hilbert.HilbertSummary, st: ResolutionStats
) -> CheckResult:
    """When every maximal shift up to the codimension equals reg + i,
    the codimension upper bound must hold (and is re-checked)."""
    c = summary.codim
    holds = all(st.max_shift(i) == st.reg + i for i in range(1, c + 1))
    if not holds:
        return CheckResult("hyp", INAPPLICABLE, "maximal shifts do not sit on the regularity row")
    inner = check_upper_bound_codim(summary, st)
    return CheckResult("hyp", inner.verdict, "hypothesis holds; " + inner.detail)


def check_componentwise_linear(record: Invariants) -> CheckResult:
    ok = is_componentwise_linear(record)
    return CheckResult("cwl", PASS if ok else FAIL, "componentwise linear" if ok else "a truncation has excess regularity")


def check_dual_identities(complex_: SimplicialComplex, record: Invariants | None = None) -> CheckResult:
    """The three Alexander duality identities: multiplicity equals the
    count of minimal generators of least degree on the dual side, the
    codimension equals the dual initial degree, and the projective
    dimension equals the dual regularity.

    The dual ideal is generated by the facet complements, an antichain, so
    it takes no dualization and no minimalize.  Its table is the
    linear-quotient certificate's when that holds, else the budgeted
    oracle's.  The dual table comes first, so a dual over the budget costs no
    primal table; the primal record is built only when the caller has none."""
    if complex_.is_void or complex_.is_full_simplex:
        return CheckResult("dual", INAPPLICABLE, "requires a proper complex")
    dual_ideal = MonomialIdeal._trusted(complex_.n, facet_duality_generators(complex_))
    try:
        dual_table = _betti_table(dual_ideal)[0].to_ideal()
    except OracleCapError as exc:
        return CheckResult("dual", INAPPLICABLE, str(exc))
    if record is None:
        record = invariants(stanley_reisner_ideal(complex_))
    summary, st = record.summary, record.stats
    if st is None:
        return CheckResult("dual", INAPPLICABLE, record.cap_message)
    initial = dual_ideal.min_gen_degree
    count_initial = sum(1 for g in dual_ideal.gens if g.degree == initial)
    dual_reg = regularity(dual_table)
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


# each check's reader of a record with stats, in the canonical order of reports and CSV columns
_CHECKS = {
    "c2": lambda r: check_upper_bound_codim(r.summary, r.stats),
    "c1": lambda r: check_two_sided_bound_cm(r.summary, r.stats, r.cm),
    "hm": lambda r: check_pure_multiplicity_formula(r.summary, r.stats, r.cm),
    "weak": lambda r: check_regularity_binomial_bound(r.summary, r.stats),
    "hyp": lambda r: check_shift_ladder_hypothesis(r.summary, r.stats),
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
