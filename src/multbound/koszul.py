"""Almost-regular sequence detection and the codimension-2 reduction
experiment.  Sequences are taken as x_n, x_{n-1}, ..., so a length-k
Koszul complex uses the last k variables; its strand tables come from
``betti.koszul_strands``, bound here for ``reduction_report``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import islice

from . import betti, hilbert
from .betti import koszul_strands
from .monomials import MonomialIdeal


def _suffix_walk(ideal: MonomialIdeal, summary: hilbert.HilbertSummary):
    """Kill x_n, x_{n-1}, ... while the current last variable has a
    finite-length annihilator, yielding (variable, annihilator length,
    smaller ideal, summary before, summary after) per step; summary is the
    input's.  Each quotient is killed and summarized once: multiplication
    by x_m on S/I in m variables gives the exact sequence
    0 -> ((I : x_m)/I)(-1) -> (S/I)(-1) -> S/I -> S/(I + x_m) -> 0, so the
    annihilator's series is (N_K - N_I) / (t * (1-t)^(m-1)), read off the
    numerators of the two summaries."""
    current, before = ideal, summary
    for last in range(ideal.n, 0, -1):
        smaller = current.kill_variables({last})
        after = hilbert.summarize(smaller)
        diff = hilbert.poly_sub(after.numerator, before.numerator)
        assert not diff or diff[0] == 0  # both constant terms are 1
        series = diff[1:]
        for _ in range(last - 1):
            series = hilbert.poly_div_one_minus_t(series)
            if series is None:
                return
        yield last, sum(series), smaller, before, after
        current, before = smaller, after


def almost_regular_suffix(ideal: MonomialIdeal) -> int:
    """Largest t such that x_n, x_{n-1}, ..., x_{n-t+1} is an almost
    regular sequence on S/I, decided exactly through Hilbert series of the
    successive killed quotients.  Raises ValueError for the unit ideal,
    whose zero ring has no Hilbert summary."""
    return sum(1 for _ in _suffix_walk(ideal, hilbert.summarize(ideal)))


@dataclass(frozen=True)
class ReductionStep:
    """One variable-killing step R -> R/x R with the dimension and
    multiplicity laws it must satisfy."""

    variable: int
    dim_before: int
    dim_after: int
    mult_before: int
    mult_after: int
    annihilator_length: int
    dim_law: bool
    mult_law: bool


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of reducing a codimension-2 quotient to an Artinian one by
    killing an almost regular suffix of the variables."""

    applicable: bool
    reason: str | None
    n: int
    codim: int | None
    max_shifts: tuple[int, int] | None = None
    reduced_max_shifts: tuple[int, int] | None = None
    strand_max_1: int | None = None
    strand_max_2: int | None = None
    multiplicity: int | None = None
    reduced_multiplicity: int | None = None
    checks: dict[str, bool] = field(default_factory=dict)
    steps: tuple[ReductionStep, ...] = ()

    @property
    def all_hold(self) -> bool:
        if not self.applicable:
            return False
        step_laws = all(s.dim_law and s.mult_law for s in self.steps)
        return step_laws and all(self.checks.values())

    def to_json(self) -> dict:
        return {**asdict(self), "all_hold": self.all_hold}


def reduction_report(ideal: MonomialIdeal) -> ReductionReport:
    """Kill the last n-2 variables of a codimension-2 quotient (when they
    form an almost regular sequence) and compare the maximal shifts, the
    strand maxima of the Artinian reduction, and the multiplicities.  The
    step laws and the reduced summary come from the suffix walk, which
    summarizes each quotient once; the records and strand tables read none.

    Inapplicable inputs (codimension != 2, a suffix variable with an
    infinite-length annihilator, or an oracle-budget refusal by the record
    of the input, then of the reduction, then by either Koszul strand table
    of the reduction) yield a report with applicable=False and the reason of
    the first refusal, rather than an error.
    """
    n = ideal.n
    summary = hilbert.summarize(ideal)
    steps: list[ReductionStep] = []

    def inapplicable(reason: str) -> ReductionReport:
        return ReductionReport(False, reason, n, summary.codim, steps=tuple(steps))

    if summary.codim != 2:
        return inapplicable(f"codimension is {summary.codim}, not 2")
    reduced, reduced_summary = ideal, summary
    for last, length, smaller, before, after in islice(_suffix_walk(ideal, summary), n - 2):
        # every step starts at dim >= 1: codimension 2 puts dim n - 2 before
        # the first of the n - 2 steps, and killing a variable lowers it by
        # at most one; the step into dim 0 adds the annihilator's length
        gained = length if before.dim == 1 else 0
        steps.append(
            ReductionStep(
                variable=last,
                dim_before=before.dim,
                dim_after=after.dim,
                mult_before=before.multiplicity,
                mult_after=after.multiplicity,
                annihilator_length=length,
                dim_law=after.dim == before.dim - 1,
                mult_law=after.multiplicity == before.multiplicity + gained,
            )
        )
        reduced, reduced_summary = smaller, after
    if len(steps) < n - 2:
        return inapplicable(
            f"x{n - len(steps)} has an infinite-length annihilator after {len(steps)} reduction steps"
        )
    # the reduction is Artinian, so strands vanish identically above
    # deg(reduced numerator) + k; the bound below is exact, not a truncation
    top_degree = len(reduced_summary.reduced_numerator) - 1
    bound = top_degree + 3
    try:
        shifts = []
        for part in (ideal, reduced):
            record = betti.invariants(part)
            if record.stats is None:
                raise betti.OracleCapError(record.cap_message)
            shifts.append((record.stats.max_shift(1), record.stats.max_shift(2)))
        one_var = koszul_strands(reduced, 1, bound)
        two_vars = koszul_strands(reduced, 2, bound)
    except betti.OracleCapError as exc:
        return inapplicable(str(exc))
    max_shifts, reduced_shifts = shifts
    strand_1 = one_var.row_max(1)
    strand_2 = two_vars.row_max(2)
    checks = {
        "reduced_max_shift_1_le": reduced_shifts[0] <= max_shifts[0],
        "reduced_max_shift_2_le": reduced_shifts[1] <= max_shifts[1],
        "strand_identity": strand_2 == strand_1 + 1,
        "multiplicity_le": summary.multiplicity <= reduced_summary.multiplicity,
        "codim_preserved": reduced_summary.codim == 2,
        "strands_match_shifts": (two_vars.row_max(1), strand_2) == reduced_shifts,
    }
    return ReductionReport(
        applicable=True,
        reason=None,
        n=n,
        codim=2,
        max_shifts=max_shifts,
        reduced_max_shifts=reduced_shifts,
        strand_max_1=strand_1,
        strand_max_2=strand_2,
        multiplicity=summary.multiplicity,
        reduced_multiplicity=reduced_summary.multiplicity,
        checks=checks,
        steps=tuple(steps),
    )
