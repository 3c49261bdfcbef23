"""Koszul homology strands with respect to a suffix of the variables,
almost-regular sequence detection, and the codimension-2 reduction
experiment.

The suffix convention: sequences are taken as x_n, x_{n-1}, ... so that a
length-k Koszul complex uses the last k variables.  For the full suffix
(k = n) the strand dimensions recover the graded Betti numbers of S/I.

The cone rule: a multidegree a whose exponent a_v on a suffix variable v is
positive and the exponent g_v of no generator g has an acyclic strand.  A
generator dividing x^(a - 1_F), F without v, has g_v < a_v, so it divides
x^(a - 1_F - e_v) too: F is a cell exactly when F + v is, so matching F
with F + v pairs off every cell, over Q and every F_p.  The strand tables
code only the other multidegrees as the oracle codes its lcm lattice, feed
them to ``betti._strands`` as it does, and count the cells of just those.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import islice
from math import comb

from . import betti, hilbert
from .monomials import MonomialIdeal, _exponents_of_degree


@dataclass(frozen=True)
class KoszulStrandTable:
    """Homology dimensions H_i of the Koszul complex on the last k
    variables, recorded per internal degree j up to degree_bound.  Only
    nonzero dimensions are stored; ``truncated``, read off the ideal's Hilbert
    series on first use, is False exactly when all strands above the bound
    provably vanish (the chain groups are empty)."""

    k: int
    dims: dict[tuple[int, int], int]
    degree_bound: int
    ideal: MonomialIdeal = field(repr=False)

    @cached_property
    def truncated(self) -> bool:
        summary = hilbert.summarize(self.ideal)  # an Artinian S/I has no chains above deg Q + k
        return summary.dim > 0 or len(summary.reduced_numerator) - 1 + self.k > self.degree_bound

    def dim(self, i: int, j: int) -> int:
        if j > self.degree_bound and self.truncated:
            raise ValueError(f"degree {j} beyond the computed bound {self.degree_bound}")
        return self.dims.get((i, j), 0)

    def row_max(self, i: int) -> int:
        """Largest degree with nonzero H_i, or 0 when the row vanishes."""
        return max((j for (r, j) in self.dims if r == i), default=0)


def koszul_strands(ideal: MonomialIdeal, k: int, degree_bound: int) -> KoszulStrandTable:
    """Degreewise Koszul homology of S/I with respect to the last k
    variables, for internal degrees up to degree_bound.

    The degree-j strand of level i has basis {(b, F)} with F an i-subset of
    the last k variable indices and x^b a standard monomial of degree j - i.
    Only multidegrees whose suffix exponents are 0 or generator exponents
    are walked (the cone rule); the H_0 rows need the prefix exponents, so
    those stay free.  Raises betti.OracleCapError, before any strand, when
    the walked multidegrees a pass betti.ORACLE_BUDGET in cells, one per
    subset of a's support within the suffix.  The table computes no Hilbert
    series until its truncated flag is read."""
    n = ideal.n
    if not 1 <= k <= n:
        raise ValueError(f"suffix length {k} out of range 1..{n}")
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    if ideal.is_unit:
        raise ValueError("the unit ideal has trivial Koszul homology everywhere")
    # x^b e_F has multidegree b + 1_F, so the degree-j strand sums the strands
    # of the degree-j multidegrees head + tail: a tail t kept by the cone rule,
    # coded on the suffix fields in tails[|t|], and any of the C(degree_bound
    # - |t| + n - k, n - k) heads that fit.  cells[s] sums 2^|supp t| over
    # tails[s]; growing by 0 keeps it, so each step's count bounds the table's
    ranks, offsets, codes = betti._fields(ideal)
    tails, cells = {0: [0]}, {0: 1}
    for v in range(n - k, n):
        exponents = [(e, (1 << r) - 1 << offsets[v]) for r, e in enumerate(ranks[v]) if e <= degree_bound]
        grown, grown_cells = {}, {}
        for e, _ in exponents:
            for s, c in cells.items():
                if s + e <= degree_bound:
                    grown_cells[s + e] = grown_cells.get(s + e, 0) + (2 * c if e else c)
        total = sum(comb(degree_bound - s + n - k, n - k) * c for s, c in grown_cells.items())
        if total > betti.ORACLE_BUDGET:
            raise betti.OracleCapError(f"at least {total} candidate cells in the Koszul strand table exceed "
                                       f"the oracle budget {betti.ORACLE_BUDGET}")
        for e, bits in exponents:
            for s, row in tails.items():
                if s + e <= degree_bound:
                    grown.setdefault(s + e, []).extend(t | bits for t in row)
        tails, cells = grown, grown_cells
    items = (
        (head | tail, d)
        for d in range(degree_bound + 1 if k < n else 1)  # with no prefix, () is the only head
        for head in (betti._code(ranks, offsets, h) for h in _exponents_of_degree(n - k, d))
        for s, row in tails.items() if s + d <= degree_bound
        for tail in row
    )
    dims = betti._strands(ranks, offsets, codes, items, -1 << offsets[n - k])
    return KoszulStrandTable(k=k, dims=dims, degree_bound=degree_bound, ideal=ideal)


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
