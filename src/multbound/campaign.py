"""Seeded instance generators and the campaign runner.

Every instance is generated from a seed derived solely from the master
seed and the instance index, so campaigns are bit-reproducible across runs
and across parallelism levels; the CSV rows are assembled in index order.
Each worker evaluates a distinct ideal once and renders its repeats from a
memo of at most _REPORT_CAP reports that lives for one call; the process
pool is imported only when more than one worker runs.

Every row is an ideal from :func:`generate_ideal` (for random-complex, the
Stanley-Reisner ideal of a complex; :func:`generate_complex` inverts it).
All but random-monomial draw through :func:`_draw`: 60, 400 or 200 tries
(closure families, borel-codim2, random-complex), then one fallback that
must pass the same fit test (seeds of degree <= 2, a power of (x1, x2), the
single vertex 1), else CampaignError, and the CLI exits 2.  A borel-codim2
draw is closed only if its seeds give codimension 2 (:func:`_seed_codim`);
x_n, ..., x_1 is almost regular on every strongly stable ideal, so that needs no test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import random
from dataclasses import dataclass

from .bounds import CHECK_NAMES, BoundReport, evaluate_ideal
from .monomials import (
    BoundVector,
    Monomial,
    MonomialIdeal,
    minimalize,
    squarefree_strongly_stable_closure,
    stable_closure,
    strongly_stable_closure,
)
from .simplicial import SimplicialComplex, complex_of_ideal, stanley_reisner_ideal

FAMILIES = (
    "stable",
    "a-stable",
    "sqfree-strongly-stable",
    "random-monomial",
    "random-complex",
    "borel-codim2",
)

CSV_COLUMNS = (
    "instance_seed",
    "n",
    "num_gens",
    "max_deg",
    "e",
    "codim",
    "pdim",
    "reg",
    "M_vector",
    "bound_num",
    "bound_den",
    "tightness_num",
    "tightness_den",
    "verdicts",
)

# reports by ideal within one campaign, whose checks are fixed; None outside one
_REPORT_CAP = 4096
_reports: dict[MonomialIdeal, BoundReport] | None = None


class CampaignError(ValueError):
    """Invalid campaign configuration or inputs."""


@dataclass(frozen=True)
class CampaignConfig:
    family: str
    n: int
    max_degree: int
    count: int
    master_seed: int
    checks: tuple[str, ...] = ("c2", "weak")
    bounds: BoundVector | None = None
    max_gens: int = 18
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise CampaignError(f"unknown family {self.family!r}; choose from {', '.join(FAMILIES)}")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise CampaignError(f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}")
        for name, value in (("count", self.count), ("n", self.n), ("max degree", self.max_degree),
                            ("jobs", self.jobs), ("max gens", self.max_gens)):
            if value < 1:
                raise CampaignError(f"{name} must be at least 1")
        if self.bounds is not None and self.family != "a-stable":
            raise CampaignError("a bound vector applies only to the a-stable family")
        if self.bounds is not None and self.bounds.n != self.n:
            raise CampaignError("bound vector length must equal n")


def derive_seed(master_seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}/{index}/".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def random_monomial(rng: random.Random, n: int, degree: int) -> Monomial:
    """Uniform stars-and-bars composition of the degree into n exponents:
    n - 1 bars among degree + n - 1 slots, each exponent a gap between bars."""
    cuts = [-1, *sorted(rng.sample(range(degree + n - 1), n - 1)), degree + n - 1]
    return Monomial(tuple([b - a - 1 for a, b in zip(cuts, cuts[1:])]))


def _draw(tries: int, attempt, fallback, fits, what: str):
    """The first of ``tries`` attempts that fits, else the fallback if it fits."""
    for i in range(tries + 1):
        drawn = attempt() if i < tries else fallback()
        if fits(drawn):
            return drawn
    raise CampaignError(f"could not draw {what}")


def random_bounded_monomial(rng: random.Random, n: int, max_degree: int, bounds: BoundVector) -> Monomial:
    """A random monomial strictly below the bound vector; after 200 misses the
    exponents are filled left to right within the bounds."""
    headroom = sum(min(int(a - 1) if a != float("inf") else max_degree, max_degree) for a in bounds.entries)
    degree = rng.randint(1, max(1, min(max_degree, headroom)))

    def fill() -> Monomial:
        exponents, remaining = [], degree
        for a in bounds.entries:
            exponents.append(remaining if a == float("inf") else min(remaining, int(a) - 1))
            remaining -= exponents[-1]
        return Monomial(tuple(exponents))

    return _draw(200, lambda: random_monomial(rng, n, degree), fill, bounds.bounds_strictly,
                 "a monomial strictly below the bound vector")


def random_squarefree_monomial(rng: random.Random, n: int, max_degree: int) -> Monomial:
    size = rng.randint(1, min(n, max_degree))
    support = rng.sample(range(n), size)
    return Monomial(tuple(1 if i in support else 0 for i in range(n)))


def _seed_codim(seeds: list[Monomial]) -> int:
    """Codimension c of the seeds' strongly stable closure, their largest first variable: it holds a
    power of each of x_1, ..., x_c, and its generators, seeds moved to lower indices, lie in (x_1, ..., x_c)."""
    return max(u.support[0] for u in seeds)


def generate_ideal(cfg: CampaignConfig, index: int) -> MonomialIdeal:
    rng = random.Random(derive_seed(cfg.master_seed, index))
    n, maxdeg = cfg.n, cfg.max_degree
    if cfg.family == "random-monomial":
        k = rng.randint(1, min(8, cfg.max_gens))
        gens = [random_monomial(rng, n, rng.randint(1, maxdeg)) for _ in range(k)]
        return minimalize(gens, n)
    if cfg.family == "random-complex":
        def complex_ideal(facets) -> MonomialIdeal:
            return stanley_reisner_ideal(SimplicialComplex.from_facets(n, facets))

        def attempt() -> MonomialIdeal:
            # facets of at most n - 1 vertices keep the complex proper when
            # n >= 2; at n = 1 every draw is the full simplex, with ideal 0
            count = rng.randint(1, max(2, 2 * n))
            return complex_ideal([rng.sample(range(1, n + 1), rng.randint(1, max(1, n - 1))) for _ in range(count)])

        # the fallback, the single vertex 1, has Stanley-Reisner ideal (x2, ..., xn)
        return _draw(200, attempt, lambda: complex_ideal([[1]]), lambda ideal: len(ideal.gens) <= cfg.max_gens,
                     "a complex within max_gens generators")
    if cfg.family == "borel-codim2" and n < 2:
        raise CampaignError("borel-codim2 needs at least 2 variables")

    bounds = cfg.bounds or BoundVector.unbounded(n)

    def monomial(cap: int) -> Monomial:
        return random_monomial(rng, n, rng.randint(1, cap))

    # each closure family: (one seed drawn at a degree cap, the closure of the seeds or None past max_gens)
    seed, close = {
        "stable": (monomial, lambda seeds: stable_closure(seeds, bounds, cfg.max_gens)),
        "a-stable": (lambda cap: random_bounded_monomial(rng, n, min(cap, maxdeg), bounds),
                     lambda seeds: stable_closure(seeds, bounds, cfg.max_gens)),
        "sqfree-strongly-stable": (lambda cap: random_squarefree_monomial(rng, n, min(cap, maxdeg)),
                                   lambda seeds: squarefree_strongly_stable_closure(seeds, n, cfg.max_gens)),
        "borel-codim2": (monomial, lambda seeds: strongly_stable_closure(seeds, n, cfg.max_gens)
                         if _seed_codim(seeds) == 2 else None),
    }[cfg.family]

    def draw(cap: int) -> MonomialIdeal | None:
        return close([seed(cap) for _ in range(rng.randint(1, 2))])

    # the borel-codim2 fallback is a power of (x1, x2); the others draw once more at degree cap 2
    tries, fallback = ((400, lambda: close([Monomial((0, rng.randint(1, maxdeg)) + (0,) * (n - 2))]))
                       if cfg.family == "borel-codim2" else (60, lambda: draw(2)))
    return _draw(tries, lambda: draw(maxdeg), fallback, lambda I: I is not None and 0 < len(I.gens) <= cfg.max_gens,
                 "an instance within max_gens generators")


def generate_complex(cfg: CampaignConfig, index: int) -> SimplicialComplex:
    """The complex whose Stanley-Reisner ideal is random-complex row ``index``."""
    if cfg.family != "random-complex":
        raise CampaignError(f"family {cfg.family!r} does not generate complexes")
    return complex_of_ideal(generate_ideal(cfg, index))


def evaluate_row(cfg: CampaignConfig, index: int) -> list[str]:
    """Generate instance ``index`` and render one CSV row."""
    ideal = generate_ideal(cfg, index)
    memo = {} if _reports is None else _reports
    report = memo.get(ideal) or evaluate_ideal(ideal, cfg.checks)
    if len(memo) < _REPORT_CAP:
        memo[ideal] = report
    return _render_row(derive_seed(cfg.master_seed, index), report)


def _render_row(seed: int, report: BoundReport) -> list[str]:
    def fraction(value) -> list[str]:
        return ["", ""] if value is None else [str(value.numerator), str(value.denominator)]

    ideal, summary, st = report.record.ideal, report.record.summary, report.record.stats
    shifts = ["", "", ""] if st is None else [str(st.pdim), str(st.reg), ";".join(map(str, st.max_shifts))]
    return [
        str(seed),
        str(ideal.n),
        str(len(ideal.gens)),
        str(ideal.max_gen_degree),
        str(summary.multiplicity),
        str(summary.codim),
        *shifts,
        *fraction(report.upper_bound),
        *fraction(report.tightness),
        report.verdict_text(),
    ]


def _row_worker(args: tuple[CampaignConfig, int]) -> list[str]:
    global _reports
    _reports = {} if _reports is None else _reports  # the first row of a run or of a worker
    return evaluate_row(*args)


def run_campaign(cfg: CampaignConfig, out_path: str) -> int:
    """Run all instances, write the CSV, and return the exit code: 1 when
    a bound failed, else 0, as a cwl fail violates no bound.

    A failing check never aborts the run; a genuine counterexample is the
    most valuable output the tool can produce, so the campaign always
    completes and reports.  An output path whose directory is missing or
    not writable is refused before the first row."""
    global _reports
    parent = os.path.dirname(out_path) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise CampaignError(f"cannot write {out_path}: {parent} is not a writable directory")
    indices = range(cfg.count)
    workers = min(cfg.jobs, cfg.count, os.cpu_count() or 1)
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # a row takes about a millisecond, so rows go to the workers in
                # chunks, about eight per worker, not one task round trip each
                chunksize = max(1, cfg.count // (8 * workers))
                rows = list(pool.map(_row_worker, [(cfg, i) for i in indices], chunksize=chunksize))
        else:
            rows = [_row_worker((cfg, i)) for i in indices]
    finally:
        _reports = None
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows([CSV_COLUMNS, *rows])
    try:
        with open(out_path, "w", newline="") as handle:
            handle.write(buffer.getvalue())
    except OSError as exc:
        raise CampaignError(f"cannot write {out_path}: {exc}") from exc
    return 1 if any(BoundReport._fails(row[-1]) for row in rows) else 0
