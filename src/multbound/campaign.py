"""Seeded instance generators and the campaign runner.

Every instance is generated from a seed derived solely from the master
seed and the instance index, so campaigns are bit-reproducible across runs
and across parallelism levels; the CSV rows are assembled in index order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .bounds import BoundReport, evaluate_ideal
from .monomials import (
    BoundVector,
    Monomial,
    MonomialIdeal,
    minimalize,
    squarefree_strongly_stable_closure,
    stable_closure,
    strongly_stable_closure,
)
from . import hilbert
from .koszul import almost_regular_suffix
from .simplicial import SimplicialComplex, stanley_reisner_ideal

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
        if self.count < 1:
            raise CampaignError("count must be at least 1")
        if self.n < 1:
            raise CampaignError("n must be at least 1")
        if self.max_degree < 1:
            raise CampaignError("max degree must be at least 1")
        if self.jobs < 1:
            raise CampaignError("jobs must be at least 1")
        if self.max_gens < 1:
            raise CampaignError("max gens must be at least 1")
        if self.family == "a-stable" and self.bounds is not None and self.bounds.n != self.n:
            raise CampaignError("bound vector length must equal n")


def derive_seed(master_seed: int, index: int, salt: str = "") -> int:
    digest = hashlib.sha256(f"{master_seed}/{index}/{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def random_monomial(rng: random.Random, n: int, degree: int) -> Monomial:
    """Uniform stars-and-bars composition of the degree into n exponents:
    n - 1 bars among degree + n - 1 slots, each exponent a gap between bars."""
    cuts = [-1, *sorted(rng.sample(range(degree + n - 1), n - 1)), degree + n - 1]
    return Monomial(tuple([b - a - 1 for a, b in zip(cuts, cuts[1:])]))


def random_bounded_monomial(rng: random.Random, n: int, max_degree: int, bounds: BoundVector) -> Monomial:
    """A random monomial strictly below the bound vector."""
    headroom = sum(min(int(a - 1) if a != float("inf") else max_degree, max_degree) for a in bounds.entries)
    degree = rng.randint(1, max(1, min(max_degree, headroom)))
    for _ in range(200):
        m = random_monomial(rng, n, degree)
        if bounds.bounds_strictly(m):
            return m
    # deterministic fallback: fill exponents left to right within bounds
    exponents = [0] * n
    remaining = degree
    for i, a in enumerate(bounds.entries):
        room = remaining if a == float("inf") else min(remaining, int(a) - 1 - exponents[i])
        exponents[i] = room
        remaining -= room
        if remaining == 0:
            break
    return Monomial(tuple(exponents))


def random_squarefree_monomial(rng: random.Random, n: int, max_degree: int) -> Monomial:
    size = rng.randint(1, min(n, max_degree))
    support = rng.sample(range(n), size)
    return Monomial(tuple(1 if i in support else 0 for i in range(n)))


def _closure_instance(cfg: CampaignConfig, rng: random.Random, build) -> MonomialIdeal:
    """Draw seeds and close them, retrying until the generator count fits the
    draw limit max_gens; falls back to a single low-degree seed."""
    for _ in range(60):
        ideal = build(rng)
        if ideal.gens and len(ideal.gens) <= cfg.max_gens:
            return ideal
    fallback = build(rng, degree_cap=2)
    if not fallback.gens or len(fallback.gens) > cfg.max_gens:
        raise CampaignError("could not draw an instance within max_gens generators")
    return fallback


def generate_ideal(cfg: CampaignConfig, index: int) -> MonomialIdeal:
    rng = random.Random(derive_seed(cfg.master_seed, index))
    n, maxdeg = cfg.n, cfg.max_degree

    if cfg.family == "random-monomial":
        k = rng.randint(1, min(8, cfg.max_gens))
        gens = [random_monomial(rng, n, rng.randint(1, maxdeg)) for _ in range(k)]
        return minimalize(gens, n)

    if cfg.family == "stable":
        bounds = BoundVector.unbounded(n)

        def build(rng, degree_cap=maxdeg):
            seeds = [random_monomial(rng, n, rng.randint(1, degree_cap)) for _ in range(rng.randint(1, 2))]
            return stable_closure(seeds, bounds)

        return _closure_instance(cfg, rng, build)

    if cfg.family == "a-stable":
        bounds = cfg.bounds or BoundVector.unbounded(n)

        def build(rng, degree_cap=maxdeg):
            seeds = [
                random_bounded_monomial(rng, n, min(degree_cap, maxdeg), bounds)
                for _ in range(rng.randint(1, 2))
            ]
            return stable_closure(seeds, bounds)

        return _closure_instance(cfg, rng, build)

    if cfg.family == "sqfree-strongly-stable":

        def build(rng, degree_cap=maxdeg):
            seeds = [
                random_squarefree_monomial(rng, n, min(degree_cap, maxdeg))
                for _ in range(rng.randint(1, 2))
            ]
            return squarefree_strongly_stable_closure(seeds, n)

        return _closure_instance(cfg, rng, build)

    if cfg.family == "borel-codim2":
        if n < 2:
            raise CampaignError("borel-codim2 needs at least 2 variables")
        for _ in range(400):
            seeds = [random_monomial(rng, n, rng.randint(1, maxdeg)) for _ in range(rng.randint(1, 2))]
            ideal = strongly_stable_closure(seeds, n)
            if not ideal.gens or len(ideal.gens) > cfg.max_gens:
                continue
            if hilbert.summarize(ideal).codim != 2:
                continue
            if almost_regular_suffix(ideal) < n - 2:
                continue
            return ideal
        # deterministic fallback: a power of (x1, x2) is Borel of codimension 2
        d = rng.randint(1, maxdeg)
        seed = Monomial(tuple([0, d] + [0] * (n - 2)))
        fallback = strongly_stable_closure([seed], n)
        if len(fallback.gens) > cfg.max_gens:
            raise CampaignError("could not draw an instance within max_gens generators")
        return fallback

    raise CampaignError(f"family {cfg.family!r} does not generate ideals")


def generate_complex(cfg: CampaignConfig, index: int) -> SimplicialComplex:
    if cfg.family != "random-complex":
        raise CampaignError(f"family {cfg.family!r} does not generate complexes")
    rng = random.Random(derive_seed(cfg.master_seed, index))
    n = cfg.n
    for _ in range(200):
        count = rng.randint(1, max(2, 2 * n))
        facets = []
        for _ in range(count):
            size = rng.randint(1, max(1, n - 1))  # keep the complex proper
            facets.append(frozenset(rng.sample(range(1, n + 1), size)))
        complex_ = SimplicialComplex.from_facets(n, facets)
        if len(stanley_reisner_ideal(complex_).gens) <= cfg.max_gens:
            return complex_
    # the single vertex 1: its Stanley-Reisner ideal is (x2, ..., xn)
    if n - 1 > cfg.max_gens:
        raise CampaignError("could not draw a complex within max_gens generators")
    return SimplicialComplex.from_facets(n, [frozenset({1})])


def evaluate_row(cfg: CampaignConfig, index: int) -> list[str]:
    """Generate instance ``index`` and render one CSV row."""
    seed = derive_seed(cfg.master_seed, index)
    if cfg.family == "random-complex":
        ideal = stanley_reisner_ideal(generate_complex(cfg, index))
    else:
        ideal = generate_ideal(cfg, index)
    report = evaluate_ideal(ideal, cfg.checks)
    return _render_row(seed, ideal, report)


def _render_row(seed: int, ideal: MonomialIdeal, report: BoundReport) -> list[str]:
    def opt(value) -> str:
        return "" if value is None else str(value)

    return [
        str(seed),
        str(ideal.n),
        str(len(ideal.gens)),
        str(ideal.max_gen_degree),
        opt(report.multiplicity),
        opt(report.codim),
        opt(report.pdim),
        opt(report.reg),
        ";".join(str(m) for m in report.max_shifts),
        opt(report.upper_bound.numerator if report.upper_bound is not None else None),
        opt(report.upper_bound.denominator if report.upper_bound is not None else None),
        opt(report.tightness.numerator if report.tightness is not None else None),
        opt(report.tightness.denominator if report.tightness is not None else None),
        report.verdict_text(),
    ]


def _row_worker(args: tuple[CampaignConfig, int]) -> list[str]:
    return evaluate_row(*args)


def run_campaign(cfg: CampaignConfig, out_path: str) -> int:
    """Run all instances, write the CSV, and return the exit code:
    0 when every check passed, 1 when any check failed.

    A failing check never aborts the run; a genuine counterexample is the
    most valuable output the tool can produce, so the campaign always
    completes and reports.  An output path whose directory is missing or
    not writable is refused before the first row."""
    parent = os.path.dirname(out_path) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise CampaignError(f"cannot write {out_path}: {parent} is not a writable directory")
    indices = range(cfg.count)
    workers = min(cfg.jobs, cfg.count, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_row_worker, [(cfg, i) for i in indices]))
    else:
        rows = [evaluate_row(cfg, i) for i in indices]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    try:
        with open(out_path, "w", newline="") as handle:
            handle.write(buffer.getvalue())
    except OSError as exc:
        raise CampaignError(f"cannot write {out_path}: {exc}") from exc
    failed = any("=fail" in row[-1] for row in rows)
    return 1 if failed else 0
