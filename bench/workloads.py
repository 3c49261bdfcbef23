"""Workload definitions and the operations of one benchmark pass.

A pass is one closed-loop sequence of operations run in a fresh
interpreter: campaigns, ``multbound check`` calls with Hochster and
duality cross-checks, closures of large stable ideals with their Betti
formula, and Koszul strands with Artinian reductions.  Every workload runs
every phase, so every end-to-end metric exists on every workload; the
phase sizes decide which layers do most of the work.

Inputs come only from the benchmark seed and the pass index.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, replace

from multbound import betti, bounds, campaign, cli, hilbert, koszul, monomials, simplicial
from multbound.monomials import BoundVector, Monomial
from speed import Clock

ALL_CHECKS = ("c2", "c1", "hm", "weak", "hyp", "cwl", "dual")
CLI_CHECKS = "c2,c1,hm,weak,hyp,cwl"
# checks whose fail verdict counts as a failed operation; cwl=fail is a
# property of the ideal, not a defect
COUNTED_CHECKS = ("c2", "c1", "hm", "weak", "hyp", "dual")
DEFAULT_SEED = 1
EXTRA_SEEDS = 2


@dataclass(frozen=True)
class CampaignShape:
    family: str
    n: int
    max_degree: int
    rows: int
    bounds: str | None = None


@dataclass(frozen=True)
class IdealShape:
    """A random squarefree ideal with exactly one generator per entry of
    ``profile`` (the generator degrees).  With ``lattice`` = (lo, hi), the
    ideal is redrawn until its lcm lattice, the oracle's candidate
    multidegrees, has lo..hi elements, so that every draw does about the
    same oracle work."""

    n: int
    profile: tuple[int, ...]
    lattice: tuple[int, int] | None = None


@dataclass(frozen=True)
class ClosureShape:
    """A closure of ``seed`` plus EXTRA_SEEDS seeded monomials reached from
    it by random closure moves; the extras lie inside the closure, so the
    result (with ``size`` generators) is fixed while the input varies."""

    kind: str  # "strong", "sqfree" or "bounded"
    seed: tuple[int, ...]
    size: int
    bounds: str | None = None


@dataclass(frozen=True)
class StrandShape:
    """``koszul_strands`` with k = n on a strongly stable closure, checked
    against the closed Betti formula."""

    closure: ClosureShape
    degree_bound: int


@dataclass(frozen=True)
class Workload:
    campaign: tuple[CampaignShape, ...]
    check: tuple[IdealShape, ...]
    stable: tuple[ClosureShape, ...]
    strands: tuple[StrandShape, ...]
    reductions: tuple[tuple[int, int], ...]  # borel-codim2 (n, max degree)
    # repetitions per pass of the campaign, check, stable and koszul phases
    reps: tuple[int, int, int, int] = (1, 1, 1, 1)


SIX_FAMILIES = (
    CampaignShape("stable", 4, 4, 25),
    CampaignShape("a-stable", 4, 5, 25, "2,3,4,inf"),
    CampaignShape("sqfree-strongly-stable", 7, 4, 25),
    CampaignShape("random-monomial", 4, 5, 25),
    CampaignShape("random-complex", 7, 3, 25),
    CampaignShape("borel-codim2", 4, 4, 25),
)
SMALL_CAMPAIGN = tuple(replace(c, rows=12) for c in SIX_FAMILIES)
SMALL_CHECK = (IdealShape(7, (2, 2, 3, 3, 3, 3)),) * 3
SMALL_STABLE = (
    ClosureShape("strong", (0, 1, 2, 2), 43),
    ClosureShape("sqfree", (0, 0, 0, 1, 0, 1, 1), 34),
    ClosureShape("bounded", (0, 0, 1, 4), 21, "2,3,inf,inf"),
)
SMALL_STRANDS = (StrandShape(ClosureShape("strong", (0, 1, 0, 2), 16), 7),)
SMALL_REDUCTIONS = ((4, 3),)

WORKLOADS: dict[str, Workload] = {
    # the researcher's main use: many small ideals, so per-call overhead,
    # oracle probes, the d*d=0 compose and repeated oracle runs dominate
    "campaign-mix": Workload(
        campaign=SIX_FAMILIES,
        check=SMALL_CHECK,
        stable=SMALL_STABLE,
        strands=SMALL_STRANDS,
        reductions=SMALL_REDUCTIONS,
        reps=(1, 3, 3, 4),
    ),
    # the interactive user on a hard ideal: few but large Koszul strands, so
    # dense rank and compose dominate
    "check-large": Workload(
        campaign=SMALL_CAMPAIGN,
        check=(
            # lattice bands hold the middle ~30% of unconstrained draws
            IdealShape(10, (2,) * 5 + (3,) * 7 + (4,) * 4, (310, 336)),
            IdealShape(11, (2,) * 5 + (3,) * 7 + (4,) * 5, (515, 550)),
        ),
        stable=SMALL_STABLE,
        strands=SMALL_STRANDS,
        reductions=SMALL_REDUCTIONS,
        reps=(1, 1, 12, 6),
    ),
    # large stable ideals and no oracle: contains, minimalize and the Hilbert
    # recursion dominate
    "stable-large": Workload(
        campaign=SMALL_CAMPAIGN,
        check=SMALL_CHECK,
        stable=(
            ClosureShape("strong", (0, 1, 1, 2, 3), 261),
            ClosureShape("sqfree", (0,) * 7 + (1, 1, 1, 1), 330),
            ClosureShape("bounded", (0, 0, 0, 0, 0, 8), 210, "2,3,3,3,4,inf"),
        ),
        strands=(StrandShape(ClosureShape("strong", (0, 2, 0, 3), 40), 12),),
        reductions=((5, 3), (5, 3), (5, 3), (6, 3), (6, 3), (6, 3)),
        reps=(4, 4, 1, 1),
    ),
}

# tiny shapes for the smoke mode: every phase, a fraction of a second
SMOKE = Workload(
    campaign=(
        CampaignShape("stable", 3, 3, 2),
        CampaignShape("a-stable", 3, 3, 2, "2,3,inf"),
        CampaignShape("sqfree-strongly-stable", 5, 3, 2),
        CampaignShape("random-monomial", 3, 3, 2),
        CampaignShape("random-complex", 5, 3, 2),
        CampaignShape("borel-codim2", 3, 3, 2),
    ),
    check=(IdealShape(5, (2, 2, 3)),),
    stable=(ClosureShape("strong", (0, 1, 1), 5), ClosureShape("bounded", (0, 0, 3), 6, "2,3,inf")),
    strands=(StrandShape(ClosureShape("strong", (0, 1, 1), 5), 5),),
    reductions=((4, 3),),
)

# sha256 of the first repetition's campaign CSVs of pass 0 for DEFAULT_SEED
CSV_DIGESTS = {
    "campaign-mix": "79fb58a7cd55a831fc0266106ac67c84ac8a8852957bdc9edffd34acd902e81d",
    "check-large": "e25ccee5e9c60d08cbe300de9186266cabce310a144460f853afc9c12d9d8f2e",
    "stable-large": "e25ccee5e9c60d08cbe300de9186266cabce310a144460f853afc9c12d9d8f2e",
    "smoke": "cd5121a59ba9a7c5493325346f804f455bf15d58c7a91b7c5f47f4c1ce32905e",
}


def derive(seed: int, *labels: object) -> int:
    text = "/".join(str(x) for x in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def lcm_lattice_size(ideal) -> int:
    lcms = {(0,) * ideal.n}
    for g in ideal.gens:
        lcms |= {tuple(map(max, m, g.exponents)) for m in lcms}
    return len(lcms)


def random_squarefree_ideal(rng: random.Random, shape: IdealShape):
    """Draw the generators one at a time, redrawing any support that
    contains or lies inside an earlier one; redraw the whole ideal while
    its lcm lattice is outside the shape's band."""
    n = shape.n
    while True:
        supports: list[frozenset[int]] = []
        for d in shape.profile:
            while True:
                support = frozenset(rng.sample(range(n), d))
                if not any(support <= s or s <= support for s in supports):
                    break
            supports.append(support)
        gens = [Monomial(tuple(1 if i in s else 0 for i in range(n))) for s in supports]
        ideal = monomials.minimalize(gens, n)
        if shape.lattice is None or shape.lattice[0] <= lcm_lattice_size(ideal) <= shape.lattice[1]:
            return ideal


def _closure_bounds(shape: ClosureShape) -> BoundVector:
    n = len(shape.seed)
    if shape.kind == "sqfree":
        return BoundVector.uniform(n, 2)
    return BoundVector.from_text(shape.bounds) if shape.bounds else BoundVector.unbounded(n)


def _random_move(rng: random.Random, e: list[int], shape: ClosureShape, b: BoundVector) -> None:
    """Apply one closure move in place (a no-op when none applies)."""
    support = [i for i, x in enumerate(e) if x]
    if shape.kind == "bounded":
        top = support[-1]
        targets = [j for j in range(top) if e[j] < b.entries[j] - 1]
        source = top
    else:
        source = rng.choice(support)
        targets = [j for j in range(source) if shape.kind == "strong" or e[j] == 0]
    if targets:
        j = rng.choice(targets)
        e[source] -= 1
        e[j] += 1


def closure_seeds(rng: random.Random, shape: ClosureShape) -> list[Monomial]:
    b = _closure_bounds(shape)
    seeds = [Monomial(shape.seed)]
    for _ in range(EXTRA_SEEDS):
        e = list(shape.seed)
        for _ in range(rng.randint(1, 3)):
            _random_move(rng, e, shape, b)
        seeds.append(Monomial(tuple(e)))
    return seeds


def build_closure(shape: ClosureShape, seeds: list[Monomial]):
    n = len(shape.seed)
    if shape.kind == "strong":
        return monomials.strongly_stable_closure(seeds, n)
    if shape.kind == "sqfree":
        return monomials.squarefree_strongly_stable_closure(seeds, n)
    return monomials.stable_closure(seeds, _closure_bounds(shape))


def alternating_numerator(table) -> tuple[int, ...]:
    """Hilbert numerator sum (-1)^i b_{i,j} t^j of a quotient-view table."""
    q = table.to_quotient()
    top = max(j for (_, j) in q.entries)
    coeffs = [0] * (top + 1)
    for (i, j), v in q.entries.items():
        coeffs[j] += -v if i % 2 else v
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


_VERDICT = re.compile(r"^(\w+): (pass|fail|inapplicable)  \[", re.M)


class Pass:
    """Inputs and results of one pass; ``run`` performs the timed work.

    Each phase runs ``reps`` times on independent inputs.  ``samples``
    holds one value per repetition: the phase's total time over its input
    set (and ``rows`` the campaign rows written)."""

    def __init__(self, workload: Workload, seed: int, index: int, workdir: str, tracer=None):
        self.w = workload
        self.seed = seed
        self.index = index
        self.workdir = workdir
        self.tracer = tracer
        keys = ("campaign", "check", "hochster", "dual", "closure", "stable_betti", "koszul")
        self.samples: dict[str, list[float]] = {k: [] for k in keys}
        self.raw_samples: dict[str, list[float]] = {k: [] for k in keys}
        self.busy_s = 0.0
        self.rows: list[int] = []
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.notes: dict[str, int] = {"dual_cap_errors": 0}
        self.csvs: list[bytes] = []
        self._make_inputs()

    # ---- inputs -----------------------------------------------------------

    def _rng(self, *labels: object) -> random.Random:
        return random.Random(derive(self.seed, self.index, *labels))

    def _make_inputs(self) -> None:
        w = self.w
        self.campaign_cfgs = [
            [
                campaign.CampaignConfig(
                    family=c.family,
                    n=c.n,
                    max_degree=c.max_degree,
                    count=c.rows,
                    master_seed=self._rng("campaign", r, k).randrange(10**9),
                    checks=ALL_CHECKS,
                    bounds=BoundVector.from_text(c.bounds) if c.bounds else None,
                )
                for k, c in enumerate(w.campaign)
            ]
            for r in range(w.reps[0])
        ]
        self.check_sets = []
        for r in range(w.reps[1]):
            items = []
            for k, shape in enumerate(w.check):
                ideal = random_squarefree_ideal(self._rng("check", r, k), shape)
                path = os.path.join(self.workdir, f"ideal-{r}-{k}.json")
                with open(path, "w") as handle:
                    json.dump(monomials.ideal_to_json(ideal), handle)
                items.append((path, ideal))
            self.check_sets.append(items)
        self.closure_sets = [
            [(shape, closure_seeds(self._rng("closure", r, k), shape)) for k, shape in enumerate(w.stable)]
            for r in range(w.reps[2])
        ]
        self.koszul_sets = [
            (
                [
                    (shape, build_closure(shape.closure, closure_seeds(self._rng("strand", r, k), shape.closure)))
                    for k, shape in enumerate(w.strands)
                ],
                [
                    campaign.generate_ideal(
                        campaign.CampaignConfig("borel-codim2", n, d, 1, self._rng("reduce", r, k).randrange(10**9)),
                        0,
                    )
                    for k, (n, d) in enumerate(w.reductions)
                ],
            )
            for r in range(w.reps[3])
        ]

    # ---- helpers ----------------------------------------------------------

    def _request(self, rid: str) -> None:
        if self.tracer is not None:
            self.tracer.request = rid

    def _timed(self, total: list[float], fn, *args):
        """Call fn; add its normalized and raw seconds to total[0] and
        total[1], and the normalized seconds to the busy time."""
        try:
            return self.clock.measure(fn, *args)
        finally:
            normalized, raw = self.clock.last
            total[0] += normalized
            total[1] += raw
            self.busy_s += normalized

    def _sample(self, key: str, normalized: float, raw: float) -> None:
        self.samples[key].append(normalized)
        self.raw_samples[key].append(raw)

    def _mismatch(self, what: str) -> None:
        self.mismatches.append(what)
        self.failed += 1

    # ---- phases -----------------------------------------------------------

    def run(self) -> None:
        for r, cfgs in enumerate(self.campaign_cfgs):
            self.run_campaigns(r, cfgs)
        for r, items in enumerate(self.check_sets):
            self.run_checks(r, items)
        for r, items in enumerate(self.closure_sets):
            self.run_stable(r, items)
        for r, (strands, reductions) in enumerate(self.koszul_sets):
            self.run_koszul(r, strands, reductions)

    def run_campaigns(self, r: int, cfgs) -> None:
        spent, rows = [0.0, 0.0], 0
        for k, cfg in enumerate(cfgs):
            self._request(f"campaign/{r}/{cfg.family}")
            out = os.path.join(self.workdir, f"campaign-{r}-{k}.csv")
            self.attempted += cfg.count
            try:
                self._timed(spent, campaign.run_campaign, cfg, out)
            except Exception as exc:  # one raising row aborts the whole campaign
                # its time still counts against rows_per_s
                self.failed += cfg.count
                key = f"campaign_error:{cfg.family}:{type(exc).__name__}"
                self.notes[key] = self.notes.get(key, 0) + 1
                continue
            rows += cfg.count
            with open(out, "rb") as handle:
                data = handle.read()
            if r == 0:
                self.csvs.append(data)
            for line in data.decode().splitlines()[1:]:
                verdicts = dict(v.split("=") for v in line.rsplit(",", 1)[1].split("|"))
                if any(verdicts.get(c) == "fail" for c in COUNTED_CHECKS):
                    self.failed += 1
        self.rows.append(rows)
        self._sample("campaign", *spent)

    def check_csv_determinism(self) -> None:
        """Untimed gate: jobs=2 writes the same bytes as jobs=1."""
        done = {os.path.basename(p) for p in os.listdir(self.workdir)}
        for k, cfg in enumerate(self.campaign_cfgs[0]):
            if f"campaign-0-{k}.csv" not in done:
                continue  # the jobs=1 run raised
            out = os.path.join(self.workdir, f"campaign-0-{k}-jobs2.csv")
            campaign.run_campaign(campaign.CampaignConfig(**{**cfg.__dict__, "jobs": 2}), out)
            with open(out, "rb") as a, open(os.path.join(self.workdir, f"campaign-0-{k}.csv"), "rb") as b:
                if a.read() != b.read():
                    self._mismatch(f"jobs=2 CSV differs for {cfg.family}")

    def csv_digest(self) -> str:
        h = hashlib.sha256()
        for data in self.csvs:
            h.update(data)
        return h.hexdigest()

    def run_checks(self, r: int, items) -> None:
        check_s, hochster_s, dual_s = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
        for k, (path, ideal) in enumerate(items):
            self._request(f"check/{r}/{k}")
            buf = io.StringIO()
            self.attempted += 1
            with contextlib.redirect_stdout(buf):
                code = self._timed(check_s, cli.main, ["check", path, "--checks", CLI_CHECKS, "--betti-grid"])
            out = buf.getvalue()
            verdicts = dict(_VERDICT.findall(out))
            if code == 2 or any(verdicts.get(c) == "fail" for c in COUNTED_CHECKS):
                self.failed += 1

            self.attempted += 1
            complex_ = simplicial.complex_of_ideal(ideal)
            table = self._timed(hochster_s, betti.betti_hochster, complex_)
            if not out.rstrip("\n").endswith(table.format_grid()):
                self._mismatch(f"oracle and Hochster tables differ on check ideal {r}/{k}")

            self.attempted += 1
            try:
                result = self._timed(dual_s, bounds.check_dual_identities, complex_)
            except betti.OracleCapError:
                # seed defect: the dual's oracle cap escapes instead of a verdict
                self.failed += 1
                self.notes["dual_cap_errors"] += 1
            else:
                if result.verdict == "fail":
                    self.failed += 1
        self._sample("check", *check_s)
        self._sample("hochster", *hochster_s)
        self._sample("dual", *dual_s)

    def run_stable(self, r: int, items) -> None:
        closure_s, stable_betti_s = [0.0, 0.0], [0.0, 0.0]
        for k, (shape, seeds) in enumerate(items):
            self._request(f"closure/{r}/{k}")
            self.attempted += 2
            ideal = self._timed(closure_s, build_closure, shape, seeds)
            if len(ideal.gens) != shape.size:
                self._mismatch(f"closure {k} has {len(ideal.gens)} generators, expected {shape.size}")
            b = _closure_bounds(shape)

            def stable_betti():
                return hilbert.summarize(ideal), monomials.is_stable(ideal, b), betti.betti_stable_formula(ideal, b)

            summary, stable, table = self._timed(stable_betti_s, stable_betti)
            if not stable:
                self._mismatch(f"closure {k} is not stable")
            if alternating_numerator(table) != tuple(summary.numerator):
                self._mismatch(f"closure {k}: Hilbert numerator differs from the Betti alternating sum")
            if betti.stable_regularity(ideal, b) != betti.regularity(table):
                self._mismatch(f"closure {k}: stable_regularity differs from the table's regularity")
        self._sample("closure", *closure_s)
        self._sample("stable_betti", *stable_betti_s)

    def run_koszul(self, r: int, strands, reductions) -> None:
        koszul_s = [0.0, 0.0]
        for k, (shape, ideal) in enumerate(strands):
            self._request(f"strands/{r}/{k}")
            n = ideal.n
            self.attempted += 1
            table = self._timed(koszul_s, koszul.koszul_strands, ideal, n, shape.degree_bound)
            formula = betti.betti_stable_formula(ideal, BoundVector.unbounded(n)).to_quotient()
            expected = {key: v for key, v in formula.entries.items() if key[1] <= shape.degree_bound}
            if table.dims != expected:
                self._mismatch(f"Koszul strands {r}/{k} differ from the Betti formula")
        for k, ideal in enumerate(reductions):
            self._request(f"reduce/{r}/{k}")
            self.attempted += 1
            report = self._timed(koszul_s, koszul.reduction_report, ideal)
            if not (report.applicable and report.all_hold):
                self._mismatch(f"reduction report {r}/{k} does not hold")
        self._sample("koszul", *koszul_s)
