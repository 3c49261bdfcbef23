"""In-memory span tracer that wraps public entry points of multbound.

Nothing in ``src/`` changes: class methods are replaced on the class (so
every caller is caught) and module functions are replaced at every module
binding that holds them.  Each span records its name, tag, start, end,
parent, request id and self time (duration minus the time its children
cover).  ``MonomialIdeal.contains`` is the hottest entry point, so it is counted
and timed without a span; its time still counts as child time of the
enclosing span.

Everything runs in one thread, so no layer waits on another and no wait
time is recorded.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from statistics import quantiles

from multbound import betti, bounds, campaign, cli, homology, hilbert, koszul, monomials, simplicial

perf = time.perf_counter

# (span name, owner, attribute): functions are patched at every binding
FUNCTIONS = (
    ("monomials.minimalize", monomials, "minimalize"),
    ("monomials.closure", monomials, "stable_closure"),
    ("monomials.closure", monomials, "strongly_stable_closure"),
    ("monomials.closure", monomials, "squarefree_strongly_stable_closure"),
    ("monomials.is_stable", monomials, "is_stable"),
    ("hilbert.summarize", hilbert, "summarize"),
    ("betti.oracle", betti, "betti_oracle"),
    ("betti.hochster", betti, "betti_hochster"),
    ("betti.formula", betti, "betti_stable_formula"),
    ("betti.cwl", betti, "is_componentwise_linear"),
    ("simplicial.sr_ideal", simplicial, "stanley_reisner_ideal"),
    ("simplicial.complex_of_ideal", simplicial, "complex_of_ideal"),
    ("koszul.strands", koszul, "koszul_strands"),
    ("koszul.reduction", koszul, "reduction_report"),
    ("koszul.suffix", koszul, "almost_regular_suffix"),
    ("bounds.evaluate", bounds, "evaluate_ideal"),
    ("bounds.dual", bounds, "check_dual_identities"),
    ("campaign.run", campaign, "run_campaign"),
    ("campaign.row", campaign, "evaluate_row"),
    ("campaign.generate", campaign, "generate_ideal"),
    ("campaign.generate", campaign, "generate_complex"),
    ("cli.main", cli, "main"),
)
METHODS = (
    ("homology.compose", homology.ExactMatrix, "compose"),
    ("simplicial.restriction", simplicial.SimplicialComplex, "restriction"),
    ("simplicial.dual", simplicial.SimplicialComplex, "alexander_dual"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, tag, start, end, parent, request, self)
        self.stack: list[list] = []  # open spans: [id, child_time]
        self.request = ""
        self.next_id = 0
        self.contains_calls = 0
        self.contains_s = 0.0
        self.rank_cells = 0
        self.rank_nnz = 0
        self.max_cells = 0
        self._undo: list[tuple[object, str, object]] = []

    # ---- patching ---------------------------------------------------------

    def _span(self, name: str, fn, tag_of=None, request_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else -1
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            outer_request = tracer.request
            if request_of is not None:
                tracer.request = request_of(*args)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += t1 - t0
                tag = tag_of(*args) if tag_of is not None else ""
                tracer.spans.append(
                    (sid, name, tag, t0, t1, parent, tracer.request, t1 - t0 - frame[1])
                )
                tracer.request = outer_request

        wrapper.__wrapped__ = fn
        return wrapper

    def _rank_wrapper(self, fn):
        tracer = self
        spanned = self._span("homology.rank", fn)

        def rank(matrix, *args, **kwargs):
            cells = matrix.rows * matrix.cols
            tracer.rank_cells += cells
            tracer.rank_nnz += len(matrix.entries)
            if cells > tracer.max_cells:
                tracer.max_cells = cells
            return spanned(matrix, *args, **kwargs)

        return rank

    def _contains_wrapper(self, fn):
        tracer = self

        def contains(ideal, m):
            t0 = perf()
            try:
                return fn(ideal, m)
            finally:
                dt = perf() - t0
                tracer.contains_calls += 1
                tracer.contains_s += dt
                if tracer.stack:
                    tracer.stack[-1][1] += dt

        return contains

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("multbound")]
        for name, owner, attr in FUNCTIONS:
            original = getattr(owner, attr)
            tag_of = request_of = None
            if attr == "run_campaign":
                tag_of = lambda cfg, *_: cfg.family  # noqa: E731
            if attr == "evaluate_row":
                request_of = lambda cfg, index: f"{cfg.family}/{index}"  # noqa: E731
            wrapped = self._span(name, original, tag_of, request_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        for name, cls, attr in METHODS:
            self._set(cls, attr, self._span(name, getattr(cls, attr)))
        self._set(homology.ExactMatrix, "rank", self._rank_wrapper(homology.ExactMatrix.rank))
        self._set(monomials.MonomialIdeal, "contains", self._contains_wrapper(monomials.MonomialIdeal.contains))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        keys = ("id", "name", "tag", "start", "end", "parent", "request", "self")
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summary(self, scale: float = 1.0) -> dict:
        """Per-pass sums, times multiplied by ``scale`` (the pass's speed
        normalization); ``aggregate`` turns passes into metrics."""
        by_id = {s[0]: s for s in self.spans}
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        families: dict[str, float] = {}
        rows_ms: list[float] = []
        grid_oracle_s = 0.0
        cli_ids = {s[0] for s in self.spans if s[1] == "cli.main"}
        for sid, name, tag, t0, t1, parent, _request, own in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            # inclusive time counts only the outermost span of a name
            p = parent
            nested = False
            while p != -1:
                if by_id[p][1] == name:
                    nested = True
                    break
                p = by_id[p][5]
            if not nested:
                total[name] = total.get(name, 0.0) + (t1 - t0)
            if name == "campaign.run":
                families[tag] = families.get(tag, 0.0) + (t1 - t0)
            elif name == "campaign.row":
                rows_ms.append(1000 * (t1 - t0))
            elif name == "betti.oracle" and parent in cli_ids:
                grid_oracle_s += t1 - t0
        return {
            "calls": calls,
            "total_s": {k: v * scale for k, v in total.items()},
            "self_s": {k: v * scale for k, v in self_s.items()},
            "family_s": {k: v * scale for k, v in families.items()},
            "rows_ms": [v * scale for v in rows_ms],
            "grid_oracle_s": grid_oracle_s * scale,
            "contains_calls": self.contains_calls,
            "contains_s": self.contains_s * scale,
            "rank_cells": self.rank_cells,
            "rank_nnz": self.rank_nnz,
            "max_matrix_cells": self.max_cells,
            "spans": len(self.spans),
        }


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s") or ".family_s." in metric:
        return "s"
    if "_ms_" in metric:
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith(("_density", "_per_op")):
        return "ratio"
    return "count"


def aggregate(passes: list[dict], ops: int, overhead_s: float, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from the summaries of the traced passes: counts and
    times are means per pass; ratios and percentiles pool every pass."""
    k = len(passes)

    def mean_of(get) -> float:
        return sum(get(p) for p in passes) / k

    def calls(name):
        return mean_of(lambda p: p["calls"].get(name, 0))

    def total(name):
        return mean_of(lambda p: p["total_s"].get(name, 0.0))

    def own(name):
        return mean_of(lambda p: p["self_s"].get(name, 0.0))

    cells = mean_of(lambda p: p["rank_cells"])
    nnz = mean_of(lambda p: p["rank_nnz"])
    rows_ms = [x for p in passes for x in p["rows_ms"]]
    if len(rows_ms) >= 2:
        deciles = quantiles(rows_ms, n=10)
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = rows_ms[0] if rows_ms else 0.0
    oracle_calls = sum(p["calls"].get("betti.oracle", 0) for p in passes)
    m = {
        "homology.rank_calls": calls("homology.rank"),
        "homology.rank_s": total("homology.rank"),
        "homology.rank_cells": cells,
        "homology.rank_nnz": nnz,
        "homology.rank_density": nnz / cells if cells else 0.0,
        "homology.max_matrix_cells": max(p["max_matrix_cells"] for p in passes),
        "homology.compose_calls": calls("homology.compose"),
        "homology.compose_s": total("homology.compose"),
        "monomials.contains_calls": mean_of(lambda p: p["contains_calls"]),
        "monomials.contains_s": mean_of(lambda p: p["contains_s"]),
        "monomials.minimalize_calls": calls("monomials.minimalize"),
        "monomials.minimalize_s": total("monomials.minimalize"),
        "monomials.closure_s": total("monomials.closure"),
        "hilbert.summarize_calls": calls("hilbert.summarize"),
        "hilbert.summarize_s": total("hilbert.summarize"),
        "betti.oracle_calls": calls("betti.oracle"),
        "betti.oracle_s": total("betti.oracle"),
        "betti.oracle_calls_per_op": oracle_calls / ops if ops else 0.0,
        "betti.cwl_s": total("betti.cwl"),
        "betti.formula_s": total("betti.formula"),
        "betti.hochster_s": total("betti.hochster"),
        "simplicial.restriction_calls": calls("simplicial.restriction"),
        "simplicial.restriction_s": total("simplicial.restriction"),
        "simplicial.sr_ideal_s": total("simplicial.sr_ideal"),
        "simplicial.dual_s": total("simplicial.dual"),
        "koszul.strands_s": total("koszul.strands"),
        "koszul.reduction_s": total("koszul.reduction"),
        "koszul.suffix_s": total("koszul.suffix"),
        "bounds.evaluate_calls": calls("bounds.evaluate"),
        "bounds.evaluate_self_s": own("bounds.evaluate"),
        "bounds.dual_s": total("bounds.dual"),
        "campaign.generate_s": total("campaign.generate"),
    }
    for f in campaign.FAMILIES:
        m[f"campaign.family_s.{f}"] = mean_of(lambda p: p["family_s"].get(f, 0.0))
    m["campaign.row_ms_p50"] = p50
    m["campaign.row_ms_p90"] = p90
    m["cli.check_self_s"] = own("cli.main")
    m["cli.grid_oracle_s"] = mean_of(lambda p: p["grid_oracle_s"])
    m["trace.overhead_s"] = overhead_s
    m["trace.overhead_pct"] = overhead_pct
    return m
