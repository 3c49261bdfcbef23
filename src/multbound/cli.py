"""Command line interface.

Exit codes: 0 no bound failed (a cwl fail says only that the ideal is not
componentwise linear), 1 a bound check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .bounds import CHECK_NAMES, FAIL, check_dual_identities, evaluate_ideal, ideal_hash
from .campaign import FAMILIES, CampaignConfig, run_campaign
from .koszul import reduction_report
from .monomials import BoundVector, ideal_from_json
from .simplicial import complex_from_json, complex_to_json


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _parse_checks(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ValueError("empty check list")
    return names


def _cmd_check(args: argparse.Namespace) -> int:
    ideal = ideal_from_json(_load_json(args.ideal))
    report = evaluate_ideal(ideal, _parse_checks(args.checks))
    record, st = report.record, report.record.stats
    print(f"ideal {ideal_hash(ideal)}: n={ideal.n}, generators={len(ideal.gens)}, "
          f"max degree={ideal.max_gen_degree}")
    pdim, reg, shifts = (None, None, ()) if st is None else (st.pdim, st.reg, st.max_shifts)
    print(f"e={record.summary.multiplicity} codim={record.summary.codim} pdim={pdim} "
          f"reg={reg} M=({','.join(map(str, shifts))}) cm={record.cm}")
    if report.upper_bound is not None:
        print(f"upper bound={report.upper_bound} tightness={report.tightness} "
              f"weak bound={report.weak_bound}")
    for name in CHECK_NAMES:
        result = report.results.get(name)
        if result is not None:
            print(f"{name}: {result.verdict}  [{result.detail}]")
    if args.betti_grid:
        # the table the checks used; over the oracle budget, the reason there is none
        print(record.cap_message if record.table is None else record.table.format_grid())
    return 1 if report.any_fail else 0


def _cmd_dual(args: argparse.Namespace) -> int:
    complex_ = complex_from_json(_load_json(args.complex))
    dual = complex_.alexander_dual()
    print(json.dumps(complex_to_json(dual)))
    result = check_dual_identities(complex_)
    print(f"dual: {result.verdict}  [{result.detail}]")
    return 1 if result.verdict == FAIL else 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    ideal = ideal_from_json(_load_json(args.ideal))
    report = reduction_report(ideal)
    print(json.dumps(report.to_json(), indent=2))
    if report.applicable and not report.all_hold:
        return 1
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    bounds = BoundVector.from_text(args.a) if args.a else None
    cfg = CampaignConfig(
        family=args.family,
        n=args.n,
        max_degree=args.max_deg,
        count=args.count,
        master_seed=args.seed,
        checks=_parse_checks(args.checks),
        bounds=bounds,
        max_gens=args.max_gens,
        jobs=args.jobs,
    )
    code = run_campaign(cfg, args.out)
    print(f"wrote {args.count} rows to {args.out}"
          + ("" if code == 0 else "; A CHECK FAILED — inspect the verdict column"))
    return code


@cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multbound",
        description="Exact Betti tables, Hilbert series, and multiplicity bound checks "
        "for monomial ideals and Stanley-Reisner rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run bound checks against one ideal")
    check.add_argument("ideal", help="path to an ideal JSON file")
    check.add_argument("--checks", default="c2,c1,hm,weak", metavar="LIST",
                       help=f"comma list from {{{','.join(CHECK_NAMES)}}}")
    check.add_argument("--betti-grid", action="store_true", help="print the Betti table grid")
    check.set_defaults(func=_cmd_check)

    dual = sub.add_parser("dual", help="Alexander dual and duality identities of a complex")
    dual.add_argument("complex", help="path to a complex JSON file")
    dual.set_defaults(func=_cmd_dual)

    reduce_ = sub.add_parser("reduce", help="codimension-2 Artinian reduction report")
    reduce_.add_argument("ideal", help="path to an ideal JSON file")
    reduce_.set_defaults(func=_cmd_reduce)

    campaign = sub.add_parser("campaign", help="run a seeded instance campaign")
    campaign.add_argument("--family", required=True, choices=FAMILIES)
    campaign.add_argument("--n", type=int, required=True)
    campaign.add_argument("--max-deg", type=int, required=True)
    campaign.add_argument("--count", type=int, required=True)
    campaign.add_argument("--seed", type=int, required=True)
    campaign.add_argument("--out", required=True, help="CSV output path")
    campaign.add_argument("--checks", default="c2,weak", metavar="LIST")
    campaign.add_argument("--a", default=None, metavar="BOUNDS",
                          help='bound vector for the a-stable family, e.g. "2,3,inf"')
    campaign.add_argument("--max-gens", type=int, default=18)
    campaign.add_argument("--jobs", type=int, default=1)
    campaign.set_defaults(func=_cmd_campaign)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
