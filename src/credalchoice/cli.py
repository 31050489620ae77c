"""Command-line front end.

Commands::

    credalchoice validate THEORY.ccl
    credalchoice infer THEORY.ccl [--query TEXT] [--method M] [--epsilon E]
    credalchoice psat-export THEORY.ccl [--query TEXT] [--alpha A]
    credalchoice rank RANKINGS [--backend B] [--threshold T] [--format F]
    credalchoice worlds THEORY.ccl [--format F]

Exit codes: 0 on success, 1 on domain violations (failed validation,
violated preconditions, resource caps, infeasibility), 2 on I/O and
parse errors.  Output is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CCLError, ParseError
from .inference import (
    credal_bounds_single_space,
    credal_bounds_strong_extension,
    icl_mass_function,
    outer_bound,
)
from .psat import bisect_bounds, build_psat_instance, export_psat
from .ranking import (
    evaluate,
    parse_counts_csv,
    parse_rankings,
    report_from_marginals,
    smooth_marginals,
)
from .rational import format_fraction, parse_fraction
from .theory import TheoryDocument, load_ccl, parse_query, require_valid, validate_theory
from .worlds import build_world_space, class_table, world_space_json, world_table

def _pick_query(doc: TheoryDocument, text: str | None):
    if text:
        return parse_query(text)
    if doc.queries:
        return doc.queries[0]
    raise ValueError("no query given and the theory file declares none")


def _load_valid(path: str) -> TheoryDocument:
    doc = load_ccl(path)
    require_valid(doc.theory)
    return doc


def cmd_validate(args: argparse.Namespace) -> int:
    doc = load_ccl(args.theory)
    report = validate_theory(doc.theory)
    print(str(report))
    return 0 if report.ok else 1


def cmd_infer(args: argparse.Namespace) -> int:
    doc = _load_valid(args.theory)
    t = doc.theory
    q = _pick_query(doc, args.query)
    if args.method == "lp":
        interval = credal_bounds_single_space(t, q)
    elif args.method == "vertex":
        interval = credal_bounds_strong_extension(t, q)
    elif args.method == "outer":
        interval = outer_bound(t, q)
    else:  # argparse restricts the choices, so this is psat
        interval = bisect_bounds(t, q, parse_fraction(args.epsilon))
    if args.format == "table":
        d = interval.to_json_dict()
        print(f"lower  {d['lower']}  ({d['lower_dec']})")
        print(f"upper  {d['upper']}  ({d['upper_dec']})")
        print(f"method {d['method']}")
        print(f"epsilon {d['epsilon']}")
    else:
        print(interval.to_json())
    return 0


def cmd_psat_export(args: argparse.Namespace) -> int:
    doc = _load_valid(args.theory)
    q = _pick_query(doc, args.query)
    inst = build_psat_instance(doc.theory, q, parse_fraction(args.alpha))
    sys.stdout.write(export_psat(inst))
    return 0


def cmd_worlds(args: argparse.Namespace) -> int:
    doc = _load_valid(args.theory)
    ws = build_world_space(doc.theory)
    weights = None
    if all(len(sp.alternatives) == 1 for sp in doc.theory.spaces):
        weights = [format_fraction(v) for v in icl_mass_function(doc.theory, world_space=ws).values]
    if args.format == "json":
        payload = world_space_json(ws)
        if weights is not None:
            payload["independent_weights"] = weights
        print(json.dumps(payload, indent=2))
    else:
        print(world_table(ws))
        if weights is not None:
            print("mu'  " + " ".join(weights))
        print()
        print(class_table(ws))
    return 0


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_rank(args: argparse.Namespace) -> int:
    text = _read_text(args.data)
    threshold = parse_fraction(args.threshold)
    epsilon = parse_fraction(args.epsilon)
    if args.counts or args.data.endswith(".csv"):
        # counts carry no individual rankings, so no ground truth
        if args.holdout:
            raise ValueError("--holdout needs a rankings file: a counts CSV has no rankings to hold out")
        counts = parse_counts_csv(text)
        report = report_from_marginals(
            smooth_marginals(counts, parse_fraction(args.smoothing)),
            threshold=threshold,
            backend=args.backend,
            epsilon=epsilon,
            counts=counts,
        )
    else:
        report = evaluate(
            parse_rankings(text),
            equivalent_size=parse_fraction(args.smoothing),
            threshold=threshold,
            backend=args.backend,
            epsilon=epsilon,
            holdout=parse_fraction(args.holdout) if args.holdout else None,
            seed=args.seed,
        )
    payload = report.to_json_dict()
    if args.format == "table":
        _print_rank_table(payload)
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _print_rank_table(payload: dict) -> None:
    if payload["counts"] is not None:
        print("counts (rows = positions best first; columns = " + ", ".join(payload["objects"]) + ")")
        for row in payload["counts"]["matrix"]:
            print("  " + " ".join(f"{v:>4}" for v in row))
        print(f"  N={payload['counts']['total']}")
    print("pair        interval                      ccl        icl        truth")
    for p in payload["pairs"]:
        pair = ">".join(p["pair"])
        iv = p["interval"]
        interval = f"[{iv['lower']}, {iv['upper']}]"
        print(
            f"{pair:<10}  {interval:<28}  {str(p['ccl_verdict']):<9}  "
            f"{str(p['icl_verdict']):<9}  {p['truth']}"
        )
    rate = payload["determinacy_rate"]
    print(f"determinacy_rate {rate['value']} ({rate['dec']})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credalchoice",
        description="Exact interval-valued inference for credal choice logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a theory file against the structural rules")
    p.add_argument("theory")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("infer", help="bound the probability of a query")
    p.add_argument("theory")
    p.add_argument("--query", help="comma-separated literals; \\+ negates")
    p.add_argument(
        "--method",
        choices=["lp", "vertex", "outer", "psat"],
        default="vertex",
        help="lp: one-space exact; vertex: exact for any spaces; outer: fast relaxation; psat: bisection",
    )
    p.add_argument("--epsilon", default="1/1024", help="bisection tolerance (psat method)")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("psat-export", help="print the satisfiability reduction of a theory")
    p.add_argument("theory")
    p.add_argument("--query")
    p.add_argument("--alpha", default="1/2", help="probe probability for the query assessment")
    p.set_defaults(fn=cmd_psat_export)

    rank_help = "pairwise decisions from rankings or counts, of up to 7 objects, on either backend"
    p = sub.add_parser("rank", help=rank_help, description=rank_help)
    p.add_argument("data", help="rankings file, or counts CSV (*.csv or --counts)")
    p.add_argument("--counts", action="store_true", help="treat the input as a counts CSV")
    p.add_argument("--backend", choices=["lp", "psat"], default="lp")
    p.add_argument("--threshold", default="1/2", help="decision threshold, a probability in [0, 1]")
    p.add_argument("--smoothing", default="2", help="prior weight for marginal smoothing")
    p.add_argument("--epsilon", default="1/1024")
    p.add_argument("--holdout", help="fraction of rankings held out as ground truth (rankings files only)")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed for the holdout split")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("worlds", help="dump the worlds and classes of a theory")
    p.add_argument("theory")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_worlds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CCLError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
