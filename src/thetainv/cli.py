"""Command-line front end: invariant computation, lattice comparison and the
identity verifier.

Exit codes: 0 ok, 1 verification failure, 2 bad input, 3 resource limit (a
budget, or memory run out).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .catalog import get_lattice
from .errors import ResourceLimitError, ThetaInvError
from .lattice import IntegralLattice, enumerate_shells
from .qseries import QSeries, format_rational
from .theta import InvariantRequest, compute, invariant_metadata
from .verify import DEFAULT_BUDGET, DEFAULT_SEED, report_dict, run_verification

CACHE_ENV = "THETAINV_CACHE_DIR"


def _default_cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "thetainv")


def _resolve_cache(args) -> str | None:
    if args.no_cache:
        return None
    if args.cache_dir:
        return args.cache_dir
    return os.environ.get(CACHE_ENV) or _default_cache_dir()


def _request(args, text: str) -> InvariantRequest:
    """The request named by one --degrees value and the common flags."""
    try:
        degrees = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"degrees must be a comma list of integers, got {text!r}")
    return InvariantRequest(degrees, args.order, args.normalization,
                            args.max_tuples)


def compute_invariant(lattice: IntegralLattice, degrees: tuple[int, ...],
                      order: int, normalization: str) -> QSeries:
    """``theta.compute`` on the request these arguments name."""
    return compute(lattice, InvariantRequest(degrees, order, normalization))


def _render(series: QSeries, lattice: IntegralLattice,
            request: InvariantRequest, fmt: str, decimal: bool) -> str:
    degrees, normalization = request.degrees, request.normalization
    meta = invariant_metadata(lattice, degrees)
    weight = format_rational(meta["weight"])
    character = meta["character"] or ""
    if fmt == "json":
        doc = series.to_json_dict()
        doc["weight"] = weight
        doc["level"] = meta["level"]
        doc["invariant"] = list(degrees)
        doc["normalization"] = normalization
        doc["lattice"] = lattice.label()
        if meta["character"]:
            doc["character"] = meta["character"]
        if decimal:
            doc["decimal_approx"] = [f"{float(c):.12g}" for c in series.coeffs]
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt == "csv":
        header = "power,coefficient" + (",decimal_approx" if decimal else "")
        lines = [header]
        for k, c in enumerate(series.coeffs):
            line = f"{k},{format_rational(c)}"
            if decimal:
                line += f",{float(c):.12g}"
            lines.append(line)
        return "\n".join(lines)
    # table
    head = (f"# lattice={lattice.label()} degrees={','.join(map(str, degrees))} "
            f"normalization={normalization} weight={weight} level={meta['level']}")
    if character:
        head += f" character={character}"
    lines = [head]
    for k, c in enumerate(series.coeffs):
        line = f"q^{k}\t{format_rational(c)}"
        if decimal:
            line += f"\t(~{float(c):.12g})"
        lines.append(line)
    return "\n".join(lines)


def cmd_compute(args) -> int:
    lattice = get_lattice(args.lattice)
    request = _request(args, args.degrees)
    shells = enumerate_shells(lattice, request.order, cache_dir=_resolve_cache(args))
    series = compute(lattice, request, shells=shells)
    print(_render(series, lattice, request, args.format, args.decimal))
    return 0


def cmd_compare(args) -> int:
    lat_a = get_lattice(args.lattice_a)
    lat_b = get_lattice(args.lattice_b)
    if lat_a.rank != lat_b.rank:
        raise ValueError(
            f"rank mismatch: {lat_a.label()} has rank {lat_a.rank}, "
            f"{lat_b.label()} has rank {lat_b.rank}")
    requests = [_request(args, d) for d in (args.degrees or ["0"])]
    cache = _resolve_cache(args)
    # one shell table per lattice, shared by every request with its orbit data
    table_a, table_b = (enumerate_shells(lat, args.order, cache_dir=cache)
                        for lat in (lat_a, lat_b))
    lines = [f"# compare {lat_a.label()} vs {lat_b.label()} order={args.order}"]
    separated = []
    for request in requests:
        sa = compute(lat_a, request, shells=table_a)
        sb = compute(lat_b, request, shells=table_b)
        tag = ",".join(map(str, request.degrees))
        diff = next((k for k in range(args.order + 1)
                     if sa.coeff(k) != sb.coeff(k)), None)
        if diff is None:
            lines.append(f"degrees=({tag}): equal through q^{args.order}")
        else:
            lines.append(
                f"degrees=({tag}): differ at q^{diff} "
                f"({format_rational(sa.coeff(diff))} vs "
                f"{format_rational(sb.coeff(diff))})")
            separated.append(tag)
    if separated:
        lines.append("separated: yes (degrees " + "; ".join(separated) + ")")
    else:
        lines.append(f"separated: no invariant differs through q^{args.order}")
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    results = run_verification(budget=args.order_budget, seed=args.seed)
    report = report_dict(results, args.order_budget)
    if args.format == "text":
        for r in results:
            status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
            print(f"[{status}] {r.name}: {r.detail}")
        print("overall:", "pass" if report["passed"] else "fail")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


# built once per process: parse_args leaves the parser unchanged
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetainv",
        description="Exact theta-series invariants of integral lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=4,
                       help="truncation order K (coefficients of q^0..q^K)")
        p.add_argument("--normalization", default="auto",
                       choices=("auto", "pair", "triple", "general"),
                       help="only rescales the series, whose route the "
                            "degrees choose: pair needs m,m, triple 1,1,1, "
                            "and auto takes the one the degrees allow")
        p.add_argument("--cache-dir", default=None,
                       help=f"shell cache directory (default ${CACHE_ENV} "
                            f"or ~/.cache/thetainv)")
        p.add_argument("--no-cache", action="store_true",
                       help="recompute shells, do not read or write the cache")
        p.add_argument("--max-tuples", type=int,
                       default=InvariantRequest.max_tuples,
                       help="tuple budget of the general route, which serves "
                            "every degree list but 0, m,m and 1,1,1")

    p_compute = sub.add_parser("compute", help="compute one invariant")
    p_compute.add_argument("--lattice", required=True,
                           help="catalog name (z<n> for 1 <= n <= 32, a2, d4, "
                                "e8, e8e8, d16plus) or JSON file path")
    p_compute.add_argument("--degrees", required=True,
                           help="comma list of invariant degrees, e.g. 4,4")
    p_compute.add_argument("--format", default="table",
                           choices=("table", "json", "csv"))
    p_compute.add_argument("--decimal", action="store_true",
                           help="add clearly-labeled decimal approximations")
    common(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_compare = sub.add_parser("compare", help="compare two lattices")
    p_compare.add_argument("--lattice-a", required=True)
    p_compare.add_argument("--lattice-b", required=True)
    p_compare.add_argument("--degrees", action="append",
                           help="invariant degrees; repeat for several "
                                "(default: 0)")
    common(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_verify = sub.add_parser("verify", help="replay the identity suite")
    p_verify.add_argument("--order-budget", type=int, default=DEFAULT_BUDGET)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", default="json", choices=("json", "text"))
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ThetaInvError, ValueError, OSError) as exc:
        # OSError: an unusable --cache-dir, such as a path to a regular file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
