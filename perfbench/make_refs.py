"""Write refs.json: the exact reference of every benchmark compute request,
computed on the catalog bases and cross-checked before it is stored.

    python3 perfbench/make_refs.py          # from the repository root

Cross-checks (each reference records the ones it passed in ``checked_by``):

* ``e8-closed-form``: the E8 (m,m) pair invariants equal the Delta /
  Eisenstein closed forms of the identity suite (zero for m = 1, 2, 3, 5).
* ``rank16-vanishing``: the (1,1) invariant of an even unimodular rank-16
  lattice is zero, since all its degree-2 spherical theta series vanish.
  Its ``shell_sizes`` are the theta coefficients of e8e8, E_4^2 = E_8
  (1, 480, 61920, 1050240, ...), and match the enumerated shells
  (``e8e8-theta``).
* ``pair-route`` / ``triple-route``: the general (orthonormal-basis) route
  equals the pair-histogram or the contracted triple route.
* ``basis-invariance``: the same request on a randomly changed basis gives
  the same series (used where no independent route is affordable).

The script stops without writing when any check fails.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from math import prod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from thetainv.cli import compute_invariant  # noqa: E402
from thetainv.lattice import (  # noqa: E402
    change_basis,
    enumerate_shells,
    random_unimodular,
)
from thetainv.qseries import delta_series, eisenstein  # noqa: E402
from thetainv.theta import (  # noqa: E402
    InvariantRequest,
    invariant_metadata,
    theta_general,
    theta_pair,
    theta_triple,
)
from thetainv.verify import E8_PAIR_CONSTANTS, E8_PAIR_Q2  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402
from run import WORKLOADS  # noqa: E402

# tuple budget of the general route when it serves as the cross-check
_ROUTE_BUDGET = 2_000_000


def _series(lat, req):
    return compute_invariant(lat, req.degrees, req.order, req.normalization)


def _e8_closed_form(m: int, order: int):
    d2 = delta_series(order) ** 2
    if m in (1, 2, 3, 5):
        return 0 * d2
    if m == 4:
        return E8_PAIR_CONSTANTS[4] * d2
    if m == 6:
        return E8_PAIR_CONSTANTS[6] * (eisenstein(8, order) * d2)
    ew = {7: 6, 8: 8, 9: 10}[m]
    return E8_PAIR_CONSTANTS[m] * (eisenstein(ew, order) ** 2 * d2)


def _e8e8_shell_sizes(order: int) -> list[int]:
    """Vectors of each norm in e8e8: the coefficients of E_8 = E_4^2."""
    e8 = eisenstein(8, order)
    sizes = [c / e8.coeff(0) for c in e8.coeffs]
    if any(c.denominator != 1 for c in sizes):
        raise SystemExit("E_8 does not normalise to an integral theta series")
    return [int(c) for c in sizes]


def _route_checks(lat, req, series) -> list[str]:
    """Compare with the other route when its tuple count is affordable."""
    n = lat.rank
    passed = []
    if len(req.degrees) == 2 and req.degrees[0] == req.degrees[1]:
        m = req.degrees[0]
        c2m = Fraction(1, prod(n + 2 * j for j in range(2 * m)))
        gen = theta_general(lat, InvariantRequest(req.degrees, req.order,
                                                  max_tuples=_ROUTE_BUDGET))
        pair = theta_pair(lat, m, req.order)
        want = gen if req.normalization == "general" else pair
        if gen != c2m * pair or series != want:
            raise SystemExit(f"pair-route mismatch: {req.label()}")
        passed.append("pair-route")
    if req.degrees == (1, 1, 1):
        order = req.order
        if req.normalization == "triple" and lat.rank == 8:
            order = min(order, 2)      # the E8 general route stops at q^2
        scale = Fraction(n**4 * (n + 2) * (n + 4))
        gen = theta_general(lat, InvariantRequest((1, 1, 1), order,
                                                  max_tuples=_ROUTE_BUDGET))
        tri = theta_triple(lat, order)
        got = series.truncate(order)
        want = gen if req.normalization == "general" else tri
        if scale * gen != tri or got != want:
            raise SystemExit(f"triple-route mismatch: {req.label()}")
        passed.append("triple-route" if order == req.order
                      else f"triple-route-through-q{order}")
    return passed


def reference(req) -> dict:
    lat = wl.base_lattice(req.base)
    series = _series(lat, req)
    checked = []
    if req.base == "e8" and req.normalization == "pair":
        m = req.degrees[0]
        if series != _e8_closed_form(m, req.order):
            raise SystemExit(f"E8 closed form fails: {req.label()}")
        if req.order >= 2 and series.coeff(2) != E8_PAIR_Q2[m]:
            raise SystemExit(f"E8 q^2 table fails: {req.label()}")
        checked.append("e8-closed-form")
    elif req.base == "e8e8":
        if not series.is_zero():
            raise SystemExit(f"rank-16 (1,1) invariant is not zero: {req.label()}")
        checked.append("rank16-vanishing")
        sizes = _e8e8_shell_sizes(req.order)
        table = enumerate_shells(lat, req.order, use_cache=False)
        if [len(table.shell(k)) for k in range(req.order + 1)] != sizes:
            raise SystemExit(f"e8e8 shells differ from E_8: {req.label()}")
        checked.append("e8e8-theta")
    else:
        checked += _route_checks(lat, req, series)
        moved = change_basis(lat, random_unimodular(lat.rank, random.Random(7)))
        if _series(moved, req) != series:
            raise SystemExit(f"basis invariance fails: {req.label()}")
        checked.append("basis-invariance")
    ref = gate.from_series(series, invariant_metadata(lat, req.degrees))
    ref["checked_by"] = checked
    if req.base == "e8e8":
        ref["shell_sizes"] = sizes
    return ref


def main() -> int:
    reqs = {r for w in WORKLOADS for size in wl.SIZES
            for r in wl.requests(w, size) if r.base != "verify"}
    refs = {}
    for req in sorted(reqs, key=lambda r: r.ref_key()):
        refs[req.ref_key()] = reference(req)
        print(f"{req.ref_key()}: {', '.join(refs[req.ref_key()]['checked_by'])}",
              flush=True)
    with open(gate.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {gate.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
