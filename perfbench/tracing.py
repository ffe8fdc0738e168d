"""Traced run: spans recorded from outside the package, around the same public
calls that ``thetainv.cli`` makes.

A span is (name, request id, parent span, start, end, counts).  Spans stay in
memory and are written out when the process ends; ``tracing_report`` turns
them into per-layer metrics.  The counts (vectors, pairs, tuples) are
computed from shell sizes, so they repeat exactly for every seed.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager
from itertools import product
from math import prod

from thetainv import verify as tv
from thetainv.catalog import get_lattice
from thetainv.lattice import enumerate_shells, load_shell_table, save_shell_table
from thetainv.theta import (
    InvariantRequest,
    invariant_metadata,
    theta_general,
    theta_pair,
    theta_triple,
)
from tracing_report import VERIFY_CHECKS

# The theta span of each route.
_ROUTE_SPAN = {"pair": "theta.pair_reduce", "triple": "theta.triple",
               "general": "theta.general"}

# run_verification's checks, called with (budget, seed, E8 table).
_VERIFY_CALLS = {
    "catalog": lambda b, s, t: tv.check_catalog(b),
    "pair_table": lambda b, s, t: [tv.check_pair_table(t)],
    "pair_identities": lambda b, s, t: tv.check_pair_identities(b, t),
    "pair_integrality": lambda b, s, t: tv.check_pair_integrality(b, s, t),
    "triple_integrality": lambda b, s, t: [tv.check_triple_integrality(b)],
    "oracle_equivalences": lambda b, s, t: tv.check_oracle_equivalences(b),
    "combinatorial_lemmas": lambda b, s, t: tv.check_combinatorial_lemmas(),
    "projectors": lambda b, s, t: tv.check_projectors(s),
    "spherical_integrals": lambda b, s, t: [tv.check_spherical_integrals(s)],
    "basis_invariance": lambda b, s, t: [tv.check_basis_invariance(b, s)],
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid: str):
        rec = {"name": name, "rid": rid,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


# -- traced layer calls ----------------------------------------------------------

def enumerate_table(tracer: Tracer, rid: str, lattice, bound: int):
    with tracer.span("lattice.enumerate", rid) as c:
        table = enumerate_shells(lattice, bound, use_cache=False)
        c["vectors"] = sum(table.sizes().values())
        c["rss_mb"] = peak_rss_mb()
    return table


def save_table(tracer: Tracer, rid: str, table, cache_dir: str) -> None:
    with tracer.span("lattice.cache_save", rid) as c:
        c["bytes"] = os.path.getsize(save_shell_table(table, cache_dir))


def build_histograms(tracer: Tracer, rid: str, table, cells) -> None:
    with tracer.span("lattice.pair_hist", rid) as c:
        table.ensure_pair_histograms(cells)
        c["pairs"] = sum(len(table.shell(a)) * len(table.shell(b))
                         for a, b in cells)


# -- traced requests ---------------------------------------------------------------

def _cells(table, order: int) -> set[tuple[int, int]]:
    return {(k1, k - k1) for k in range(order + 1) for k1 in range(k // 2 + 1)
            if table.shell(k1) and table.shell(k - k1)}


def _triple_plan(table, order: int):
    """Pair cells and moment shells that ``theta_triple`` reads."""
    sizes = table.sizes()
    cells, moments = set(), set()
    for k1, k2, k3 in product(range(1, order + 1), repeat=3):
        if k1 + k2 + k3 > order or not (sizes[k1] and sizes[k2] and sizes[k3]):
            continue
        a, b, c = sorted((k1, k2, k3))
        cells |= {(b, c), (a, c), (a, b)}
        # the contracted slot is the largest shell (ties: the later slot)
        moments.add(max((sizes[k], i, k) for i, k in enumerate((a, b, c)))[2])
    return cells, moments


def _tuple_count(table, degrees, order: int) -> int:
    """The tuple budget count ``theta_general`` checks against max_tuples."""
    sizes = table.sizes()
    return sum(prod(sizes[c] for c in comp)
               for comp in product(range(order + 1), repeat=len(degrees))
               if sum(comp) <= order)


def traced_compute(tracer: Tracer, rid: str, req, path: str,
                   cache_dir: str | None):
    """One compute request split into the calls ``cli.compute_invariant``
    makes; returns the series, its metadata and the shell table."""
    with tracer.span("request", rid):
        with tracer.span("catalog.load", rid):
            lat = get_lattice(path)
        table = None
        if cache_dir:
            with tracer.span("lattice.cache_load", rid) as c:
                table = load_shell_table(lat, req.order, cache_dir)
                c["lookups"] = 1
                c["hits"] = int(table is not None)
        if table is None:
            table = enumerate_table(tracer, rid, lat, req.order)
            if cache_dir:
                save_table(tracer, rid, table, cache_dir)
        moments: set[int] = set()
        if req.normalization == "triple":
            cells, moments = _triple_plan(table, req.order)
        elif req.normalization == "pair" or len(req.degrees) == 2:
            cells = _cells(table, req.order)
        else:
            cells = set()
        build_histograms(tracer, rid, table, cells)
        if moments:
            with tracer.span("lattice.moment", rid):
                for k in moments:
                    table.moment_matrix(k)
        if req.normalization == "general":
            tuples = _tuple_count(table, req.degrees, req.order)
        with tracer.span(_ROUTE_SPAN[req.normalization], rid) as c:
            if req.normalization == "pair":
                series = theta_pair(lat, req.degrees[0], req.order, shells=table)
            elif req.normalization == "triple":
                series = theta_triple(lat, req.order, shells=table)
            else:
                c["tuples"] = tuples
                series = theta_general(
                    lat, InvariantRequest(req.degrees, req.order, "general"),
                    shells=table)
        with tracer.span("theta.metadata", rid):
            meta = invariant_metadata(lat, req.degrees)
    return series, meta, table


def traced_verify(tracer: Tracer, rid: str, budget: int, seed: int) -> list:
    """``run_verification`` split into its E8 table and its checks."""
    results = []
    with tracer.span("request", rid):
        with tracer.span("catalog.load", rid):
            e8 = get_lattice("e8")
        bound = 2 if budget < 2 else min(6, max(budget, 2))
        table = enumerate_table(tracer, rid, e8, bound)
        # the pair checks read every cell up to the table bound
        build_histograms(tracer, rid, table, _cells(table, bound))
        for name in VERIFY_CHECKS:
            with tracer.span(f"verify.{name}", rid):
                results.extend(_VERIFY_CALLS[name](budget, seed, table))
    return results
