"""Workload definitions: each workload's fixed request list and the seeded
inputs (basis-changed lattices written as JSON files) it runs on.

The request lists are fixed; the seed only chooses the lattice bases and the
order in which each pass of the list is sent.  Every compute result is
basis-invariant, so one reference per request serves every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from thetainv.catalog import get_lattice
from thetainv.lattice import (
    IntegralLattice,
    change_basis,
    random_unimodular,
    validate_lattice,
)

# The rank-2/rank-3 Gram matrices of the identity suite: unlike the catalog
# root lattices, their pair and triple invariants do not vanish.
_SMALL = {
    "skew2": ((2, 1), (1, 4)),
    "skew3": ((2, 1, 0), (1, 4, 1), (0, 1, 6)),
    "diag246": ((2, 0, 0), (0, 4, 0), (0, 0, 6)),
}

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Request:
    """One CLI request.  ``normalization`` is the resolved one (what
    ``--normalization auto`` picks for pair and triple degrees)."""

    base: str                      # reference lattice, or "verify"
    degrees: tuple[int, ...] = ()
    order: int = 0
    normalization: str = "general"
    budget: int = 0                # verify only

    def ref_key(self) -> str:
        return (f"{self.base}|{','.join(map(str, self.degrees))}|"
                f"{self.normalization}|{self.order}")

    def label(self) -> str:
        if self.base == "verify":
            return f"verify budget={self.budget}"
        return (f"{self.base} {','.join(map(str, self.degrees))} "
                f"{self.normalization} q^{self.order}")


def _pair(base, m, order):
    return Request(base, (m, m), order, "pair")


def _triple(base, order):
    return Request(base, (1, 1, 1), order, "triple")


def _general(base, degrees, order):
    return Request(base, tuple(degrees), order, "general")


def _pair_orders(size: str) -> tuple[int, ...]:
    # Orders 3-5, not 4-6: an order-6 request takes about 3 s, and the
    # order-6 table would lengthen both the pre-fill and every pass.
    return (3, 4, 5) if size == "full" else (2, 3)


def _e8_pair_requests(size: str) -> list[Request]:
    # m = 1..9, each at one of the orders, every order used equally often.
    orders = _pair_orders(size)
    return [_pair("e8", m, orders[(m - 1) % len(orders)]) for m in range(1, 10)]


# Every request here has a nonzero reference.  The low-degree invariants of
# e8, d4 and a2 vanish (for E8 because level 1 has no cusp form below weight
# 12), so those lattices carry higher (m,m) requests, and the degree mixes
# 1,1,1 / 2,2,2 / 1,1,2,2 / 1,1,1,1 run on skew2, skew3 and diag246.
_GENERAL_FULL = [
    _general("e8", (4, 4), 2), _pair("e8", 6, 3),
    _general("d4", (3, 3), 3), _pair("d4", 3, 4), _pair("d4", 4, 4),
    _general("a2", (3, 3), 4), _general("a2", (3, 3), 6), _pair("a2", 3, 6),
    _general("skew2", (1, 1, 1, 1), 4), _general("skew2", (1, 1, 2, 2), 4),
    _general("skew2", (1, 1), 5), _general("skew2", (2, 2), 4),
    _general("skew2", (3, 3), 4), _pair("skew2", 2, 6),
    _general("skew3", (1, 1, 1), 4), _general("skew3", (2, 2, 2), 4),
    _general("skew3", (1, 1, 2, 2), 4), _general("skew3", (1, 1, 1, 1), 4),
    _general("skew3", (1, 1), 4), _general("skew3", (2, 2), 4),
    _triple("skew3", 5), _triple("skew3", 6), _pair("skew3", 3, 5),
    _general("diag246", (1, 1, 1), 4), _general("diag246", (2, 2, 2), 4),
    _general("diag246", (1, 1, 2, 2), 4), _general("diag246", (1, 1, 1, 1), 4),
    _general("diag246", (1, 1), 4), _general("diag246", (2, 2), 4),
    _triple("diag246", 5), _pair("diag246", 2, 6),
]

_GENERAL_TINY = [
    _pair("e8", 4, 2), _general("d4", (3, 3), 2),
    _general("skew2", (1, 1), 3), _general("skew3", (1, 1, 1), 3),
    _pair("diag246", 2, 3), _pair("a2", 3, 3),
]


def requests(workload: str, size: str = "full") -> list[Request]:
    """The fixed request list of one pass of a workload."""
    if workload == "e8-pair-warm":
        return _e8_pair_requests(size)
    if workload == "general-small":
        return list(_GENERAL_FULL if size == "full" else _GENERAL_TINY)
    if workload == "rank16-cold":
        return [_pair("e8e8", 1, 3 if size == "full" else 1)]
    if workload == "verify":
        return [Request("verify", budget=6 if size == "full" else 1)]
    raise ValueError(f"unknown workload {workload!r}")


def base_lattice(name: str) -> IntegralLattice:
    if name in _SMALL:
        return validate_lattice(_SMALL[name], name=name)
    return get_lattice(name)


def signed_permutation(rank: int, rng: random.Random) -> list[list[int]]:
    perm = list(range(rank))
    rng.shuffle(perm)
    u = [[0] * rank for _ in range(rank)]
    for col, row in enumerate(perm):
        u[row][col] = rng.choice((-1, 1))
    return u


def write_lattice(lattice: IntegralLattice, path: str) -> str:
    with open(path, "w") as fh:
        json.dump({"name": lattice.name, "rank": lattice.rank,
                   "gram2": [list(r) for r in lattice.gram2]}, fh)
    return path


@dataclass
class RunInputs:
    """Inputs of one run: a lattice file per request, the cache policy, and
    the prebuilt shell tables a warm cache must hold."""

    files: dict[Request, str]
    cache_dir: str | None          # None: requests pass --no-cache
    cold: bool = False             # give every request its own empty cache dir
    prefill: tuple = ()            # (lattice, bound) pairs to cache in set-up


def make_inputs(workload: str, size: str, seed: int, workdir: str) -> RunInputs:
    """Write the seeded lattice files of a run into ``workdir``."""
    rng = random.Random(seed)
    reqs = requests(workload, size)
    if workload == "verify":
        return RunInputs({}, None)
    if workload == "e8-pair-warm":
        # One basis change of E8 per order: the shell cache is keyed by the
        # exact bound, so each variant is cached at exactly its order.
        e8 = base_lattice("e8")
        files, prefill = {}, []
        for j, order in enumerate(_pair_orders(size)):
            lat = change_basis(e8, random_unimodular(8, rng))
            path = write_lattice(lat, os.path.join(workdir, f"e8-b{j}.json"))
            prefill.append((lat, order))
            for r in reqs:
                if r.order == order:
                    files[r] = path
        return RunInputs(files, os.path.join(workdir, "cache"),
                         prefill=tuple(prefill))
    if workload == "general-small":
        paths = {}
        for name in sorted({r.base for r in reqs}):
            lat = base_lattice(name)
            moved = change_basis(lat, random_unimodular(lat.rank, rng))
            paths[name] = write_lattice(moved, os.path.join(workdir, f"{name}.json"))
        return RunInputs({r: paths[r.base] for r in reqs}, None)
    if workload == "rank16-cold":
        lat = base_lattice("e8e8")
        moved = change_basis(lat, signed_permutation(lat.rank, rng))
        path = write_lattice(moved, os.path.join(workdir, "e8e8.json"))
        return RunInputs({r: path for r in reqs},
                         os.path.join(workdir, "cache"), cold=True)
    raise ValueError(f"unknown workload {workload!r}")


def verify_seeds(seed: int):
    """Per-request seeds of the verify workload, derived from the run seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


def compute_argv(req: Request, path: str, cache_dir: str | None) -> list[str]:
    argv = ["compute", "--lattice", path,
            "--degrees", ",".join(map(str, req.degrees)),
            "--order", str(req.order), "--format", "json"]
    if req.normalization == "general":
        argv += ["--normalization", "general"]
    argv += ["--cache-dir", cache_dir] if cache_dir else ["--no-cache"]
    return argv
