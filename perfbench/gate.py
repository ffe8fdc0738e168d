"""Exact output gate: every compute result must equal its stored reference.

``refs.json`` maps a request key (lattice|degrees|normalization|order) to
the expected coefficients (exact fractions as strings), weight, level and
character.  The references are invariant under change of basis, so they
hold for the lattice variants of every seed.  ``make_refs.py`` writes them.

A reference may also hold ``shell_sizes``, the number of lattice vectors of
each norm up to the request's order.  A request that writes its shell table
to a cache must then write exactly those shells (``check_shells``), so work
that never reaches the series (such as e8e8's top shell) is checked too.
"""

from __future__ import annotations

import json
import os
from itertools import chain

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def from_cli_doc(doc: dict) -> dict:
    """The gated fields of ``thetainv compute --format json`` output."""
    return {"coeffs": list(doc["coeffs"]), "weight": doc["weight"],
            "level": doc["level"], "character": doc.get("character")}


def from_series(series, meta: dict) -> dict:
    """The gated fields of a QSeries and its ``invariant_metadata``."""
    from thetainv.qseries import format_rational
    return {"coeffs": [format_rational(c) for c in series.coeffs],
            "weight": format_rational(meta["weight"]),
            "level": meta["level"], "character": meta["character"] or None}


def check(refs: dict, key: str, got: dict) -> str | None:
    """None when ``got`` equals the reference exactly, else what differs."""
    want = refs.get(key)
    if want is None:
        return f"no reference for {key}"
    bad = [f for f in ("coeffs", "weight", "level", "character")
           if got.get(f) != want.get(f)]
    if bad:
        return f"{key}: {', '.join(bad)} differ from the reference"
    return None


def check_sizes(refs: dict, key: str, table) -> str | None:
    """None when ``table`` holds the reference number of vectors of each
    norm."""
    want = refs[key]["shell_sizes"]
    got = [len(table.shell(k)) for k in range(table.bound + 1)]
    if got != want:
        return f"{key}: shell sizes {got} differ from the reference {want}"
    return None


def check_table(refs: dict, key: str, table) -> str | None:
    """None when ``table`` holds exactly the reference shells: the stored
    number of vectors of each norm, each vector of its shell's norm, none
    repeated.  A shell with those properties is the whole shell."""
    import numpy as np
    problem = check_sizes(refs, key, table)
    if problem:
        return problem
    gram2 = np.array(table.lattice.gram2, dtype=np.int64)
    rank = len(gram2)
    for k in range(table.bound + 1):
        shell = table.shell(k)
        v = np.fromiter(chain.from_iterable(shell), dtype=np.int64,
                        count=len(shell) * rank).reshape(-1, rank)
        if np.any(((v @ gram2) * v).sum(axis=1) != 2 * k):
            return f"{key}: shell {k} holds a vector of another norm"
        rows = v.view(np.dtype((np.void, v.itemsize * rank))).ravel()
        if len(np.unique(rows)) != len(rows):
            return f"{key}: shell {k} repeats a vector"
    return None


def check_shells(refs: dict, key: str, lattice, bound: int,
                 cache_dir: str) -> str | None:
    """``check_table`` on the shell table a request saved in ``cache_dir``."""
    from thetainv.lattice import load_shell_table
    table = load_shell_table(lattice, bound, cache_dir)
    if table is None:
        return f"{key}: no readable shell table in the cache"
    return check_table(refs, key, table)
