"""Built-in lattice catalog and the JSON lattice file format.

Catalog entries carry a provenance note and a golden theta prefix used by the
verifier as a tamper check.  The two rank-16 entries form the classical
isospectral, non-isometric pair (block sum of two E8 copies versus the glued
double-cover of D16); their golden values stop at order 2 because the norm-3
shell already holds over a million vectors.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

from .errors import LatticeFileError
from .lattice import IntegralLattice, validate_lattice


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    lattice: IntegralLattice
    provenance: str
    theta_golden: tuple[int, ...]  # coefficients of q^0 .. q^golden_order
    golden_order: int


def _zn(n: int) -> IntegralLattice:
    gram2 = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    return validate_lattice(gram2, name=f"z{n}")


_A2 = [[2, 1], [1, 2]]

_D4 = [
    [2, 0, -1, 0],
    [0, 2, -1, 0],
    [-1, -1, 2, -1],
    [0, 0, -1, 2],
]

# Simple-root Gram matrix of E8, Bourbaki numbering: chain 1-3-4-5-6-7-8
# with node 2 attached to node 4.
_E8 = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]


def _block_sum(a, b):
    na, nb = len(a), len(b)
    out = [[0] * (na + nb) for _ in range(na + nb)]
    for i in range(na):
        for j in range(na):
            out[i][j] = a[i][j]
    for i in range(nb):
        for j in range(nb):
            out[na + i][na + j] = b[i][j]
    return out


def _d16plus_gram() -> list[list[int]]:
    """Gram data of the glued lattice from its generator rows
    2 e1, e2 - e1, ..., e15 - e14, (1/2, ..., 1/2), doubled to the integer
    rows 4 e1, 2 (e_{i+1} - e_i) and all ones, whose dot products are
    multiples of 4."""
    rows = [[4] + [0] * 15]
    for i in range(14):
        rows.append([0] * i + [-2, 2] + [0] * (14 - i))
    rows.append([1] * 16)
    dots = [[sum(x * y for x, y in zip(r, s)) for s in rows] for r in rows]
    assert all(d % 4 == 0 for line in dots for d in line)
    return [[d // 4 for d in line] for line in dots]


def _build_catalog() -> dict[str, CatalogEntry]:
    entries = [
        CatalogEntry("z1", _zn(1), "rank-1 integer lattice", (1, 2, 0, 0, 2), 4),
        CatalogEntry("z2", _zn(2), "square lattice", (1, 4, 4, 0, 4), 4),
        CatalogEntry("z3", _zn(3), "cubic lattice", (1, 6, 12, 8, 6), 4),
        CatalogEntry("z4", _zn(4), "rank-4 integer lattice", (1, 8, 24, 32, 24), 4),
        CatalogEntry("a2", validate_lattice(_A2, name="a2"),
                     "hexagonal root lattice A2", (1, 6, 0, 6, 6), 4),
        CatalogEntry("d4", validate_lattice(_D4, name="d4"),
                     "root lattice D4 (simple-root Gram matrix)",
                     (1, 24, 24, 96, 24), 4),
        CatalogEntry("e8", validate_lattice(_E8, name="e8"),
                     "root lattice E8 (simple-root Gram matrix, Bourbaki numbering)",
                     (1, 240, 2160, 6720, 17520), 4),
        CatalogEntry("e8e8", validate_lattice(_block_sum(_E8, _E8), name="e8e8"),
                     "orthogonal sum of two E8 copies; isospectral to d16plus "
                     "without being isometric", (1, 480, 61920), 2),
        CatalogEntry("d16plus", validate_lattice(_d16plus_gram(), name="d16plus"),
                     "even unimodular glue of D16 with the all-halves vector; "
                     "isospectral to e8e8 without being isometric",
                     (1, 480, 61920), 2),
    ]
    return {e.name: e for e in entries}


_CATALOG: dict[str, CatalogEntry] | None = None


def catalog() -> dict[str, CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


_ZN_RE = re.compile(r"^z(\d+)$")


def lattice_by_name(name: str) -> IntegralLattice | None:
    """Catalog lookup by case-insensitive name; z<n> is built on demand."""
    key = name.strip().lower()
    entry = catalog().get(key)
    if entry is not None:
        return entry.lattice
    m = _ZN_RE.match(key)
    if m:
        n = int(m.group(1))
        if 1 <= n <= 32:
            return _zn(n)
    return None


def parse_lattice_file(path: str) -> IntegralLattice:
    """Parse {"name": ..., "rank": n, "gram2": [[...]]} and validate it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise LatticeFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LatticeFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict) or "gram2" not in doc:
        raise LatticeFileError(f"{path}: expected an object with a 'gram2' field")
    gram2 = doc["gram2"]
    if not isinstance(gram2, list) or not all(isinstance(r, list) for r in gram2):
        raise LatticeFileError(f"{path}: 'gram2' must be a matrix (list of rows)")
    # JSON true and false load as bool, which is a subclass of int
    for row in gram2:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise LatticeFileError(f"{path}: matrix entries must be integers")
    rank = doc.get("rank")
    if rank is not None and type(rank) is not int:
        raise LatticeFileError(f"{path}: 'rank' must be an integer")
    if rank is not None and rank != len(gram2):
        raise LatticeFileError(
            f"{path}: declared rank {rank} does not match matrix size {len(gram2)}")
    name = doc.get("name")
    return validate_lattice(gram2, name=name if isinstance(name, str) else None)


def get_lattice(source: str) -> IntegralLattice:
    """Resolve a lattice from a catalog name or a JSON file path."""
    found = lattice_by_name(source)
    if found is not None:
        return found
    if os.path.exists(source):
        return parse_lattice_file(source)
    raise LatticeFileError(
        f"unknown lattice {source!r}: not a catalog name "
        f"({', '.join(sorted(catalog()))}, z<n> for 1 <= n <= 32) and not an "
        f"existing file")
