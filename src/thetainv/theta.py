"""q-expansions of the lattice invariants: the theta series, spherical theta
series, the degree-(m,m) pair invariant, the degree-(1,1,1) triple invariant
and the general multi-degree invariant.

Everything is exact.  Cosines are never formed: all per-tuple quantities are
rewritten in terms of integer norms and the doubled pairing t = v^T A w, so
the only denominators are explicit powers of two and the structure constants.

The general invariant is evaluated by collapsing the sum over monomial
tuples with the reproducing kernel of the differential pairing: the sum over
a degree-2m orthonormal monomial basis of [projected basis element](x) times
the same element at v equals the harmonic projection (in x) of
(x . v)^{2m} / (2m)!.  The resulting integrand is a polynomial in the pair
values (x . v_l), and its sphere average is a universal polynomial in the
pairwise inner products of the v_l, evaluated here from the Gram data.  The
pair/triple routes below serve (m, m) and (1, 1, 1), with this reduction as
their oracle: the pair invariant evaluates a polynomial in the doubled
pairing at the buckets of pair histograms, and the triple invariant is a
sum of traces of products of P_k = gram2 M_k, with M_k the moment matrix of
shell k, so it pairs no two vectors at all.

Every route sums each shell composition once per reordering of its slots of
equal degree, times the number of such reorderings, and no composition with
the zero vector in a slot of positive degree (_cells).
Every reduction runs in exact integers: each polynomial is held as integer
numerators over one closed-form denominator, it is summed over a histogram
or a shell in integers, and one Fraction is formed per coefficient, never
one per cell, bucket or vector.  The integer totals are the paper's scaled
series: pair_scale(n, m) times the pair series, 8/n times the triple
series, and the general series times the composition denominator of its
degree list.

Every route returns a QSeries, that is a truncation order and coefficients.
The weight, level and character belong to the invariant, its lattice and
degree list, and come from invariant_metadata alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, product
from math import factorial, isqrt, lcm, prod
from operator import mul
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    NoRationalEmbeddingError,
    RankMismatchError,
    ResourceLimitError,
)
from .harmonic import Poly, pair_poly, projector_coeffs
from .lattice import IntegralLattice, ShellTable, enumerate_shells, monomial_sums
from .qseries import QSeries


def _table(lattice: IntegralLattice, order: int,
           shells: ShellTable | None) -> ShellTable:
    if shells is not None:
        if shells.lattice.gram2 != lattice.gram2 or shells.bound < order:
            raise ValueError("shell table does not cover the requested lattice/order")
        return shells
    return enumerate_shells(lattice, order)


def _cells(sizes: Mapping[int, int], order: int, degrees: Sequence[int]):
    """(k, comp, mult) for each composition comp of k <= order into nonempty
    shells, one per slot, with comp non-decreasing within each run of equal
    (non-decreasing) degrees and mult its number of distinct reorderings
    within the runs.  Every summand is symmetric in slots of equal degree.
    This is the one place that decides which cells a route sums."""
    shells = [s for s in range(order + 1) if sizes[s]]
    # a harmonic polynomial of positive degree vanishes at 0: its slots start at shell 1
    runs = [([s for s in shells if s or not m], len(list(run)))
            for m, run in groupby(degrees)]
    for parts in product(*(combinations_with_replacement(s, r) for s, r in runs)):
        comp = sum(parts, ())
        if sum(comp) <= order:
            # the distinct orderings of each run's multiset of shells
            mult = prod(factorial(len(p)) // prod(map(factorial, Counter(p).values()))
                        for p in parts)
            yield sum(comp), comp, mult


def theta_series(lattice: IntegralLattice, order: int, *,
                 shells: ShellTable | None = None) -> QSeries:
    """Vector counts by norm: coefficient of q^k is the size of shell k."""
    sizes = _table(lattice, order, shells).sizes()
    return QSeries(order, [sizes[k] for k in range(order + 1)])


# -- spherical theta series ----------------------------------------------

def default_embedding(lattice: IntegralLattice) -> list[list[Fraction]] | None:
    """Rational coordinate rows for lattices where one is immediate:
    gram2 = 2*I (identity) or diagonal with halves that are perfect squares."""
    a = lattice.gram2
    n = lattice.rank
    if any(a[i][j] != 0 for i in range(n) for j in range(n) if i != j):
        return None
    rows = []
    for i in range(n):
        half = a[i][i] // 2
        r = isqrt(half)
        if r * r != half:
            return None
        row = [Fraction(0)] * n
        row[i] = Fraction(r)
        rows.append(row)
    return rows


def _check_embedding(lattice: IntegralLattice, emb: Sequence[Sequence[Fraction]]):
    n = lattice.rank
    if len(emb) != n or any(len(r) != n for r in emb):
        raise RankMismatchError("embedding must be a square matrix of the lattice rank")
    for i in range(n):
        for j in range(i, n):
            dot = sum(Fraction(emb[i][k]) * Fraction(emb[j][k]) for k in range(n))
            if dot * 2 != lattice.gram2[i][j]:
                raise ValueError("embedding rows do not reproduce the Gram data")


def spherical_theta(lattice: IntegralLattice, h: Poly, order: int, *,
                    embedding: Sequence[Sequence[Fraction]] | None = None,
                    shells: ShellTable | None = None) -> QSeries:
    """Theta series weighted by a polynomial evaluated at vector coordinates.

    Needs rational coordinates: either an explicit embedding (rows = images
    of the basis vectors) or a lattice whose Gram data is diagonal with
    square halves.  The embedding is scaled to integers by the lcm D of its
    denominators, so that each shell's coordinates P_v = D x_v are integer
    rows; each monomial x^alpha of h is then summed over a shell as the
    integer power sum of P_v^alpha, divided by D^|alpha| once.
    The series is modular of weight deg h + n/2 when h is harmonic; for
    other h it need not be modular at all, so no weight is attached.
    """
    if h.rank != lattice.rank:
        raise RankMismatchError("polynomial rank does not match the lattice")
    emb = embedding if embedding is not None else default_embedding(lattice)
    if emb is None:
        raise NoRationalEmbeddingError(
            "no rational coordinates available; pass an explicit embedding")
    _check_embedding(lattice, emb)
    table = _table(lattice, order, shells)
    den = lcm(*(Fraction(x).denominator for row in emb for x in row))
    scaled = [[int(Fraction(x) * den) for x in row] for row in emb]
    exps = list(h.terms)
    weights = [h.terms[e] / Fraction(den) ** sum(e) for e in exps]
    sums = (table.power_sums(k, scaled, exps) for k in range(order + 1))
    return QSeries(order, [sum(map(mul, weights, s), Fraction(0)) for s in sums])


# -- pair invariant --------------------------------------------------------

def pair_term(n: int, m: int, a: int, b: int, t: int) -> Fraction:
    """Contribution of one vector pair with norms a, b and doubled pairing t:
    the degree-2m pair polynomial evaluated cosine-free,
    sum_k c_k (t/2)^{2m-2k} (ab)^k with c = pair_poly(n, m)."""
    return sum(c * Fraction(t, 2) ** (2 * m - 2 * k) * (a * b) ** k
               for k, c in enumerate(pair_poly(n, m)))


def pair_scale(n: int, m: int) -> int:
    """Integer clearing the denominators of every pair term:
    (2m)! 2^{2m} prod_{l<m} (n + 4m - 4 - 2l)."""
    return factorial(2 * m) * 2 ** (2 * m) * prod(n + 4 * m - 4 - 2 * l
                                                  for l in range(m))


@lru_cache(maxsize=None)
def pair_scaled_coeffs(n: int, m: int) -> tuple[int, ...]:
    """The integer coefficients s_j of pair_scale(n, m) * pair_term as a
    polynomial in t and ab, the sum of s_j t^{2m-2j} (ab)^j, termwise
    s_j = (-1)^j (2m)!/((2m-2j)! j!) 2^j prod_{l=j..m-1}(n+4m-4-2l)."""
    return tuple((-1) ** j * (factorial(2 * m) // (factorial(2 * m - 2 * j) * factorial(j)))
                 * 2 ** j * prod(n + 4 * m - 4 - 2 * l for l in range(j, m))
                 for j in range(m + 1))


def theta_pair(lattice: IntegralLattice, m: int, order: int, *,
               shells: ShellTable | None = None) -> QSeries:
    """Degree-(m,m) pair invariant, normalized as a plain sum of squared
    spherical theta series over an orthonormal harmonic basis.

    Coefficient of q^k: the sum of pair_term(n, m, k1, k2, t) over the pair
    histograms of the shell pairs (k1, k2) with k1 + k2 = k.  With the
    integers s_j = pair_scaled_coeffs(n, m), a cell's polynomial
    sum_j s_j (k1 k2)^j t^{2m-2j} is evaluated by Horner in t^2 at each of
    its at most 2 isqrt(4 k1 k2) + 1 buckets, in Python ints (too few for
    numpy's per-call cost to pay), and each coefficient is one Fraction
    over pair_scale(n, m).
    """
    n = lattice.rank
    table = _table(lattice, order, shells)
    sizes = table.sizes()
    scaled = pair_scaled_coeffs(n, m)
    totals = [0] * (order + 1)
    for k, (k1, k2), mult in _cells(sizes, order, (m, m)):
        poly = [s * (k1 * k2) ** j for j, s in enumerate(scaled)]
        keys, counts = table.pair_histogram(k1, k2)
        for t, cnt in zip(keys.ravel().tolist(), counts.tolist()):
            t2, value = t * t, 0
            for c in poly:
                value = value * t2 + c
            totals[k] += mult * cnt * value
    scale = pair_scale(n, m)
    return QSeries(order, [Fraction(t, scale) for t in totals])


# -- triple invariant -------------------------------------------------------

def triple_form(lattice: IntegralLattice, u: Sequence[int], v: Sequence[int],
                w: Sequence[int]) -> Fraction:
    """Cubic form in three vectors whose triple sums give the (1,1,1)
    invariant; denominator always divides 8.

    2 |u|^2 |v|^2 |w|^2 - n (|u|^2 <v,w>^2 + |v|^2 <u,w>^2 + |w|^2 <u,v>^2)
    + n^2 <v,w> <u,w> <u,v>.
    """
    n = lattice.rank
    a = lattice.norm(u)
    b = lattice.norm(v)
    c = lattice.norm(w)
    svw = Fraction(lattice.inner2(v, w), 2)
    suw = Fraction(lattice.inner2(u, w), 2)
    suv = Fraction(lattice.inner2(u, v), 2)
    return (2 * a * b * c
            - n * (a * svw**2 + b * suw**2 + c * suv**2)
            + n * n * svw * suw * suv)


def theta_triple(lattice: IntegralLattice, order: int, *,
                 shells: ShellTable | None = None) -> QSeries:
    """Degree-(1,1,1) invariant: n times the triple sums of triple_form,
    contracted through moment matrices (never a pair or triple loop).

    With A = gram2, M_k the moment matrix of shell k and P_k = A M_k, the
    doubled pairings t satisfy sum t_vw^2 = tr(P_b P_c) over shells b x c
    and sum t_uv t_uw t_vw = tr(P_a P_b P_c) over shells a x b x c, so each
    shell composition is exact n x n integer algebra.  Each cell is summed
    as 8 times its triple_form sum, an integer, so each total is 8/n times
    its coefficient: one Fraction, n times the total over 8.
    """
    n = lattice.rank
    table = _table(lattice, order, shells)
    sizes = table.sizes()
    gram2 = np.array(lattice.gram2, dtype=object)
    p = {k: gram2 @ np.array(table.moment_matrix(k), dtype=object)
         for k in range(1, order - 1) if sizes[k]}

    def cell(a: int, b: int, c: int) -> int:
        pa, pb, pc = p[a], p[b], p[c]
        n1, n2, n3 = sizes[a], sizes[b], sizes[c]
        return (16 * a * b * c * n1 * n2 * n3
                - 2 * n * (a * n1 * np.trace(pb @ pc) + b * n2 * np.trace(pa @ pc)
                           + c * n3 * np.trace(pa @ pb))
                + n * n * np.trace(pa @ pb @ pc))

    totals = [0] * (order + 1)
    for k, comp, mult in _cells(sizes, order, (1, 1, 1)):
        totals[k] += mult * cell(*comp)
    return QSeries(order, [Fraction(n * t, 8) for t in totals])


# -- general invariant ------------------------------------------------------

_NORMALIZATIONS = ("general", "pair", "triple")


def _route(degrees: tuple[int, ...]) -> str:
    """The route of a degree list, named by its native normalization."""
    if len(degrees) == 2 and degrees[0] == degrees[1]:
        return "pair"
    return "triple" if degrees == (1, 1, 1) else "general"


def _scale(n: int, degrees: Sequence[int], normalization: str) -> int:
    """The factor from the general normalization to the named one, in rank n."""
    if normalization == "pair":
        return prod(n + 2 * j for j in range(2 * degrees[0]))
    return n**4 * (n + 2) * (n + 4) if normalization == "triple" else 1


@dataclass(frozen=True)
class InvariantRequest:
    """Degrees, truncation order and normalization of a requested invariant.

    The normalization only rescales: "pair" and "triple", the conventions of
    the explicit identities, need the degrees of their route (_route), to
    which "auto" resolves.  max_tuples bounds the general route only.
    """

    degrees: tuple[int, ...]
    order: int
    normalization: str = "general"
    max_tuples: int = 2_000_000

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if self.normalization == "auto":
            object.__setattr__(self, "normalization", _route(self.degrees))
        if len(self.degrees) < 1:
            raise ValueError("at least one degree is required")
        if any(m < 0 for m in self.degrees):
            raise ValueError("degrees must be non-negative")
        if list(self.degrees) != sorted(self.degrees):
            raise ValueError("degrees must be non-decreasing")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.max_tuples < 0:
            raise ValueError("max_tuples must be >= 0")
        if self.normalization not in _NORMALIZATIONS:
            raise ValueError(
                f"normalization must be 'auto' or one of {_NORMALIZATIONS}")
        if self.normalization not in ("general", _route(self.degrees)):
            shape = "(m, m)" if self.normalization == "pair" else "(1, 1, 1)"
            raise ValueError(f"{self.normalization} normalization needs degrees {shape}")


@lru_cache(maxsize=None)
def _moment_patterns(n: int, exps: tuple[int, ...]):
    """Sphere average of prod_l (x . y_l)^{e_l} as a polynomial in the pairwise
    products s_ab = <y_a, y_b>.

    Returns tuples (diag, off, coeff): the monomial prod_a s_aa^{diag_a} *
    prod_{a<b} s_ab^{off_{ab}} with its rational coefficient.  Derived from
    the perfect-matching expansion of spherical monomial averages: each
    matching matrix c contributes prod e_a! / (prod_{a<b} c_ab! prod_a
    2^{c_aa} c_aa!) over prod_{j < p} (n + 2j).  Callers pass even exponents
    2m - 2j; an odd total has no matching, so it gives no patterns.
    """
    k = len(exps)
    p = sum(exps) // 2
    den = prod(n + 2 * j for j in range(p))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    out = []

    def descend(idx: int, rem: list[int], chosen: list[int]):
        if idx == len(pairs):
            if any(r % 2 for r in rem):
                return
            diag = tuple(r // 2 for r in rem)
            weight = prod(factorial(e) for e in exps)
            for c in chosen:
                weight //= factorial(c)
            for c in diag:
                weight //= 2**c * factorial(c)
            out.append((diag, tuple(chosen), Fraction(weight, den)))
            return
        a, b = pairs[idx]
        for c in range(min(rem[a], rem[b]) + 1):
            rem[a] -= c
            rem[b] -= c
            chosen.append(c)
            descend(idx + 1, rem, chosen)
            chosen.pop()
            rem[a] += c
            rem[b] += c

    descend(0, list(exps), [])
    return tuple(out)


@lru_cache(maxsize=None)
def _composition_table(n: int, degrees: tuple[int, ...]
                       ) -> tuple[int, Mapping[tuple[int, ...], tuple]]:
    """The collapsed kernel sum per tuple, as a polynomial in the doubled
    pairings t_ab = 2 <v_a, v_b> and the norms of the tuple's vectors, over
    one common denominator: (den, {pairing exponents: ((norm exponents,
    numerator), ...)}).

    Slot l carries phi_l(x . v) = sum_j (-1)^j r_{j,2m_l} norm^j / (2m_l-2j)!
    times (x . v)^{2m_l - 2j}; the product is averaged with _moment_patterns,
    whose diagonal s_aa are the norms.  Off-diagonal s_ab = t_ab / 2, so each
    monomial coefficient absorbs a power of two.  The norms stay symbolic,
    so the Fraction work is done once per degree list, not per composition.
    No slot coefficient is zero; monomials whose terms cancel are dropped.
    """
    slots = [[Fraction((-1) ** j) * projector_coeffs(n, 2 * m)[j]
              / factorial(2 * m - 2 * j) for j in range(m + 1)] for m in degrees]
    terms: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
    for js in product(*(range(m + 1) for m in degrees)):
        coef = prod((slot[j] for slot, j in zip(slots, js)), start=Fraction(1))
        exps = tuple(2 * m - 2 * j for m, j in zip(degrees, js))
        for diag, off, w in _moment_patterns(n, exps):
            key = (off, tuple(j + d for j, d in zip(js, diag)))
            terms[key] = terms.get(key, 0) + coef * w / 2 ** sum(off)
    den = lcm(*(c.denominator for c in terms.values()))
    table: dict[tuple[int, ...], list] = {}
    for (off, norm_exps), c in terms.items():
        if c:
            table.setdefault(off, []).append((norm_exps, int(c * den)))
    return den, MappingProxyType({off: tuple(t) for off, t in table.items()})


@lru_cache(maxsize=None)
def _composition_poly(n: int, degrees: tuple[int, ...], norms: tuple[int, ...]
                      ) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...], int]:
    """Per-tuple value of the collapsed kernel sum for vectors with the given
    norms, as integer numerators over one denominator: (constant numerator,
    ((pairing exponents, numerator) of each non-constant monomial), den).
    Immutable, since every caller shares the memoised value."""
    den, table = _composition_table(n, degrees)
    nums = {off: sum(c * prod(a**e for a, e in zip(norms, norm_exps))
                     for norm_exps, c in terms)
            for off, terms in table.items()}
    const = sum(c for off, c in nums.items() if not any(off))
    return const, tuple((off, c) for off, c in nums.items() if c and any(off)), den


def theta_general(lattice: IntegralLattice, request: InvariantRequest, *,
                  shells: ShellTable | None = None) -> QSeries:
    """General invariant for any non-decreasing degree list: the reference
    route, and compute's for all lists but (0,), (m, m) and (1, 1, 1).

    Each composition is reduced once per reordering of its equal-degree
    slots (_cells); max_tuples bounds the ordered tuples, sum mult prod
    |S_c|, of the cells whose polynomial has a pairing monomial, the only
    cells that build a histogram.
    The raw normalization is the plain orthonormal-basis sum; "pair" and
    "triple" multiply it by _scale, to the conventions used by the explicit
    identities.  Cells are summed as integer numerators, over the one
    denominator that _composition_poly gives every composition of the
    degree list, and each coefficient is one Fraction.
    """
    degrees = request.degrees
    n = lattice.rank
    order = request.order
    table = _table(lattice, order, shells)
    sizes = table.sizes()

    cells = [(kap, comp, mult, _composition_poly(n, degrees, comp))
             for kap, comp, mult in _cells(sizes, order, degrees)]
    budget = sum(mult * prod(sizes[c] for c in comp)
                 for _, comp, mult, (_, cross, _) in cells if cross)
    if budget > request.max_tuples:
        raise ResourceLimitError(
            f"invariant needs {budget} lattice tuples, over the budget of "
            f"{request.max_tuples}")

    den, totals = 1, [0] * (order + 1)  # den stays 1 only when no cell is summed
    for kap, comp, mult, (const, cross, den) in cells:
        total = const * prod(sizes[c] for c in comp)
        if cross:
            # bucket the tuples by their vector of doubled pairings, and sum
            # each monomial over the buckets
            keys, counts = table.tuple_histogram(comp)
            sums = monomial_sums(keys, counts, [e for e, _ in cross])
            total += sum(c * s for (_, c), s in zip(cross, sums))
        totals[kap] += mult * total

    scale = _scale(n, degrees, request.normalization)
    return QSeries(order, [Fraction(scale * t, den) for t in totals])


def compute(lattice: IntegralLattice, request: InvariantRequest, *,
            shells: ShellTable | None = None) -> QSeries:
    """The invariant a request names, through the route its degrees choose
    (_route): vector counts for (0,), pair histograms for (m, m), the triple
    contraction for (1, 1, 1) and the general reduction otherwise.  The
    normalization only rescales (_scale); max_tuples bounds the last route.
    Without ``shells`` the route enumerates the table, with no shell cache;
    ``enumerate_shells`` with a ``cache_dir`` gives a cached one to pass.
    """
    degrees, order, route = request.degrees, request.order, _route(request.degrees)
    if degrees == (0,):
        return theta_series(lattice, order, shells=shells)
    if route == "general":
        return theta_general(lattice, request, shells=shells)
    series = (theta_pair(lattice, degrees[0], order, shells=shells) if route == "pair"
              else theta_triple(lattice, order, shells=shells))
    n = lattice.rank
    return series.scale(Fraction(_scale(n, degrees, request.normalization),
                                 _scale(n, degrees, route)))


# -- integrality ------------------------------------------------------------

def first_non_integral(series: QSeries, scale: int | Fraction
                       ) -> tuple[int, Fraction] | None:
    """(k, scale * c_k) for the first q^k whose scaled coefficient is not an
    integer, None when every one is."""
    for k in range(series.order + 1):
        val = scale * series.coeff(k)
        if val.denominator != 1:
            return k, val
    return None


def invariant_metadata(lattice: IntegralLattice, degrees: Sequence[int]) -> dict:
    """Weight, level and character of the degree-list invariant on this
    lattice, the one place that decides them: a series holds none.

    For an odd number k of degrees and even rank n the character is the
    Kronecker symbol of (-1)^(n/2) det(gram2) (Miyake, Modular Forms,
    Thm 4.9.3); odd rank reports det(gram2).  Even k reports no character,
    which is right for even n only: for odd n the weight is odd, so the
    character cannot be trivial (not yet derived).
    """
    n = lattice.rank
    k = len(degrees)
    meta = {
        "weight": Fraction(n * k, 2) + 2 * sum(degrees),
        "level": lattice.level(),
        "character": None,
    }
    if k % 2 == 1:
        disc = lattice.discriminant()
        if n % 2 == 0:
            disc *= (-1) ** (n // 2)
        meta["character"] = f"kronecker({disc}|.)"
    return meta
