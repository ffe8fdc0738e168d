"""Multivariate polynomials over Q with the differential pairing and the
harmonic projection: ``projector_coeffs`` is the tuple of closed-form
coefficients c_k of the projector sum_k c_k r^{2k} Laplacian^k, which the
theta reductions read directly, and ``harmonic_project`` applies it to a
homogeneous polynomial.

Conventions in force throughout the package:

* the Laplacian carries a leading minus sign, so that the projector
  coefficients below have all-positive denominators;
* ``binomial_delta`` uses the binomial convention binom(top, k) = 0 whenever
  top < 0 (this is what its generating-function derivation forces), while
  ``binomial_telescope`` uses the polynomial binomial binom(z, k) =
  z(z-1)...(z-k+1)/k! valid for any integer z.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from typing import Iterator, Mapping, Sequence

from .errors import NotHomogeneousError, RankMismatchError

MultiIndex = tuple[int, ...]
Rational = int | Fraction


def multi_factorial(exps: MultiIndex) -> int:
    """Product of the factorials of the entries."""
    return prod(factorial(e) for e in exps)


def monomials(rank: int, degree: int) -> Iterator[MultiIndex]:
    """All multi-indices of the given total degree, in a fixed order."""
    for combo in combinations_with_replacement(range(rank), degree):
        exps = [0] * rank
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


class Poly:
    """Sparse polynomial in ``rank`` variables with Fraction coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[MultiIndex, Rational] | None = None):
        self.rank = rank
        clean: dict[MultiIndex, Fraction] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != rank:
                raise RankMismatchError(f"multi-index {exps} has length != {rank}")
            c = Fraction(c)
            if c != 0:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, rank: int) -> Poly:
        return cls(rank)

    @classmethod
    def constant(cls, rank: int, c: Rational) -> Poly:
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def monomial(cls, rank: int, exps: Sequence[int], c: Rational = 1) -> Poly:
        return cls(rank, {tuple(exps): c})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def _check_rank(self, other: Poly):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other: Poly) -> Poly:
        self._check_rank(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.rank, out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_rank(other)
            out: dict[MultiIndex, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return Poly(self.rank, out)
        return self.scale(other)

    def __rmul__(self, other) -> Poly:
        return self.scale(other)

    def scale(self, c: Rational) -> Poly:
        c = Fraction(c)
        return Poly(self.rank, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def evaluate(self, point: Sequence[Rational]) -> Fraction:
        if len(point) != self.rank:
            raise RankMismatchError("evaluation point has wrong length")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(pt, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(exps) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


def radius_squared(rank: int) -> Poly:
    """The polynomial x_1^2 + ... + x_n^2."""
    return Poly(rank, {tuple(2 if j == i else 0 for j in range(rank)): 1
                       for i in range(rank)})


def diff_pairing(g: Poly, f: Poly) -> Fraction:
    """Apply g as a constant-coefficient differential operator to f at 0.

    Monomials satisfy <x^I, x^J> = I! [I == J], making the pairing symmetric,
    bilinear and positive definite.
    """
    if g.rank != f.rank:
        raise RankMismatchError(f"rank {g.rank} vs {f.rank}")
    total = Fraction(0)
    small, large = (g.terms, f.terms) if len(g.terms) <= len(f.terms) else (f.terms, g.terms)
    for exps, c in small.items():
        c2 = large.get(exps)
        if c2 is not None:
            total += c * c2 * multi_factorial(exps)
    return total


def laplacian(f: Poly) -> Poly:
    """Negated sum of second partials (the sign convention used throughout)."""
    out: dict[MultiIndex, Fraction] = {}
    for exps, c in f.terms.items():
        for i, e in enumerate(exps):
            if e >= 2:
                newe = exps[:i] + (e - 2,) + exps[i + 1:]
                out[newe] = out.get(newe, Fraction(0)) - c * e * (e - 1)
    return Poly(f.rank, out)


def radial_norm_scale(n: int, k: int, m: int) -> int:
    """Scale relating the pairing of r^{2k} h_1, r^{2k} h_2 to that of the
    degree-(2m-2k) harmonics h_1, h_2: 2^k k! prod_{l=1..k} (n + 4m - 2k - 2l)."""
    return 2**k * factorial(k) * prod(n + 4 * m - 2 * k - 2 * l for l in range(1, k + 1))


def radial_eigenvalue(n: int, k: int, d: int, m: int) -> int:
    """Eigenvalue of r^{2k} Laplacian^k on r^{2d} h for h harmonic of degree m:
    prod_{l=0..k-1} (2l - 2d)(n - 2 + 2d - 2l + 2m).  Zero exactly when k > d."""
    return prod((2 * l - 2 * d) * (n - 2 + 2 * d - 2 * l + 2 * m) for l in range(k))


def projector_coeffs(n: int, m: int) -> tuple[Fraction, ...]:
    """Coefficients c_k of the projection sum_k c_k r^{2k} Laplacian^k onto
    the degree-m harmonics in n variables, in closed form
    1 / (2^k k! prod_{l<k} (n + 2m - 4 - 2l)).  As l <= m//2 - 1, each factor
    is >= n + m - 2 >= n, so a rank n >= 1 keeps every denominator nonzero."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    coeffs = []
    for k in range(m // 2 + 1):
        den = 2**k * factorial(k)
        for l in range(k):
            den *= n + 2 * m - 4 - 2 * l
        coeffs.append(Fraction(1, den))
    return tuple(coeffs)


def harmonic_project(f: Poly) -> Poly:
    """Orthogonal projection of a homogeneous polynomial onto the harmonic
    subspace of its degree."""
    if f.is_zero():
        return f
    if not f.is_homogeneous():
        raise NotHomogeneousError("harmonic projection needs a homogeneous input")
    r2 = radius_squared(f.rank)
    out = Poly.zero(f.rank)
    g = f
    r2k = Poly.constant(f.rank, 1)
    for k, c in enumerate(projector_coeffs(f.rank, f.degree())):
        if k > 0:
            g = laplacian(g)
            r2k = r2k * r2
        if not g.is_zero():
            out = out + (r2k * g).scale(c)
    return out


def harmonic_dimension(n: int, m: int) -> int:
    """Dimension of the space of degree-m harmonic polynomials in n variables."""
    if m < 0:
        return 0
    first = comb(n + m - 1, n - 1)
    second = comb(n + m - 3, n - 1) if n + m - 3 >= n - 1 else 0
    return first - second


def double_factorial_odd(a: int) -> int:
    """(2a - 1)!! with the empty product equal to 1."""
    return prod(range(1, 2 * a, 2))


def spherical_integral(n: int, exps: Sequence[int]) -> Fraction:
    """Average of the monomial x^exps over the unit sphere in n variables,
    with respect to the normalized rotation-invariant measure.

    Zero when any exponent is odd; otherwise, with exps = 2a,
    prod_i (2 a_i - 1)!!  /  prod_{j < |a|} (n + 2j).
    """
    if len(exps) != n:
        raise RankMismatchError(f"expected {n} exponents, got {len(exps)}")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be non-negative")
    if any(e % 2 for e in exps):
        return Fraction(0)
    half = [e // 2 for e in exps]
    num = prod(double_factorial_odd(a) for a in half)
    den = prod(n + 2 * j for j in range(sum(half)))
    return Fraction(num, den)


def pair_poly(n: int, m: int) -> tuple[Fraction, ...]:
    """Coefficients of the even degree-2m polynomial in the pair cosine that
    collapses sums of products of harmonic basis values over vector pairs.

    Entry k is the coefficient of c^(2m - 2k):
    (-1)^k / ((2m-2k)! k! 2^k prod_{l<k} (n + 4m - 4 - 2l)).  As l <= m - 1,
    each factor is >= n + 2m - 2 >= n: a rank n >= 1 keeps it nonzero.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    out = []
    for k in range(m + 1):
        den = factorial(2 * m - 2 * k) * factorial(k) * 2**k
        for l in range(k):
            den *= n + 4 * m - 4 - 2 * l
        out.append(Fraction((-1) ** k, den))
    return tuple(out)


def _binom_nonneg(top: int, k: int) -> int:
    """Binomial with binom(top, k) = 0 for top < 0 (and the usual 0 for k > top)."""
    if top < 0 or k < 0 or k > top:
        return 0
    return comb(top, k)


def _binom_poly(z: int, k: int) -> int:
    """Polynomial binomial z(z-1)...(z-k+1)/k!, defined for any integer z."""
    if k < 0:
        return 0
    num = prod(z - a for a in range(k))
    return num // factorial(k)


def binomial_delta(d: int, w: int) -> int:
    """Alternating binomial sum sum_k (-1)^k binom(d,k) binom(w+k, d-1).

    Vanishes for every w != -1; at w = -1 direct evaluation gives (-1)^d.
    Uses the zero-for-negative-top binomial convention.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return sum((-1) ** k * comb(d, k) * _binom_nonneg(w + k, d - 1)
               for k in range(d + 1))


def binomial_telescope(r: int, w: int) -> int:
    """Weighted alternating binomial sum
    sum_{p=0..r} (-1)^(r-p) (w + 2p - 2r) binom(w, r-p) binom(w+p-2r-1, p),
    with the polynomial binomial; equals w at r = 0 and 0 for every r >= 1.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    return sum(
        (-1) ** (r - p) * (w + 2 * p - 2 * r)
        * _binom_poly(w, r - p) * _binom_poly(w + p - 2 * r - 1, p)
        for p in range(r + 1)
    )
