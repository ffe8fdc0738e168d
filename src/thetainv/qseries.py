"""Truncated q-expansions with exact rational coefficients.

A QSeries is an explicit truncation order K and the coefficients of
q^0 .. q^K, nothing more: the weight, level and character of an invariant
belong to its lattice and degree list, and come from
``theta.invariant_metadata``.  Arithmetic never invents coefficients beyond
the truncation: combining series of different orders truncates to the
smaller one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt
from typing import Sequence

from .errors import UnsupportedWeightError

Rational = int | Fraction


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class QSeries:
    """Power series in q truncated at an explicit order, coefficients in Q."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Rational]):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs: tuple[Fraction, ...] = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def zero(cls, order: int) -> QSeries:
        return cls(order, [Fraction(0)] * (order + 1))

    @classmethod
    def one(cls, order: int) -> QSeries:
        return cls(order, [Fraction(1)] + [Fraction(0)] * order)

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient q^{k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> QSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries(order, self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: QSeries) -> QSeries:
        K = min(self.order, other.order)
        return QSeries(K, [self.coeffs[k] + other.coeffs[k] for k in range(K + 1)])

    def __mul__(self, other):
        if isinstance(other, QSeries):
            K = min(self.order, other.order)
            out = [Fraction(0)] * (K + 1)
            for i, a in enumerate(self.coeffs[: K + 1]):
                if a == 0:
                    continue
                for j in range(K + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return QSeries(K, out)
        return self.scale(other)

    def __rmul__(self, other) -> QSeries:
        return self.scale(other)

    def scale(self, c: Rational) -> QSeries:
        c = Fraction(c)
        return QSeries(self.order, [c * a for a in self.coeffs])

    def __pow__(self, e: int) -> QSeries:
        if e < 0:
            raise ValueError("negative powers not supported")
        out = QSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = format_rational(c)
            terms.append(cs if k == 0 else (f"({cs})*q^{k}" if "/" in cs or c < 0 else f"{cs}*q^{k}"))
            if len(terms) >= 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"QSeries[K={self.order}]({body})"

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [format_rational(c) for c in self.coeffs]}


def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d^k over divisors d of n."""
    if n < 1:
        raise ValueError("divisor sums need n >= 1")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


# Constant terms of the normalized weight-w Eisenstein series G_w; the q^n
# coefficient is sigma_{w-1}(n) for every supported weight.
_EISENSTEIN_CONSTANTS = {
    6: Fraction(-1, 504),
    8: Fraction(1, 480),
    10: Fraction(-1, 264),
}


def eisenstein(weight: int, order: int) -> QSeries:
    """Eisenstein series G_6, G_8 or G_10 truncated at the given order."""
    if weight not in _EISENSTEIN_CONSTANTS:
        raise UnsupportedWeightError(f"no Eisenstein series for weight {weight}")
    coeffs = [_EISENSTEIN_CONSTANTS[weight]]
    coeffs += [Fraction(sigma(weight - 1, n)) for n in range(1, order + 1)]
    return QSeries(order, coeffs)


def delta_series(order: int) -> QSeries:
    """The discriminant cusp form: q times the 24th power of the Euler product."""
    K = order
    f = [Fraction(1)] + [Fraction(0)] * K
    for n in range(1, K + 1):
        # multiply by (1 - q^n)^24, truncated
        out = [Fraction(0)] * (K + 1)
        for j in range(0, min(24, K // n) + 1):
            b = Fraction((-1) ** j * comb(24, j))
            shift = n * j
            for i in range(K + 1 - shift):
                if f[i]:
                    out[i + shift] += f[i] * b
        f = out
    coeffs = [Fraction(0)] + f[:K]
    return QSeries(K, coeffs)
