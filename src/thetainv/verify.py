"""One-shot verification suite: replays the explicit identities and the
structural properties against independently computed series.

Each check is exact (no tolerances).  The order budget bounds the truncation
order of every series-based check; at budget 0 only the fixed-size checks
(coefficient tables, combinatorial identities, projector algebra, spherical
integrals) run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .catalog import catalog, lattice_by_name
from .harmonic import (
    Poly,
    binomial_delta,
    binomial_telescope,
    diff_pairing,
    harmonic_dimension,
    harmonic_project,
    laplacian,
    monomials,
    pair_poly,
    projector_coeffs,
    radial_eigenvalue,
    radial_norm_scale,
    radius_squared,
    spherical_integral,
)
from .lattice import (
    change_basis,
    enumerate_shells,
    random_unimodular,
    validate_lattice,
)
from .qseries import QSeries, delta_series, eisenstein
from .theta import (
    InvariantRequest,
    compute,
    first_non_integral,
    pair_scale,
    pair_scaled_coeffs,
    theta_general,
    theta_pair,
    theta_series,
    theta_triple,
)

DEFAULT_BUDGET = 6
DEFAULT_SEED = 74025


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "skipped": self.skipped, "detail": self.detail}


def _skip(name: str, why: str) -> CheckResult:
    return CheckResult(name, True, why, skipped=True)


# Second q-coefficient of the degree-(m,m) invariant of E8, m = 1..9.
E8_PAIR_Q2 = {
    1: Fraction(0), 2: Fraction(0), 3: Fraction(0), 5: Fraction(0),
    4: Fraction(3, 896),
    6: Fraction(7, 316293120),
    7: Fraction(1, 30057431040),
    8: Fraction(1, 22235892940800),
    9: Fraction(1, 21727643959296000),
}

E8_PAIR_CONSTANTS = {
    4: Fraction(3, 896),
    6: Fraction(7, 658944),
    7: Fraction(9, 1064960),
    8: Fraction(1, 96509952),
    9: Fraction(11, 3429236736000),
}

# The nonzero E8 pair invariants: the (m,m) one is E8_PAIR_CONSTANTS[m] times
# Delta^2 and the Eisenstein series G_w of these weights, as labelled.
E8_PAIR_FORMS = {4: ("Delta^2", ()), 6: ("G8 * Delta^2", (8,)),
                 7: ("G6^2 * Delta^2", (6, 6)), 8: ("G8^2 * Delta^2", (8, 8)),
                 9: ("G10^2 * Delta^2", (10, 10))}


def e8_pair_form(m: int, order: int) -> QSeries:
    """The closed form of the degree-(m,m) invariant of E8 through q^order."""
    forms = [eisenstein(w, order) for w in E8_PAIR_FORMS[m][1]]
    return E8_PAIR_CONSTANTS[m] * prod(forms, start=delta_series(order) ** 2)


# Rank-2 / rank-3 lattices with nonzero pair and triple invariants (the
# highly symmetric catalog lattices make several invariants vanish
# identically, which would weaken equivalence checks).
_SKEW2 = ((2, 1), (1, 4))
_SKEW3 = ((2, 1, 0), (1, 4, 1), (0, 1, 6))
_DIAG246 = ((2, 0, 0), (0, 4, 0), (0, 0, 6))


def check_catalog(budget: int) -> list[CheckResult]:
    results = []
    bad = []
    for name, entry in catalog().items():
        try:
            validate_lattice(entry.lattice.gram2, name=name)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            bad.append(f"{name}: {exc}")
    results.append(CheckResult(
        "catalog-validation", not bad,
        "all catalog Gram matrices validate" if not bad else "; ".join(bad)))

    mism = []
    checked = 0
    for name, entry in catalog().items():
        if entry.lattice.rank > 8 and budget < 2:
            continue
        order = entry.golden_order
        got = theta_series(entry.lattice, order)
        want = [Fraction(c) for c in entry.theta_golden]
        checked += 1
        if list(got.coeffs) != want:
            mism.append(f"{name}: {list(got.coeffs)} != {want}")
    results.append(CheckResult(
        "catalog-theta-golden", not mism,
        f"{checked} golden theta prefixes match" if not mism else "; ".join(mism)))
    return results


def check_pair_table(e8_shells) -> CheckResult:
    e8 = catalog()["e8"].lattice
    bad = []
    for m, want in sorted(E8_PAIR_Q2.items()):
        got = theta_pair(e8, m, 2, shells=e8_shells).coeff(2)
        if got != want:
            bad.append(f"m={m}: {got} != {want}")
    return CheckResult("e8-pair-q2-table", not bad,
                       "q^2 coefficients match for m=1..9" if not bad
                       else "; ".join(bad))


def check_pair_identities(budget: int, e8_shells) -> list[CheckResult]:
    if budget < 2:
        return [_skip("e8-pair-identities", "needs order budget >= 2")]
    e8 = catalog()["e8"].lattice
    results = []
    # (name, degrees m, highest order, what holds): each m of E8_PAIR_FORMS
    # equals e8_pair_form, and the others vanish
    for name, degrees, top, holds in (
            ("e8-pair-m4", (4,), 5,
             f"degree-(4,4) invariant equals {E8_PAIR_CONSTANTS[4]} * Delta^2"),
            ("e8-pair-m6", (6,), 4,
             f"degree-(6,6) invariant equals {E8_PAIR_CONSTANTS[6]} * G8 Delta^2"),
            ("e8-pair-m789", (7, 8, 9), 3,
             "degree-(7,7),(8,8),(9,9) invariants match the squared Eisenstein forms"),
            ("e8-pair-vanishing", (1, 2, 3, 5), 5,
             "degree-(m,m) invariants vanish for m in (1,2,3,5)")):
        k = min(top, budget)
        bad = [f"m={m}" for m in degrees if theta_pair(e8, m, k, shells=e8_shells)
               != (e8_pair_form(m, k) if m in E8_PAIR_FORMS else QSeries.zero(k))]
        results.append(CheckResult(name, not bad, f"{holds} through q^{k}" if not bad
                                   else "mismatch at " + ", ".join(bad)))
    return results


def check_pair_integrality(budget: int, seed: int, e8_shells) -> list[CheckResult]:
    """pair_scaled_coeffs, the integer list that theta_pair sums, against
    pair_scale times the pair_poly coefficients for every n <= 32, m <= 9,
    then the scaled pair and triple series.  ``seed`` is unused; it stays
    for the callers that pass run_verification's arguments to every check."""
    bad = []
    for n in range(1, 33):
        for m in range(1, 10):
            want = [pair_scale(n, m) * c / 4 ** (m - j)
                    for j, c in enumerate(pair_poly(n, m))]
            if want != list(pair_scaled_coeffs(n, m)):
                bad.append(f"n={n} m={m}")
    results = [CheckResult(
        "pair-term-integrality", not bad,
        "pair_scale * pair_term has integer coefficients for n <= 32, m <= 9" if not bad
        else "differs from pair_scale * pair_term at " + ", ".join(bad[:5]))]
    if budget < 1:
        results.append(_skip("series-integrality", "needs order budget >= 1"))
        return results
    order = min(6, budget)
    # (name, shell table, pair degrees m): one triple series per lattice
    cases = [(name, enumerate_shells(lattice_by_name(name), order), (1, 2, 3, 4))
             for name in ("z1", "z2", "z3", "z4", "a2", "d4")]
    cases.append(("e8", e8_shells, (1, 4)))
    failures = []
    for name, table, ms in cases:
        lat, top = table.lattice, min(order, table.bound)
        triple = first_non_integral(theta_triple(lat, top, shells=table),
                                    Fraction(8, lat.rank))
        for m in ms:
            pair = first_non_integral(theta_pair(lat, m, top, shells=table),
                                      pair_scale(lat.rank, m))
            if triple is not None or pair is not None:
                failures.append(f"{name} m={m}")
    results.append(CheckResult(
        "series-integrality", not failures,
        f"scaled pair and triple series integral through q^{order}"
        if not failures else "failed: " + ", ".join(failures)))
    return results


def check_triple_integrality(budget: int) -> CheckResult:
    if budget < 1:
        return _skip("triple-integrality", "needs order budget >= 1")
    order = min(4, budget)
    failures = []
    cases = [lattice_by_name(n) for n in ("z2", "z3", "a2", "d4")]
    cases.append(validate_lattice(_DIAG246, name="diag246"))
    for lat in cases:
        fail = first_non_integral(theta_triple(lat, order), Fraction(8, lat.rank))
        if fail is not None:
            failures.append(f"{lat.label()} q^{fail[0]}")
    return CheckResult(
        "triple-integrality", not failures,
        f"8/n-scaled triple series integral through q^{order}"
        if not failures else "failed: " + ", ".join(failures))


def check_oracle_equivalences(budget: int) -> list[CheckResult]:
    if budget < 1:
        return [_skip("oracle-equivalences", "needs order budget >= 1")]
    skew2 = validate_lattice(_SKEW2, name="skew2")
    skew3 = validate_lattice(_SKEW3, name="skew3")
    diag246 = validate_lattice(_DIAG246, name="diag246")
    results = []
    # (name, highest order, the route compute takes, its cases)
    for name, top, route, cases in (
            ("pair-route-equivalence", 4, "histogram",
             ((skew2, (1, 1)), (skew2, (2, 2)), (skew3, (1, 1)))),
            ("triple-route-equivalence", 3, "contracted",
             ((skew2, (1, 1, 1)), (skew3, (1, 1, 1)), (diag246, (1, 1, 1))))):
        order = min(top, budget)
        reqs = [(lat, InvariantRequest(degrees, order, "auto")) for lat, degrees in cases]
        bad = [f"{lat.label()} {req.degrees}" for lat, req in reqs
               if theta_general(lat, req) != compute(lat, req)]
        results.append(CheckResult(
            name, not bad, f"orthonormal-basis route equals the {route} route through "
            f"q^{order}" if not bad else "mismatch: " + ", ".join(bad)))
    return results


def check_combinatorial_lemmas() -> list[CheckResult]:
    results = []
    bad = []
    signs = set()
    for d in range(1, 9):
        for w in range(-12, 13):
            val = binomial_delta(d, w)
            if w == -1:
                signs.add((d, val))
                if abs(val) != 1:
                    bad.append(f"|q({d},-1)| = {abs(val)}")
            elif val != 0:
                bad.append(f"q({d},{w}) = {val}")
    sign_note = all(v == (-1) ** d for d, v in signs)
    results.append(CheckResult(
        "binomial-delta", not bad,
        "vanishes for w != -1; measured value at w = -1 is (-1)^d"
        if (not bad and sign_note) else
        ("; ".join(bad) if bad else "unexpected sign pattern at w = -1")))

    bad = []
    for r in range(0, 9):
        for w in range(-12, 13):
            val = binomial_telescope(r, w)
            want = w if r == 0 else 0
            if val != want:
                bad.append(f"xi({r},{w}) = {val} != {want}")
    results.append(CheckResult(
        "binomial-telescope", not bad,
        "equals w at r = 0 and vanishes for r >= 1" if not bad
        else "; ".join(bad)))

    bad = []
    for n in range(1, 13):
        for d in range(1, 7):
            for m in range(2 * d, 2 * d + 7):
                rk = projector_coeffs(n, m)
                total = Fraction(0)
                for kk in range(d + 1):
                    f = Fraction(1)
                    for l in range(kk, d):
                        f /= (2 * l - 2 * d) * (n - 2 + 2 * m - 2 * d - 2 * l)
                    total += f * rk[kk]
                if total != 0:
                    bad.append(f"n={n} d={d} m={m}")
    results.append(CheckResult(
        "projector-coefficient-identity", not bad,
        "weighted projector-coefficient sums vanish for d <= 6, n <= 12"
        if not bad else "failed: " + ", ".join(bad[:5])))

    bad = []
    for n in range(1, 11):
        for m in range(0, 9):
            # sum_k p_{m-k} / a_{k,m} must equal c^{2m} / (2m)!
            acc: dict[int, Fraction] = {}
            for kk in range(m + 1):
                sub = pair_poly(n, m - kk)
                scale = Fraction(1, radial_norm_scale(n, kk, m))
                for idx, c in enumerate(sub):
                    e = 2 * (m - kk) - 2 * idx
                    acc[e] = acc.get(e, Fraction(0)) + c * scale
            want = {2 * m: Fraction(1, prod(range(1, 2 * m + 1)))}
            acc = {e: c for e, c in acc.items() if c != 0}
            if acc != {e: c for e, c in want.items() if c != 0}:
                bad.append(f"n={n} m={m}")
    results.append(CheckResult(
        "pair-poly-implicit-identity", not bad,
        "implicit pair-polynomial system solves exactly for m <= 8, n <= 10"
        if not bad else "failed: " + ", ".join(bad[:5])))
    return results


def _random_homogeneous(rng, n: int, m: int) -> Poly:
    terms = {}
    for exps in monomials(n, m):
        c = rng.randint(-3, 3)
        if c:
            terms[exps] = Fraction(c)
    if not terms:
        first = next(iter(monomials(n, m)))
        terms[first] = Fraction(1)
    return Poly(n, terms)


def _harm_dimension_by_rank(n: int, m: int) -> int:
    """dim ker(Laplacian) on degree-m polynomials, by exact row reduction."""
    basis = list(monomials(n, m))
    low = list(monomials(n, m - 2)) if m >= 2 else []
    low_index = {e: i for i, e in enumerate(low)}
    rows = []
    for exps in basis:
        img = laplacian(Poly.monomial(n, exps))
        row = [Fraction(0)] * len(low)
        for e, c in img.terms.items():
            row[low_index[e]] = c
        rows.append(row)
    # rank of the matrix rows
    cols = len(low)
    r = 0
    rows = [row[:] for row in rows]
    for col in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return len(basis) - r


def check_projectors(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []

    bad = []
    for n in range(2, 9):
        if projector_coeffs(n, 2) != (Fraction(1), Fraction(1, 2 * n)):
            bad.append(f"n={n} m=2")
        want4 = (Fraction(1), Fraction(1, 2 * (n + 4)),
                 Fraction(1, 8 * (n + 2) * (n + 4)))
        if projector_coeffs(n, 4) != want4:
            bad.append(f"n={n} m=4")
        want6 = (Fraction(1), Fraction(1, 2 * (n + 8)),
                 Fraction(1, 8 * (n + 6) * (n + 8)),
                 Fraction(1, 48 * (n + 4) * (n + 6) * (n + 8)))
        if projector_coeffs(n, 6) != want6:
            bad.append(f"n={n} m=6")
    results.append(CheckResult(
        "projector-closed-forms", not bad,
        "degree-2/4/6 projector coefficients match for n = 2..8"
        if not bad else "; ".join(bad)))

    bad = []
    for n in range(1, 5):
        for m in range(2, 7):
            f = _random_homogeneous(rng, n, m)
            pf = harmonic_project(f)
            if not laplacian(pf).is_zero():
                bad.append(f"annihilation n={n} m={m}")
            if harmonic_project(pf) != pf:
                bad.append(f"idempotence n={n} m={m}")
    results.append(CheckResult(
        "projector-algebra", not bad,
        "projection is idempotent with harmonic image (n <= 4, m <= 6)"
        if not bad else "; ".join(bad[:5])))

    bad = []
    r2 = {n: radius_squared(n) for n in range(2, 5)}
    for n in range(2, 5):
        h = Poly(n, {tuple(1 if i in (0, 1) else 0 for i in range(n)): 1})  # x0*x1
        for d in range(1, 4):
            f = h
            for _ in range(d):
                f = r2[n] * f
            if not harmonic_project(f).is_zero():
                bad.append(f"radial kill n={n} d={d}")
            m = 2  # degree of h
            for kk in range(0, 4):
                g = f
                for _ in range(kk):
                    g = laplacian(g)
                for _ in range(kk):
                    g = r2[n] * g
                want = f.scale(radial_eigenvalue(n, kk, d, m))
                if g != want:
                    bad.append(f"eigenvalue n={n} k={kk} d={d}")
    results.append(CheckResult(
        "projector-radial-structure", not bad,
        "radial shifts are annihilated and carry the stated eigenvalues"
        if not bad else "; ".join(bad[:5])))

    bad = []
    for n in range(1, 5):
        for m in range(0, 7):
            if _harm_dimension_by_rank(n, m) != harmonic_dimension(n, m):
                bad.append(f"n={n} m={m}")
    results.append(CheckResult(
        "harmonic-dimensions", not bad,
        "kernel dimensions match the binomial formula (n <= 4, m <= 6)"
        if not bad else "; ".join(bad)))

    bad = []
    for n in range(2, 5):
        for _ in range(6):
            m = rng.randint(2, 5)
            p = _random_homogeneous(rng, n, m - 2) if m >= 2 else Poly.constant(n, 1)
            f = _random_homogeneous(rng, n, m)
            lhs = diff_pairing(radius_squared(n) * p, f)
            rhs = diff_pairing(p, -laplacian(f))
            if lhs != rhs:
                bad.append(f"n={n} m={m}")
    results.append(CheckResult(
        "pairing-adjointness", not bad,
        "multiplication by r^2 is adjoint to the negated Laplacian"
        if not bad else "; ".join(bad[:5])))
    return results


def check_spherical_integrals(seed: int) -> CheckResult:
    rng = random.Random(seed)
    bad = []
    for n in range(2, 11):
        e6 = tuple(6 if i == 0 else 0 for i in range(n))
        if spherical_integral(n, e6) != Fraction(15, n * (n + 2) * (n + 4)):
            bad.append(f"x^6 n={n}")
        e42 = tuple(4 if i == 0 else (2 if i == 1 else 0) for i in range(n))
        if spherical_integral(n, e42) != Fraction(3, n * (n + 2) * (n + 4)):
            bad.append(f"x^4 y^2 n={n}")
        if n >= 3:
            e222 = tuple(2 if i < 3 else 0 for i in range(n))
            if spherical_integral(n, e222) != Fraction(1, n * (n + 2) * (n + 4)):
                bad.append(f"x^2 y^2 z^2 n={n}")
        if spherical_integral(n, (0,) * n) != 1:
            bad.append(f"unit n={n}")
        total = sum(spherical_integral(n, tuple(2 if i == j else 0 for i in range(n)))
                    for j in range(n))
        if total != 1:
            bad.append(f"trace n={n}")
    for _ in range(1000):
        n = rng.randint(1, 6)
        exps = [rng.randint(0, 5) for _ in range(n)]
        if all(e % 2 == 0 for e in exps):
            exps[rng.randrange(n)] += 1
        if spherical_integral(n, tuple(exps)) != 0:
            bad.append(f"odd {exps}")
    return CheckResult(
        "spherical-integrals", not bad,
        "closed-form sphere averages match for n = 2..10; odd exponents vanish"
        if not bad else "; ".join(bad[:5]))


def check_basis_invariance(budget: int, seed: int) -> CheckResult:
    if budget < 1:
        return _skip("basis-invariance", "needs order budget >= 1")
    rng = random.Random(seed)
    order = min(4, budget)
    bad = []
    # (1,1) "general" reads the general reduction itself: through compute it
    # would be the pair route rescaled, and the check would lose that route
    requests = [(route, InvariantRequest(d, order, norm)) for route, d, norm in (
        (compute, (0,), "general"), (compute, (1, 1), "pair"),
        (compute, (1, 1, 1), "triple"), (theta_general, (1, 1), "general"),
        (compute, (2, 2), "pair"))]
    for name in ("z2", "a2", "z3", "d4"):
        lat = lattice_by_name(name)
        n = lat.rank
        reqs = requests if n == 2 else requests[:-1]  # (2, 2) on rank 2 only
        table = enumerate_shells(lat, order)
        base = [route(lat, r, shells=table) for route, r in reqs]
        for i in range(100):
            moved = change_basis(lat, random_unimodular(n, rng))
            mt = enumerate_shells(moved, order)
            for (route, r), want in zip(reqs, base):
                if route(moved, r, shells=mt) != want:
                    tag = ",".join(map(str, r.degrees))
                    bad.append(f"{name} round={i} ({tag}) {r.normalization}")
        if bad:
            break
    return CheckResult(
        "basis-invariance", not bad,
        "100 random unimodular basis changes per lattice leave every "
        f"invariant unchanged through q^{order}" if not bad
        else "; ".join(bad[:5]))


def run_verification(budget: int = DEFAULT_BUDGET,
                     seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if budget < 0:
        raise ValueError("order budget must be >= 0")
    results: list[CheckResult] = []
    e8 = catalog()["e8"].lattice
    e8_bound = 2 if budget < 2 else min(6, max(budget, 2))
    e8_shells = enumerate_shells(e8, e8_bound)

    results.extend(check_catalog(budget))
    results.append(check_pair_table(e8_shells))
    results.extend(check_pair_identities(budget, e8_shells))
    results.extend(check_pair_integrality(budget, seed, e8_shells))
    results.append(check_triple_integrality(budget))
    results.extend(check_oracle_equivalences(budget))
    results.extend(check_combinatorial_lemmas())
    results.extend(check_projectors(seed))
    results.append(check_spherical_integrals(seed))
    results.append(check_basis_invariance(budget, seed))
    return results


def report_dict(results: list[CheckResult], budget: int) -> dict:
    return {
        "order_budget": budget,
        "passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
