"""Univariate polynomials over a cyclotomic field.

Coefficients are `CyclotomicNumber`s of one common conductor, stored
lowest degree first with no trailing zeros; the zero polynomial has an
empty coefficient tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Sequence

from .scalars import as_scalar, cyclotomic_int_coeffs, euler_phi


class ExactPolynomial:
    __slots__ = ("coeffs", "conductor")

    def __init__(self, coeffs: Sequence, conductor: int):
        items = [as_scalar(c, conductor) for c in coeffs]
        while items and items[-1].is_zero():
            items.pop()
        self.coeffs = tuple(items)
        self.conductor = conductor

    # -- basic structure ---------------------------------------------------

    @classmethod
    def zero(cls, conductor: int) -> "ExactPolynomial":
        return cls([], conductor)

    @classmethod
    def x_power(cls, n: int, conductor: int) -> "ExactPolynomial":
        return cls([0] * n + [1], conductor)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "ExactPolynomial":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.coeffs[-1].inverse()
        return ExactPolynomial([c * inv for c in self.coeffs], self.conductor)

    # -- arithmetic ----------------------------------------------------------

    def _wrap(self, coeffs) -> "ExactPolynomial":
        return ExactPolynomial(coeffs, self.conductor)

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self._wrap(out)

    def __neg__(self) -> "ExactPolynomial":
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ExactPolynomial):
            if self.is_zero() or other.is_zero():
                return ExactPolynomial.zero(self.conductor)
            out = [as_scalar(0, self.conductor)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, x in enumerate(self.coeffs):
                if not x.is_zero():
                    for j, y in enumerate(other.coeffs):
                        if not y.is_zero():
                            out[i + j] = out[i + j] + x * y
            return self._wrap(out)
        return self._wrap([c * other for c in self.coeffs])

    def __divmod__(self, other: "ExactPolynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lead_inv = other.coeffs[-1].inverse()
        if len(rem) <= db:
            return ExactPolynomial.zero(self.conductor), self
        quot = [as_scalar(0, self.conductor)] * (len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[k + db] * lead_inv
            quot[k] = c
            if not c.is_zero():
                for j in range(db + 1):
                    rem[k + j] = rem[k + j] - c * other.coeffs[j]
        return self._wrap(quot), self._wrap(rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "ExactPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                terms.append(f"({c!r})*x^{i}")
        return "ExactPolynomial(" + " + ".join(terms) + ")"

    # -- calculus ------------------------------------------------------------

    def derivative(self) -> "ExactPolynomial":
        return self._wrap([c * i for i, c in enumerate(self.coeffs)][1:])


def poly_gcd(a: ExactPolynomial, b: ExactPolynomial) -> ExactPolynomial:
    """Monic gcd via the Euclidean remainder sequence over the field."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def squarefree_part(f: ExactPolynomial) -> ExactPolynomial:
    """f / gcd(f, f'), made monic."""
    if f.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    g = poly_gcd(f, f.derivative())
    if g.is_zero() or g.degree == 0:
        return f.monic()
    return (f // g).monic()


def cyclotomic_polynomial(m: int) -> ExactPolynomial:
    """The m-th cyclotomic polynomial, with rational coefficients."""
    return ExactPolynomial([Fraction(c) for c in cyclotomic_int_coeffs(m)], 1)


#: the first 12 primes; as Miller-Rabin bases they decide every n below
#: _MR_BOUND, the least strong pseudoprime to all of them (conjectured by
#: Jiang and Deng, Math. Comp. 83, 2014; proved by Sorenson and Webster,
#: Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic: Miller-Rabin below _MR_BOUND, trial division above it."""
    if n < 2 or n in _MR_BASES:
        return n in _MR_BASES
    if n >= _MR_BOUND:
        return all(n % r for r in range(2, isqrt(n) + 1))
    if any(n % a == 0 for a in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_and_root(m: int) -> tuple[int, int]:
    """A prime p = 1 mod m above 2^31 and an element r of order m mod p."""
    p = (2 ** 31 // m + 1) * m + 1
    while not _is_prime(p):
        p += m
    prime_factors = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    roots = (pow(a, (p - 1) // m, p) for a in range(2, p))
    return p, next(r for r in roots if all(pow(r, m // q, p) != 1 for q in prime_factors))


def _order_mod_p(f: ExactPolynomial) -> int:
    """The order of x mod (f, p) if f | x^L - 1 holds mod p, else 0 (see below)."""
    m, deg = f.conductor, f.degree
    primes = [q for q in range(2, max(deg + 1, m) + 1) if _is_prime(q)]
    period = 1
    for q in primes:
        power = q
        while euler_phi(lcm(m, power)) <= deg * euler_phi(m):
            period, power = period * q, power * q
    p, r = _prime_and_root(m)
    fbar = [sum(a * pow(r, i, p) for i, a in enumerate(c.num)) % p for c in f.coeffs]
    one = [1] + [0] * (deg - 1)

    def mulmod(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (2 * deg + 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        for k in range(2 * deg, deg - 1, -1):
            c = out[k] % p
            out[k - deg:k + 1] = [x - c * y for x, y in zip(out[k - deg:k + 1], fbar)]
        return [x % p for x in out[:deg]]

    def x_power(e: int) -> list[int]:  # x^e mod (f, p), by square-and-multiply
        result, base = one, mulmod(one, [0, 1])
        while e:
            result = mulmod(result, base) if e & 1 else result
            base, e = mulmod(base, base), e >> 1
        return result

    if x_power(period) != one:
        return 0
    n = period
    for q in primes:
        while n % q == 0 and x_power(n // q) == one:
            n //= q
    return n


def root_of_unity_order(f: ExactPolynomial, bound: int | None = None) -> int | None:
    """Smallest n such that f divides x^n - 1; None if there is none or n > bound.

    Precondition: nonzero constant term.  An exact scan of x^k mod f finds
    a small n directly.  Past k = 2 deg f the scan is capped: over
    Q(zeta_m), m the conductor, a root of order d has degree
    phi(lcm(m, d)) / phi(m) <= deg f, and phi grows along divisibility,
    so n exists iff f | x^L - 1 for L = prod p^e_p, e_p the largest e with
    phi(lcm(m, p^e)) <= deg f * phi(m).  Exact x^L mod f blows up (like
    |root|^L) for a root off the unit circle, so L is certified mod a prime
    p = 1 mod m, p prime to L: a monic divisor of x^L - 1 lies over
    Z[zeta_m], and mod p, where x^L - 1 is separable, its order is still n.
    The scan stops at that order.
    """
    if f.is_zero() or f.degree < 0:
        raise ValueError("polynomial must be nonzero")
    if f.coeffs[0].is_zero():
        raise ValueError("polynomial must have nonzero constant term")
    if f.degree == 0:
        return 1
    f, m = f.monic(), f.conductor
    if any(c.den != 1 for c in f.coeffs):
        return None  # roots of unity are algebraic integers
    unit, x = ExactPolynomial([1], m), ExactPolynomial.x_power(1, m)
    power, k, limit = unit, 0, 2 * f.degree
    while k < (limit if bound is None else min(limit, bound)):
        k, power = k + 1, (power * x) % f
        if power == unit:
            return k
        if k == 2 * f.degree:
            limit = _order_mod_p(f)
    return None
