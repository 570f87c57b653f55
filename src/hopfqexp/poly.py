"""Univariate polynomials over a cyclotomic field.

Coefficients are `CyclotomicNumber`s of one common conductor, stored
lowest degree first with no trailing zeros; the zero polynomial has an
empty coefficient tuple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import CyclotomicNumber, as_scalar, cyclotomic_int_coeffs


class ExactPolynomial:
    __slots__ = ("coeffs", "conductor")

    def __init__(self, coeffs: Sequence, conductor: int | None = None):
        if conductor is None:
            conductor = 1
            for c in coeffs:
                if isinstance(c, CyclotomicNumber):
                    conductor = max(conductor, c.conductor)
        items = [as_scalar(c, conductor) for c in coeffs]
        while items and items[-1].is_zero():
            items.pop()
        self.coeffs = tuple(items)
        self.conductor = conductor

    # -- basic structure ---------------------------------------------------

    @classmethod
    def zero(cls, conductor: int = 1) -> "ExactPolynomial":
        return cls([], conductor)

    @classmethod
    def x_power(cls, n: int, conductor: int = 1) -> "ExactPolynomial":
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

    __rmul__ = __mul__

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

    # -- calculus and evaluation ---------------------------------------------

    def derivative(self) -> "ExactPolynomial":
        return self._wrap([c * i for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, value):
        """Horner evaluation; works for scalars and for square ExactMatrix."""
        from .linalg import ExactMatrix

        if isinstance(value, ExactMatrix):
            acc = ExactMatrix.zeros(value.rows, value.cols, value.conductor)
            for c in reversed(self.coeffs):
                acc = value @ acc
                acc = acc.add_scalar_identity(c)
            return acc
        acc = as_scalar(0, self.conductor)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def divides(self, other: "ExactPolynomial") -> bool:
        return (other % self).is_zero()


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


def root_of_unity_order(f: ExactPolynomial, bound: int) -> int | None:
    """Smallest n <= bound such that f divides x^n - 1, else None.

    Precondition: f squarefree, monic, nonzero constant term.
    """
    if f.is_zero() or f.degree < 0:
        raise ValueError("polynomial must be nonzero")
    if f.coeffs[0].is_zero():
        raise ValueError("polynomial must have nonzero constant term")
    if f.degree == 0:
        return 1
    one = ExactPolynomial([1], f.conductor)
    x = ExactPolynomial.x_power(1, f.conductor)
    power = one
    for n in range(1, bound + 1):
        power = (power * x) % f
        if power == one:
            return n
    return None
