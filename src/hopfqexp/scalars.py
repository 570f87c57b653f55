"""Exact rational and cyclotomic-field arithmetic.

Every scalar in this package is an element of a fixed cyclotomic field
``Q(zeta_m)`` (the *working conductor* ``m``).  An element is stored in
the power basis ``1, zeta, ..., zeta^{phi(m)-1}`` modulo the m-th
cyclotomic polynomial, as a tuple of integer coordinates over a single
positive denominator.  Representations are canonical (content and
denominator coprime, denominator positive), so equality is a plain
coefficient comparison and values are hashable.

Rationals are ``fractions.Fraction`` at the API boundary; they embed
into any conductor automatically.  Elements of genuinely different
cyclotomic fields must be lifted explicitly (`lift_conductor`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

Rational = Fraction

RationalLike = Union[int, Fraction]


class ConductorMismatch(ValueError):
    """Raised when two scalars live in different cyclotomic fields."""


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler's totient of a positive integer."""
    if m < 1:
        raise ValueError("conductor must be positive")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _int_poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # den is monic; division of integer polynomials is exact here.
    num = list(num)
    dd = len(den) - 1
    qd = len(num) - 1 - dd
    quot = [0] * (qd + 1)
    for k in range(qd, -1, -1):
        c = num[k + dd]
        quot[k] = c
        if c:
            for j in range(dd + 1):
                num[k + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, ascending."""
    if m < 1:
        raise ValueError("conductor must be positive")
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in _divisors(m):
        if d < m:
            num = _int_poly_div_exact(num, cyclotomic_int_coeffs(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> tuple[tuple[int, ...], ...]:
    """Row e holds the power-basis coordinates of zeta_m^e, for 0 <= e < m.

    x^(e+1) is x times x^e with x^phi replaced by x^phi - Phi_m; since
    Phi_m divides x^m - 1, zeta_m^e is row e mod m for every e.
    """
    phi = euler_phi(m)
    cyc = cyclotomic_int_coeffs(m)
    rows = [tuple(int(i == e) for i in range(phi)) for e in range(phi)]
    for _ in range(phi, m):
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple((prev[i - 1] if i else 0) - top * cyc[i] for i in range(phi)))
    return tuple(rows)


def _reduce_vector(vec: list[int], m: int, phi: int) -> list[int]:
    # Fold coordinates of degree >= phi back with the powers of zeta_m.
    if len(vec) <= phi:
        return vec + [0] * (phi - len(vec))
    rows = _zeta_powers(m)
    out = vec[:phi]
    for k in range(phi, len(vec)):
        c = vec[k]
        if c:
            row = rows[k % m]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return out


def _substitute(num: Sequence[int], target: int, k: int) -> list[int]:
    """The coordinates in Q(zeta_target) of sum_i num[i] zeta_target^(i k)."""
    rows = _zeta_powers(target)
    acc = [0] * euler_phi(target)
    for i, c in enumerate(num):
        if c:
            for j, v in enumerate(rows[i * k % target]):
                if v:
                    acc[j] += c * v
    return acc


class CyclotomicNumber:
    """An exact element of Q(zeta_m) in canonical power-basis form."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Sequence[RationalLike]):
        phi = euler_phi(conductor)
        if len(coeffs) != phi:
            raise ValueError(
                f"expected {phi} coordinates for conductor {conductor}, got {len(coeffs)}"
            )
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        num = [int(f * den) for f in fracs]
        g = gcd(den, *num)
        self.conductor, self.num, self.den = conductor, tuple(x // g for x in num), den // g

    @classmethod
    def rational(cls, value: RationalLike, conductor: int = 1) -> "CyclotomicNumber":
        f = Fraction(value)
        phi = euler_phi(conductor)
        num = (f.numerator,) + (0,) * (phi - 1)
        return _canonical(conductor, num, f.denominator)

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> "CyclotomicNumber":
        return _canonical(m, _zeta_powers(m)[power % m], 1)

    @classmethod
    def zero(cls, conductor: int = 1) -> "CyclotomicNumber":
        """The zero of Q(zeta_conductor), one shared object per conductor."""
        return _constant(conductor, 0)

    @classmethod
    def one(cls, conductor: int = 1) -> "CyclotomicNumber":
        """The one of Q(zeta_conductor), one shared object per conductor."""
        return _constant(conductor, 1)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- coercion --------------------------------------------------------

    def _coerce(self, other) -> "CyclotomicNumber | None":
        # an operand of self's own field is taken by the callers' fast paths
        if isinstance(other, CyclotomicNumber):
            if other.is_rational():
                return _canonical(
                    self.conductor,
                    (other.num[0],) + (0,) * (len(self.num) - 1),
                    other.den,
                )
            if self.is_rational():
                return other  # caller re-dispatches with roles swapped
            raise ConductorMismatch(
                f"conductors {self.conductor} and {other.conductor}; lift explicitly"
            )
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return _canonical(
                self.conductor, (f.numerator,) + (0,) * (len(self.num) - 1), f.denominator
            )
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if type(other) is CyclotomicNumber and other.conductor == self.conductor:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            if o.conductor != self.conductor:  # self rational, o genuine
                return o + self
        a, b, da, db = self.num, o.num, self.den, o.den
        if da == db:
            num = (a[0] + b[0],) if len(a) == 1 else tuple(x + y for x, y in zip(a, b))
        else:
            num = ((a[0] * db + b[0] * da,) if len(a) == 1
                   else tuple(x * db + y * da for x, y in zip(a, b)))
            da *= db
        return _canonical(self.conductor, num, da)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.conductor, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, (CyclotomicNumber, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is CyclotomicNumber and other.conductor == self.conductor:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            if o.conductor != self.conductor:
                return o * self
        a, b = self.num, o.num
        phi = len(a)
        if phi == 1:
            return _canonical(self.conductor, (a[0] * b[0],), self.den * o.den)
        if not any(b[1:]):  # o rational: scale the coordinates
            r = b[0]
            return _canonical(self.conductor, tuple(x * r for x in a), self.den * o.den)
        if not any(a[1:]):
            r = a[0]
            return _canonical(self.conductor, tuple(r * y for y in b), self.den * o.den)
        prod = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        red = _reduce_vector(prod, self.conductor, phi)
        return _canonical(self.conductor, tuple(red), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """a^-1 = prod_{j != 1} sigma_j(a) / N(a), j over the units mod m.

        The sigma_j: zeta -> zeta^j are the automorphisms of Q(zeta_m), so
        the norm N(a) = prod_j sigma_j(a) is rational, and nonzero for a != 0.
        The product runs on the integer numerator c of a = c / den, so N(c)
        is an integer n and a^-1 = den prod_{j != 1} sigma_j(c) / n.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        m, num = self.conductor, self.num
        conj, n = _constant(m, 1), num[0]
        if any(num[1:]):
            for j in range(2, m):
                if gcd(j, m) == 1:
                    conj = conj * _canonical(m, tuple(_substitute(num, m, j)), 1)
            n = (conj * _canonical(m, num, 1)).num[0]
        scale = self.den if n > 0 else -self.den
        return _canonical(m, tuple(c * scale for c in conj.num), abs(n))

    def __truediv__(self, other):
        if isinstance(other, CyclotomicNumber):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.one(self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if type(other) is CyclotomicNumber:
            if other.conductor == self.conductor:
                return self.num == other.num and self.den == other.den
            return (self.is_rational() and other.is_rational()
                    and self.as_fraction() == other.as_fraction())
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == Fraction(other)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.conductor, self.num, self.den))

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.as_fraction()})"
        return f"Cyc(m={self.conductor}, {list(self.coeffs)})"


def _canonical(conductor: int, num: tuple[int, ...], den: int) -> CyclotomicNumber:
    # num over a positive den, in lowest terms.
    if den != 1:
        g = gcd(den, *num)
        if g > 1:
            num = tuple(x // g for x in num)
            den //= g
    obj = object.__new__(CyclotomicNumber)
    obj.conductor, obj.num, obj.den = conductor, num, den
    return obj


@lru_cache(maxsize=None)
def _constant(conductor: int, value: int) -> CyclotomicNumber:
    # scalars are never mutated, so one object per (conductor, value) is shared
    return CyclotomicNumber.rational(value, conductor)


# -- packed integers: sum c_e 2^(Be) for (c_0, ..., c_{m-1}), in `_Ring` -------

#: packed widths are multiples of this many bits, so that the tables packed
#: at one width serve every later step that needs no more
_WIDTH_QUANTUM = 32


def _width_for(bound: int) -> int:
    """The least multiple of 32 bits B with bound < 2^(B-1)."""
    return (bound.bit_length() + _WIDTH_QUANTUM) // _WIDTH_QUANTUM * _WIDTH_QUANTUM


class _Packed:
    """Distinct canonical scalars, given as (num, den) pairs, over their lcm
    denominator ``den``: ``index[(num, den)] = i``, ``coords[i]`` the
    power-basis coordinates of den times value i, ``heights[i]`` their
    largest absolute value, ``height`` the largest (0 for none), and
    ``at(width)`` the coords packed at width (`pack`), once per width."""

    __slots__ = ("den", "index", "coords", "heights", "height", "_packed")

    def __init__(self, keys):
        index: dict = {}
        for key in keys:
            index.setdefault(key, len(index))
        den = lcm(*(d for _, d in index))
        self.den, self.index, self._packed = den, index, {}
        self.coords = [num if d == den else tuple(x * (den // d) for x in num)
                       for num, d in index]
        self.heights = [max(map(abs, c)) for c in self.coords]
        self.height = max(self.heights, default=0)

    def at(self, width: int) -> list[int]:
        packed = self._packed.get(width)
        if packed is None:
            packed = self._packed[width] = [pack(c, width) for c in self.coords]
        return packed


def _integers(values: dict) -> tuple[int, dict]:
    """(D, {key: power-basis coordinates of D v}): scalars over their lcm denominator D."""
    den = lcm(*(v.den for v in values.values()))
    return den, {key: v.num if v.den == den else tuple(x * (den // v.den) for x in v.num)
                 for key, v in values.items()}


def _height(vectors) -> int:
    """The largest absolute coordinate among integer coordinate vectors."""
    return max((max(map(abs, vec)) for vec in vectors), default=0)


def _spread(vectors, heights: list[int]) -> int:
    """max_j of the sum of heights[i] over the entries (j, i) of indexed vectors."""
    sums: dict = {}
    for entries in vectors:
        for j, i in entries:
            sums[j] = sums.get(j, 0) + heights[i]
    return max(sums.values(), default=0)


def pack(coords: Sequence[int], width: int) -> int:
    """sum_e coords[e] 2^(width e), the packed form of an integer vector."""
    z = 0
    for c in reversed(coords):
        z = (z << width) + c
    return z


class _Ring:
    """Z[x]/(x^m - 1) at x = 2^B, B = ``width``: the ring of the packed ints.

    ``shift`` is B m and ``modulus`` M = 2^(Bm) - 1.  As 2^(Bm) = 1 mod M,
    x -> 2^B maps Z[x]/(x^m - 1) to Z/M, and x -> zeta_m onto Z[zeta_m].  A
    product is an int multiply and the fold z -> (z & M) + (z >> Bm), a sum
    an int addition: the folds and any reduction mod M keep z mod M, all
    that `unpack` reads, so only `unpack` needs a digit bound.  Each kernel
    proves its own.

    The fold is the one piece of the ring each kernel still spells, inline
    with M and Bm read into locals: a method call per product would add its
    overhead to every product (on a 2-core x86-64 host the fold took
    187-336 ns per product at 96-1,408 bits, and z % M 291-5,110 ns).
    """

    def __init__(self, width: int, m: int):
        self.width, self.m, self.shift, self._phi = width, m, width * m, euler_phi(m)
        self.modulus = (1 << self.shift) - 1
        # the offset sum_e 2^(width-1) 2^(width e), and the nonzero
        # coordinates of zeta_m^e for phi <= e < m
        self._offset = (1 << width - 1) * (self.modulus // ((1 << width) - 1))
        self._folds = tuple((e, tuple((i, v) for i, v in enumerate(_zeta_powers(m)[e]) if v))
                            for e in range(self._phi, m))

    def unpack(self, z: int) -> list[int]:
        """The power-basis coordinates in Z[zeta_m] of the packed value z.

        Exact if the element of Z[x]/(x^m - 1) that z stands for has every
        digit below 2^(width-1) in absolute value.  Such digit vectors give
        integers sum c_e 2^(width e) of absolute value below M/2, distinct
        ones distinct, so the balanced residue of z mod M is that integer;
        adding 2^(width-1) to every digit makes them all lie in
        [1, 2^width), where they are read off bit by bit.  Digits
        e >= phi(m) are then folded back with zeta_m^e.
        """
        modulus, width = self.modulus, self.width
        z %= modulus
        if z > modulus >> 1:
            z -= modulus
        z += self._offset
        mask, half = (1 << width) - 1, 1 << width - 1
        digits = [((z >> s) & mask) - half for s in range(0, self.shift, width)]
        out = digits[:self._phi]
        for e, vec in self._folds:
            d = digits[e]
            if d:
                for i, v in vec:
                    out[i] += d * v
        return out

    def combine(self, terms) -> dict:
        """sum_t w_t vec_t over pairs (packed w_t, [(key, packed value)]) as
        {key: coordinates}, each entry decoded once and the zeros dropped."""
        acc: dict = {}
        for w, vec in terms:
            for key, y in vec:
                acc[key] = acc.get(key, 0) + w * y
        return {key: c for key, z in acc.items() if any(c := self.unpack(z))}


#: the ring at (width, m), built on first use and shared
_ring = lru_cache(maxsize=None)(_Ring)


def _lowest_terms(den: int, cols: list[dict]) -> tuple[int, list[dict]]:
    """Integer coordinate vectors [{key: coordinates}] over den, in lowest terms."""
    g = gcd(den, *(x for col in cols for c in col.values() for x in c))
    if g > 1:
        den, cols = den // g, [{k: [x // g for x in c] for k, c in col.items()} for col in cols]
    return den, cols


class _Decoder(dict):
    """Packed sums back to interned scalars, keyed by residue.

    A packed sum z of ``ring`` stands for den times a value, and
    ``decoder[z % ring.modulus]`` is None for zero, else the one object that
    ``canon`` holds for the value, each residue decoded once (`_Ring.unpack`).
    """

    def __init__(self, ring: _Ring, den: int, canon: dict):
        super().__init__()
        self.ring, self.den, self.canon = ring, den, canon

    def __missing__(self, z: int) -> CyclotomicNumber | None:
        c = self.ring.unpack(z)
        if any(c):
            c = _canonical(self.ring.m, tuple(c), self.den)
            c = self.canon.setdefault((c.num, c.den), c)
        else:
            c = None
        self[z] = c
        return c


def lift_conductor(a: CyclotomicNumber, target: int) -> CyclotomicNumber:
    """Express ``a`` in Q(zeta_target); requires conductor(a) | target."""
    m = a.conductor
    if target == m:
        return a
    if target % m != 0:
        raise ConductorMismatch(f"conductor {m} does not divide target {target}")
    return _canonical(target, tuple(_substitute(a.num, target, target // m)), a.den)


def as_scalar(value, conductor: int) -> CyclotomicNumber:
    """Coerce an int/Fraction/CyclotomicNumber into the given conductor."""
    if isinstance(value, CyclotomicNumber):
        if value.conductor == conductor:
            return value
        if value.is_rational():
            return CyclotomicNumber.rational(value.as_fraction(), conductor)
        return lift_conductor(value, conductor)
    return CyclotomicNumber.rational(Fraction(value), conductor)


# -- text form ------------------------------------------------------------

def format_rational(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """The rational written "p" or "p/q"; a ValueError or TypeError otherwise."""
    if not isinstance(text, str):
        raise TypeError(f"a rational is written as a string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def scalar_to_json(c: CyclotomicNumber) -> list[str]:
    return [format_rational(f) for f in c.coeffs]


def scalar_from_json(data: list[str], conductor: int) -> CyclotomicNumber:
    if not isinstance(data, list):
        raise TypeError(f"a scalar is a list of coordinate strings, got {data!r}")
    # phi(m) >= sqrt(m/2), so a larger conductor needs more coordinates;
    # rejecting it here spares the factorization of a huge conductor
    if conductor > 2 * len(data) ** 2:
        raise ValueError(f"{len(data)} coordinates cannot describe a scalar "
                         f"of conductor {conductor}")
    return CyclotomicNumber(conductor, [parse_rational(t) for t in data])
