"""Exact linear algebra over a cyclotomic field.

Everything here is exact: Gaussian elimination needs no pivot strategy
beyond "first nonzero", and `SpanSolver` is the only exact elimination;
inverses, linear solves, span closures and minimal polynomials all go
through it.  `ExactMatrix`, an immutable-by-convention row-major grid of
`CyclotomicNumber`s sharing one conductor, is only a dense view for
reference checks: no command forms one.
`first_dependence` first runs a pass modulo a prime that only proposes
a candidate: an exact check decides, and `SpanSolver` is the fallback.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .poly import ExactPolynomial, _prime_and_root, root_of_unity_order  # noqa: F401  (re-exported)
from .scalars import CyclotomicNumber, _canonical, as_scalar, euler_phi


class ExactMatrix:
    __slots__ = ("rows", "cols", "conductor", "entries")

    def __init__(self, entries: Sequence[Sequence], conductor: int):
        self.entries = [[as_scalar(e, conductor) for e in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")
        self.conductor = conductor

    @classmethod
    def identity(cls, n: int, conductor: int = 1) -> "ExactMatrix":
        one = CyclotomicNumber.one(conductor)
        zero = CyclotomicNumber.zero(conductor)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], conductor)

    @classmethod
    def zeros(cls, rows: int, cols: int, conductor: int = 1) -> "ExactMatrix":
        zero = CyclotomicNumber.zero(conductor)
        return cls([[zero] * cols for _ in range(rows)], conductor)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], conductor: int) -> "ExactMatrix":
        n = len(columns[0])
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(n)], conductor)

    def column(self, j: int) -> list[CyclotomicNumber]:
        return [self.entries[i][j] for i in range(self.rows)]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in add")
        return ExactMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.conductor,
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in sub")
        return ExactMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.conductor,
        )

    def scale(self, c) -> "ExactMatrix":
        c = as_scalar(c, self.conductor)
        return ExactMatrix([[a * c for a in row] for row in self.entries], self.conductor)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in mul")
        zero = CyclotomicNumber.zero(self.conductor)
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            arow = self.entries[i]
            orow = out[i]
            for k in range(self.cols):
                a = arow[k]
                if a.is_zero():
                    continue
                brow = other.entries[k]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return ExactMatrix(out, self.conductor)

    def __pow__(self, n: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        result = ExactMatrix.identity(self.rows, self.conductor)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return result

    def apply(self, vector: Sequence) -> list[CyclotomicNumber]:
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch in apply")
        out = []
        for row in self.entries:
            acc = CyclotomicNumber.zero(self.conductor)
            for a, v in zip(row, vector):
                if not a.is_zero():
                    acc = acc + a * v
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                if self.entries[i][j] != (1 if i == j else 0):
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.entries))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, conductor={self.conductor})"

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        solver = SpanSolver(self.conductor)
        for j in range(self.cols):
            if solver.insert(self.column(j)) is not None:
                raise ValueError("matrix is singular")
        # express(e_i) solves self x = e_i: it is column i of the inverse
        unit_vectors = ExactMatrix.identity(self.rows, self.conductor).entries
        return ExactMatrix.from_columns([solver.express(e) for e in unit_vectors],
                                        self.conductor)


class SpanSolver:
    """Incremental exact row reduction with dependency tracking.

    Vectors are appended one at a time; when a vector lies in the span of
    the earlier ones, the expressing coefficients are returned instead of
    inserting it.
    """

    def __init__(self, conductor: int):
        self.conductor = conductor
        self.pivots: list[tuple[int, list[CyclotomicNumber], list[CyclotomicNumber]]] = []
        self.count = 0

    def _reduce(self, vec):
        vec = list(vec)
        combo = [CyclotomicNumber.zero(self.conductor)] * self.count
        for pos, pvec, pcombo in self.pivots:
            c = vec[pos]
            if c.is_zero():
                continue
            for i, x in enumerate(pvec):
                if not x.is_zero():
                    vec[i] = vec[i] - c * x
            for i, x in enumerate(pcombo):
                if not x.is_zero():
                    combo[i] = combo[i] - c * x
        return vec, combo

    def express(self, vec) -> list[CyclotomicNumber] | None:
        """Coefficients writing vec over the inserted vectors, or None."""
        red, combo = self._reduce(vec)
        if any(not x.is_zero() for x in red):
            return None
        return [-c for c in combo]

    def insert(self, vec) -> list[CyclotomicNumber] | None:
        """Insert vec; if dependent, return expressing coefficients instead."""
        red, combo = self._reduce(vec)
        pos = next((i for i, x in enumerate(red) if not x.is_zero()), None)
        combo = combo + [CyclotomicNumber.one(self.conductor)]
        self.count += 1
        if pos is None:
            self.count -= 1
            return [-c for c in combo[:-1]]
        inv = red[pos].inverse()
        pvec = [x * inv for x in red]
        pcombo = [x * inv for x in combo]
        # pad earlier pivot combos so all have length == count
        self.pivots = [(p, v, c + [CyclotomicNumber.zero(self.conductor)])
                       for p, v, c in self.pivots]
        self.pivots.append((pos, pvec, pcombo))
        return None


def first_dependence(vectors: Iterable[Sequence], conductor: int) -> ExactPolynomial:
    """The monic x^k - sum c_i x^i read off the first v_k = sum c_i v_i.

    For a sequence v_i = A^i v this is the least monic f with f(A)v = 0;
    the stream is consumed lazily and must end in a dependence.

    A pass modulo a prime proposes k and c (`_modular_dependence`); it is
    accepted only with its proof, and otherwise the consumed vectors are
    replayed into `SpanSolver`, which continues the stream.  Either way the
    result is the exact first dependence.
    """
    vectors = iter(vectors)
    consumed: list[Sequence] = []
    coeffs = _modular_dependence(vectors, conductor, consumed)
    if coeffs is None:
        solver = SpanSolver(conductor)
        for v in chain(consumed, vectors):
            coeffs = solver.insert(v)
            if coeffs is not None:
                break
        else:
            raise AssertionError("the vector stream ended without a dependence")
    return ExactPolynomial([-c for c in coeffs] + [1], conductor)


@lru_cache(maxsize=None)
def _modular_context(m: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """(p, V, V^-1 mod p) for the phi(m) embeddings of Z[zeta_m] into F_p.

    p = 1 mod m and r has order m mod p (`poly._prime_and_root`), so for
    each unit j mod m, sigma_j: zeta -> r^j is a ring map; V[j][e] = r^(je)
    is the image of zeta^e, with sigma_1 first.  V is a Vandermonde matrix
    in the distinct r^j, hence invertible mod p.
    """
    p, r = _prime_and_root(m)
    phi = euler_phi(m)
    units = [j for j in range(1, m + 1) if gcd(j, m) == 1]
    V = [[pow(r, j * e, p) for e in range(phi)] for j in units]
    rhs = [[int(i == k) for k in range(phi)] for i in range(phi)]
    return p, V, _solve_mod(V, rhs, p)


def _solve_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]] | None:
    """The n x k matrix x with a x = b mod p for square a, or None if a is singular."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):  # forward elimination to a unit upper triangle
        piv = next((i for i in range(col, n) if rows[i][col] % p), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, p)
        prow = rows[col] = [x * inv % p for x in rows[col]]
        for i in range(col + 1, n):
            a_ic = rows[i][col]
            if a_ic % p:
                rows[i] = [(x - a_ic * y) % p for x, y in zip(rows[i], prow)]
    x = [row[n:] for row in rows]
    for i in range(n - 1, -1, -1):  # back substitution
        for j in range(i + 1, n):
            a_ij = rows[i][j]
            if a_ij:
                x[i] = [(xi - a_ij * xj) % p for xi, xj in zip(x[i], x[j])]
    return x


def _rational_reconstruction(a: int, p: int) -> tuple[int, int] | None:
    """(n, d) with n = a d mod p, |n|, d <= sqrt(p/2), gcd(n, d) = 1; or None."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _modular_dependence(vectors: Iterator[Sequence], m: int,
                        consumed: list[Sequence]) -> list[CyclotomicNumber] | None:
    """The exact c with v_d = sum_{i<d} c_i v_i for the first dependence d, or None.

    Every vector taken from the stream is appended to `consumed`.  None
    means "decide exactly": p divides a denominator, an entry lies outside
    Q(zeta_m), a system below is singular, the reconstruction fails, the
    exact check fails or the stream ends.

    Finding d.  The vectors are reduced under sigma_1 and eliminated
    incrementally mod p, tracking combinations; d is the first index with
    sigma_1(v_d) in the span of sigma_1(v_0), ..., sigma_1(v_(d-1)).
    Finding c.  Under sigma_1 the tracked combination gives sigma_1(c_i);
    under every other sigma_j, the d x d system on the pivot coordinates
    that sigma_1 chose gives sigma_j(c_i).  V^-1 turns these images into
    the power-basis coordinates of c_i mod p, and rational reconstruction
    lifts them to Q.  The certificate v_d = sum c_i v_i is checked exactly
    on every nonzero coordinate.

    Proof.  Let P = (p, zeta - r).  sigma_1 is a ring map from the
    P-integral elements of Q(zeta_m) onto F_p, and no entry has a
    denominator divisible by p, so the d x d minor of v_0, ..., v_(d-1)
    on the pivot coordinates, nonzero mod P, is the image of a nonzero
    exact minor: v_0, ..., v_(d-1) are independent over Q(zeta_m).  With
    the exact relation, d is the first dependence and c is unique, so it
    is the c the exact loop finds.
    """
    p, V, _ = _modular_context(m)
    sigma1 = V[0]
    inv_den = {1: 1}
    supports: list[list[int]] = []  # the exactly nonzero coordinates of each v_i
    pivots: list[tuple[int, dict[int, int], list[int]]] = []
    for v in vectors:
        consumed.append(v)
        vec: dict[int, int] = {}
        support = []
        for k, c in enumerate(v):
            num = c.num
            if not any(num):
                continue
            if c.conductor != m and any(num[1:]):
                return None
            support.append(k)
            x = sum(map(mul, num, sigma1)) if len(num) > 1 else num[0]
            den = c.den
            if den not in inv_den:
                if den % p == 0:
                    return None
                inv_den[den] = pow(den, -1, p)
            x = x * inv_den[den] % p
            if x:
                vec[k] = x
        supports.append(support)
        combo = [0] * len(pivots)
        for pos, prow, pcombo in pivots:
            a = vec.get(pos)
            if a:
                for i, x in prow.items():
                    vec[i] = (vec.get(i, 0) - a * x) % p
                for i, x in enumerate(pcombo):
                    combo[i] -= a * x
        vec = {i: x for i, x in vec.items() if x}
        if vec:
            pos = min(vec)
            inv = pow(vec[pos], -1, p)
            pivots.append((pos, {i: x * inv % p for i, x in vec.items()},
                           [x * inv % p for x in combo] + [inv]))
            continue
        # sigma_1(v_d) = sum_i sigma_1(c_i) sigma_1(v_i) with sigma_1(c_i) = -combo_i
        coeffs = _lift([-x % p for x in combo], [pos for pos, _, _ in pivots],
                       consumed, m, inv_den)
        if coeffs is not None and _is_relation(coeffs, consumed, supports, m):
            return coeffs
        return None
    return None


def _lift(sigma1_images: list[int], positions: list[int], vectors: list[Sequence],
          m: int, inv_den: dict[int, int]) -> list[CyclotomicNumber] | None:
    """The candidate c in Q(zeta_m)^d from sigma_1(c), or None.

    Under every other sigma_j, sigma_j(c) solves the d x d system of
    v_d = sum c_i v_i on the given coordinates; V^-1 turns the images of
    c_i into its power-basis coordinates mod p, which rational
    reconstruction lifts to Q.
    """
    p, V, Vinv = _modular_context(m)
    d = len(positions)
    images = [sigma1_images]
    for row in V[1:]:
        system = [[sum(map(mul, v[pos].num, row)) * inv_den[v[pos].den] % p
                   for v in vectors] for pos in positions]
        x = _solve_mod([s[:d] for s in system], [[s[d]] for s in system], p)
        if x is None:
            return None
        images.append([xi[0] for xi in x])
    coeffs = []
    for i in range(d):
        fracs = [_rational_reconstruction(sum(a * im[i] for a, im in zip(vrow, images)) % p, p)
                 for vrow in Vinv]
        if None in fracs:
            return None
        den = lcm(*(q for _, q in fracs))
        coeffs.append(_canonical(m, tuple(n * (den // q) for n, q in fracs), den))
    return coeffs


def _is_relation(coeffs: list[CyclotomicNumber], vectors: list[Sequence],
                 supports: list[list[int]], m: int) -> bool:
    """True iff vectors[-1] = sum c_i vectors[i] exactly; supports hold the nonzeros."""
    acc: dict[int, CyclotomicNumber] = {}
    for c, v, support in zip(coeffs, vectors, supports):
        if c:
            for k in support:
                acc[k] = acc[k] + c * v[k] if k in acc else c * v[k]
    last, zero = vectors[-1], CyclotomicNumber.zero(m)
    return all(last[k] == acc.get(k, zero) for k in acc.keys() | supports[-1])


def minimal_polynomial(a: ExactMatrix) -> ExactPolynomial:
    """Monic least-degree polynomial annihilating the square matrix a.

    The first dependence among the flattened powers a^0, a^1, ..., a^n.
    """
    if a.rows != a.cols:
        raise ValueError("minimal polynomial of a non-square matrix")
    powers = accumulate(repeat(a, a.rows), ExactMatrix.__matmul__,
                        initial=ExactMatrix.identity(a.rows, a.conductor))
    return first_dependence(([e for row in p.entries for e in row] for p in powers),
                            a.conductor)

