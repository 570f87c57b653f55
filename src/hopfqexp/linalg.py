"""Exact linear algebra over a cyclotomic field.

Vectors are sparse dicts {key: nonzero CyclotomicNumber}, a missing key
meaning zero; every function that builds one drops its zeros, so that
dict equality is vector equality.  Everything here is exact: Gaussian
elimination needs no pivot strategy (any nonzero entry will do), and
`SpanSolver` is the only exact elimination: linear solves, span closures
and minimal polynomials go through it, and the inverse of an algebra or
tensor element is read off its minimal polynomial (`hopf.element_inverse`).
`ExactMatrix`, an immutable-by-convention row-major grid of
`CyclotomicNumber`s sharing one conductor, is only a dense view for
reference checks: no command forms one; `dense` and `sparse` convert at
its boundary.
`first_dependence` first runs a pass modulo a prime that only proposes
a candidate: an exact check decides, and `SpanSolver` is the fallback.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import gcd, isqrt, lcm
from operator import mul
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .poly import ExactPolynomial, _prime_and_root, root_of_unity_order  # noqa: F401  (re-exported)
from .scalars import CyclotomicNumber, _canonical, as_scalar, euler_phi

SparseVec = dict[int, CyclotomicNumber]


def dadd(acc: dict, key, value) -> None:
    """acc[key] += value in a sparse dict; entries that reach zero are dropped."""
    cur = acc.get(key)
    if cur is None:
        if not value.is_zero():
            acc[key] = value
    else:
        s = cur + value
        if s.is_zero():
            del acc[key]
        else:
            acc[key] = s


def dense(vec: SparseVec, n: int, conductor: int) -> list[CyclotomicNumber]:
    """The length-n coefficient list of a sparse vector, for an ExactMatrix view."""
    zero = CyclotomicNumber.zero(conductor)
    out = [zero] * n
    for k, v in vec.items():
        out[k] = v
    return out


def sparse(vec: Iterable[CyclotomicNumber]) -> SparseVec:
    """The nonzero entries of a coefficient sequence, by index."""
    return {i: v for i, v in enumerate(vec) if not v.is_zero()}


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
            if solver.insert(sparse(self.column(j))) is not None:
                raise ValueError("matrix is singular")
        # express(e_i) solves self x = e_i: it is column i of the inverse
        one = CyclotomicNumber.one(self.conductor)
        return ExactMatrix.from_columns([solver.express({i: one}) for i in range(self.rows)],
                                        self.conductor)


class SpanSolver:
    """Incremental exact row reduction with dependency tracking.

    Sparse vectors are appended one at a time; when a vector lies in the
    span of the earlier ones, the expressing coefficients are returned
    instead of inserting it, as a list over the inserted vectors in
    insertion order.  Any key of a reduced vector may be its pivot (tuple
    keys too): each pivot row is reduced against the earlier pivots, so a
    reduced vector is zero at every pivot, and it is zero exactly when the
    vector lies in the span.  The coefficients are unique, whatever the
    pivots.

    A pivot is stored as (key, -P, w) with P = sum_i w_i v_i over the
    inserted v_i and P[key] = 1, so that reducing is only additions.
    """

    def __init__(self, conductor: int):
        self.conductor = conductor
        self.pivots: list[tuple[Hashable, dict, SparseVec]] = []
        self.count = 0

    def _reduce(self, vec: Mapping) -> tuple[dict, SparseVec]:
        """(r, a) with r = vec - sum_i a_i v_i zero at every pivot."""
        vec = dict(vec)
        combo: SparseVec = {}
        for pos, pvec, pcombo in self.pivots:
            c = vec.get(pos)
            if c is None:
                continue
            for k, x in pvec.items():
                dadd(vec, k, c * x)
            for i, x in pcombo.items():
                dadd(combo, i, c * x)
        return vec, combo

    def _coefficients(self, combo: SparseVec) -> list[CyclotomicNumber]:
        zero = CyclotomicNumber.zero(self.conductor)
        return [combo.get(i, zero) for i in range(self.count)]

    def express(self, vec: Mapping) -> list[CyclotomicNumber] | None:
        """Coefficients writing vec over the inserted vectors, or None."""
        red, combo = self._reduce(vec)
        return None if red else self._coefficients(combo)

    def insert(self, vec: Mapping) -> list[CyclotomicNumber] | None:
        """Insert vec; if dependent, return expressing coefficients instead."""
        red, combo = self._reduce(vec)
        if not red:
            return self._coefficients(combo)
        pos = next(iter(red))
        # P = red / red[pos] = (vec - sum_i a_i v_i) / red[pos]
        ninv = -red[pos].inverse()
        pcombo = {i: x * ninv for i, x in combo.items()}
        pcombo[self.count] = -ninv
        self.pivots.append((pos, {k: x * ninv for k, x in red.items()}, pcombo))
        self.count += 1
        return None


def first_dependence(vectors: Iterable[Mapping], conductor: int) -> ExactPolynomial:
    """The monic x^k - sum c_i x^i read off the first v_k = sum c_i v_i.

    For a sequence v_i = A^i v this is the least monic f with f(A)v = 0;
    the stream is consumed lazily and must end in a dependence.

    A pass modulo a prime proposes k and c (`_modular_dependence`); it is
    accepted only with its proof, and otherwise the consumed vectors are
    replayed into `SpanSolver`, which continues the stream.  Either way the
    result is the exact first dependence.
    """
    vectors = iter(vectors)
    consumed: list[Mapping] = []
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


def _modular_dependence(vectors: Iterator[Mapping], m: int,
                        consumed: list[Mapping]) -> list[CyclotomicNumber] | None:
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
    on every coordinate that some v_i holds.

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
    pivots: list[tuple[Hashable, dict, list[int]]] = []
    for v in vectors:
        consumed.append(v)
        vec: dict = {}
        for k, c in v.items():
            num = c.num
            if c.conductor != m and any(num[1:]):
                return None
            x = sum(map(mul, num, sigma1)) if len(num) > 1 else num[0]
            den = c.den
            if den not in inv_den:
                if den % p == 0:
                    return None
                inv_den[den] = pow(den, -1, p)
            x = x * inv_den[den] % p
            if x:
                vec[k] = x
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
        if coeffs is not None and _is_relation(coeffs, consumed, m):
            return coeffs
        return None
    return None


def _lift(sigma1_images: list[int], positions: list, vectors: list[Mapping],
          m: int, inv_den: dict[int, int]) -> list[CyclotomicNumber] | None:
    """The candidate c in Q(zeta_m)^d from sigma_1(c), or None.

    Under every other sigma_j, sigma_j(c) solves the d x d system of
    v_d = sum c_i v_i on the given coordinates; V^-1 turns the images of
    c_i into its power-basis coordinates mod p, which rational
    reconstruction lifts to Q.  A coordinate a vector lacks is zero.
    """
    p, V, Vinv = _modular_context(m)
    d = len(positions)
    images = [sigma1_images]
    entries = [[v.get(pos) for v in vectors] for pos in positions]
    for row in V[1:]:
        system = [[0 if c is None else sum(map(mul, c.num, row)) * inv_den[c.den] % p
                   for c in eq] for eq in entries]
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


def _is_relation(coeffs: list[CyclotomicNumber], vectors: list[Mapping], m: int) -> bool:
    """True iff vectors[-1] = sum c_i vectors[i] exactly; a missing key is zero."""
    acc: dict = {}
    for c, v in zip(coeffs, vectors):
        if c:
            for k, x in v.items():
                acc[k] = acc[k] + c * x if k in acc else c * x
    last, zero = vectors[-1], CyclotomicNumber.zero(m)
    return all(last.get(k, zero) == acc.get(k, zero) for k in acc.keys() | last.keys())


def minimal_polynomial(a: ExactMatrix) -> ExactPolynomial:
    """Monic least-degree polynomial annihilating the square matrix a.

    The first dependence among the flattened powers a^0, a^1, ..., a^n.
    """
    if a.rows != a.cols:
        raise ValueError("minimal polynomial of a non-square matrix")
    powers = accumulate(repeat(a, a.rows), ExactMatrix.__matmul__,
                        initial=ExactMatrix.identity(a.rows, a.conductor))
    return first_dependence((sparse(chain.from_iterable(p.entries)) for p in powers),
                            a.conductor)

