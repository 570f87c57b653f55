"""Dense exact linear algebra over a cyclotomic field.

Matrices are immutable-by-convention row-major grids of
`CyclotomicNumber`s sharing one conductor.  Everything here is exact:
Gaussian elimination needs no pivot strategy beyond "first nonzero",
and `SpanSolver` is the only elimination; inverses, linear solves,
span closures and minimal polynomials all go through it.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Iterable, Sequence

from .poly import ExactPolynomial, root_of_unity_order  # noqa: F401  (re-exported)
from .scalars import CyclotomicNumber, as_scalar


class ExactMatrix:
    __slots__ = ("rows", "cols", "conductor", "entries")

    def __init__(self, entries: Sequence[Sequence], conductor: int | None = None):
        if conductor is None:
            conductor = 1
            for row in entries:
                for e in row:
                    if isinstance(e, CyclotomicNumber):
                        conductor = max(conductor, e.conductor)
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

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.conductor,
        )

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
        return ExactMatrix([solver.express(e) for e in unit_vectors],
                           self.conductor).transpose()


def solve_linear_system(m: ExactMatrix, rhs: Sequence) -> list[CyclotomicNumber] | None:
    """One exact solution of m x = rhs, or None if the system is inconsistent.

    For underdetermined consistent systems the free variables (the
    columns dependent on earlier ones) are set to zero.
    """
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length mismatch")
    solver = SpanSolver(m.conductor)
    independent = [j for j in range(m.cols) if solver.insert(m.column(j)) is None]
    coeffs = solver.express([as_scalar(r, m.conductor) for r in rhs])
    if coeffs is None:
        return None
    x = [CyclotomicNumber.zero(m.conductor)] * m.cols
    for j, c in zip(independent, coeffs):
        x[j] = c
    return x


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
    """
    solver = SpanSolver(conductor)
    for v in vectors:
        coeffs = solver.insert(v)
        if coeffs is not None:
            return ExactPolynomial([-c for c in coeffs] + [1], conductor)
    raise AssertionError("the vector stream ended without a dependence")  # pragma: no cover


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


def is_nilpotent(a: ExactMatrix) -> bool:
    """True iff the minimal polynomial is a pure power of x."""
    if a.rows == 0:
        return True
    mp = minimal_polynomial(a)
    return all(c.is_zero() for c in mp.coeffs[:-1])

