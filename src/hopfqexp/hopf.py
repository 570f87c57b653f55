"""Finite-dimensional Hopf algebras by exact structure constants.

Every vector below the JSON boundary has one format, the sparse dict
{index: nonzero CyclotomicNumber} of `linalg` (`SparseVec`): a missing
index is zero, and no stored dict holds a zero, so that dict equality is
vector equality.  Outside data is checked once, by the constructors of
`HopfAlgebraData` and `TensorElement`; what is built here goes through
their `_trusted` forms as it is.  An algebra of dimension N over
Q(zeta_m) is described by sparse structure tensors: ``mult[(i, j)]`` is
the product of basis elements i and j, ``comult[k]`` maps basis pairs to
the coefficients of Delta(e_k), and ``antipode[j]`` is S(e_j).  An
`AlgebraElement` holds one such dict, a `TensorElement` one keyed by
index tuples, and `SpanSolver` eliminates on them directly; only the
`ExactMatrix` views and `io` write dense lists.  Products of tensor
elements (`_legwise_product`) and the powers of an element
(`_right_powers`) run on Kronecker-packed integers, the former from the
one indexed form of the tables (`index_rows`) that each algebra keeps in
its ``_cache``, where the T-route and the double build read it too.
S^2, S^-2 and S^-1 all come from the one Radford scan of `s2_order`.
`validate` checks every Hopf axiom exactly (associativity and
multiplicativity on a certified generating set); no algebra, checked or
built, is taken for a Hopf algebra without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, product, repeat, starmap
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import ExactPolynomial, SpanSolver, SparseVec, dadd, first_dependence
from .scalars import (_WIDTH_QUANTUM, CyclotomicNumber, _canonical, _Decoder, _height,
                      _integers, _lowest_terms, _Packed, _ring, _width_for, as_scalar,
                      euler_phi, lift_conductor, pack)


class OrderSearchExhausted(RuntimeError):
    """An order breaks the theorem that bounds it (Radford, Nichols-Zoeller,
    Etingof-Gelaki), or passes a caller's cap; surfaced, never swallowed."""


SparsePairs = dict[tuple[int, int], CyclotomicNumber]


def apply_columns(cols: list[SparseVec], vec: SparseVec) -> SparseVec:
    """The sparse vector A vec, for A given by its sparse columns."""
    out: SparseVec = {}
    for j, x in vec.items():
        for i, c in cols[j].items():
            dadd(out, i, x * c)
    return out


class HopfAlgebraData:
    """Structure constants of a finite-dimensional Hopf algebra."""

    __slots__ = (
        "name", "dim", "conductor", "basis_labels",
        "mult", "unit", "comult", "counit", "antipode",
        "grouplike_vectors", "grading", "_cache",
    )

    def __init__(self, name: str, dim: int, conductor: int,
                 basis_labels: Sequence[str],
                 mult: Mapping[tuple[int, int], Mapping[int, object]],
                 unit: Sequence, comult: Sequence[Mapping[tuple[int, int], object]],
                 counit: Sequence, antipode: Sequence[Mapping[int, object]],
                 grouplike_vectors: Sequence[Sequence] | None = None,
                 grading: Sequence[int] | None = None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if len(basis_labels) != dim or len(unit) != dim or len(counit) != dim:
            raise ValueError("basis data length mismatch")
        if len(comult) != dim:
            raise ValueError("comultiplication tensor length mismatch")
        if len(antipode) != dim:
            raise ValueError(f"{len(antipode)} antipode columns for dim {dim}")
        if grading is not None and len(grading) != dim:
            raise ValueError(f"{len(grading)} grading degrees for dim {dim}")
        if grouplike_vectors is not None and any(len(g) != dim for g in grouplike_vectors):
            raise ValueError(f"grouplike vectors must have length dim {dim}")
        # one pass per entry: check the indices, coerce, drop zeros.  Each
        # distinct scalar object is coerced once, keyed by its identity; every
        # zero becomes the one shared zero, and `alive` keeps the coerced
        # objects, so that no id is reused while the cache is in use
        rng = range(dim)
        zero = CyclotomicNumber.zero(conductor)
        coerced: dict[int, CyclotomicNumber] = {}
        get, alive = coerced.get, []

        def coerce(v) -> CyclotomicNumber:
            c = coerced[id(v)] = as_scalar(v, conductor) or zero
            alive.append(v)
            return c

        def scalar(v) -> CyclotomicNumber:
            c = get(id(v))
            return coerce(v) if c is None else c

        def vector(vec: Mapping[int, object], what: str, where) -> SparseVec:
            d = {}
            for k, v in vec.items():
                if k not in rng:
                    raise ValueError(f"{what} {where} has coordinate {k} out of range({dim})")
                c = get(id(v))
                if c is None:
                    c = coerce(v)
                if c is not zero:
                    d[k] = c
            return d

        # the caller's key tuples are kept: a double has a million of them
        products = {}
        for key, vec in mult.items():
            i, j = key
            if i not in rng or j not in rng:
                raise ValueError(f"mult index ({i}, {j}) is out of range({dim})")
            if d := vector(vec, "mult", key):
                products[key] = d
        coproducts = []
        for k in rng:
            d = {}
            for pair, v in comult[k].items():
                a, b = pair
                if a not in rng or b not in rng:
                    raise ValueError(f"comult of {k} has pair ({a}, {b}) out of range({dim})")
                c = get(id(v))
                if c is None:
                    c = coerce(v)
                if c is not zero:
                    d[pair] = c
            coproducts.append(d)
        self._store(
            name, dim, conductor, list(basis_labels), products, tuple(map(scalar, unit)),
            coproducts, tuple(map(scalar, counit)),
            [vector(col, "antipode column", j) for j, col in enumerate(antipode)],
            None if grouplike_vectors is None
            else [tuple(map(scalar, g)) for g in grouplike_vectors],
            None if grading is None else list(grading))

    def _store(self, name: str, dim: int, conductor: int, basis_labels: list[str],
               mult: Mapping[tuple[int, int], SparseVec], unit: tuple,
               comult: Sequence[SparsePairs], counit: tuple, antipode: list[SparseVec],
               grouplike_vectors: list[tuple] | None = None,
               grading: list[int] | None = None) -> None:
        self.name, self.dim, self.conductor = name, dim, conductor
        self.basis_labels = basis_labels
        self.mult, self.unit, self.comult = mult, unit, comult
        self.counit, self.antipode = counit, antipode
        self.grouplike_vectors, self.grading = grouplike_vectors, grading
        self._cache = {}

    @classmethod
    def _trusted(cls, *tables, **named) -> "HopfAlgebraData":
        """The algebra on tables built inside this package, stored as they
        are by `_store`, whose arguments these are.

        Every internal construction comes in here: `dual`, `variant`,
        `lift_algebra`, `tensor`, `subalgebra_closure`, `twist.twist_hopf`,
        `presets._from_generators`, `presets.dual_group_algebra` and
        `double.drinfeld_double`.  Their tables are canonical by
        construction: indices in range(dim), nonzero scalars of the
        conductor (no zero entry, no empty product), unit and counit as
        tuples and grouplikes as a list of tuples of such scalars.
        Nothing is checked or copied, and tables may be shared with the
        algebra they came from; `mult` may be a read-only mapping that
        forms its products on first read (`double.DoubleProducts`), which
        readers call `get` on, and scans read through `mult_table`, and
        `comult` a read-only sequence that forms each row on first read
        (`double.DoubleCoproduct`).  Data from outside comes in through the
        checked constructor, and `validate` still checks the axioms."""
        self = cls.__new__(cls)
        self._store(*tables, **named)
        return self

    # -- scalars and elements ---------------------------------------------

    def scalar(self, v) -> CyclotomicNumber:
        return as_scalar(v, self.conductor)

    @property
    def zero_scalar(self) -> CyclotomicNumber:
        return CyclotomicNumber.zero(self.conductor)

    @property
    def one_scalar(self) -> CyclotomicNumber:
        return CyclotomicNumber.one(self.conductor)

    def element(self, coeffs: Sequence) -> "AlgebraElement":
        """The element with the given coefficient list, of length dim."""
        if len(coeffs) != self.dim:
            raise ValueError("coefficient length does not match the algebra dimension")
        return AlgebraElement(self, dict(enumerate(map(self.scalar, coeffs))))

    def basis_element(self, k: int) -> "AlgebraElement":
        return AlgebraElement(self, {k: self.one_scalar})

    def unit_element(self) -> "AlgebraElement":
        return AlgebraElement(self, dict(enumerate(self.unit)))

    # -- sparse kernel operations -------------------------------------------

    def mul_dicts(self, a: SparseVec, b: SparseVec) -> SparseVec:
        """The product ab, from the products of basis elements in `mult`
        (absent pairs multiply to zero)."""
        mult = self.mult
        out: SparseVec = {}
        for p, x in a.items():
            for q, y in b.items():
                vec = mult.get((p, q))
                if vec is None:
                    continue
                xy = x * y
                for k, c in vec.items():
                    dadd(out, k, xy * c)
        return out

    def comul_dict(self, a: SparseVec) -> SparsePairs:
        out: SparsePairs = {}
        for k, x in a.items():
            for pair, c in self.comult[k].items():
                dadd(out, pair, x * c)
        return out

    def counit_dict(self, a: SparseVec) -> CyclotomicNumber:
        acc = self.zero_scalar
        for k, x in a.items():
            e = self.counit[k]
            if not e.is_zero():
                acc = acc + x * e
        return acc

    # -- cached derived structure ---------------------------------------------

    @property
    def s2_columns(self) -> list[SparseVec]:
        """The sparse columns of S^2, from the scan of `s2_order`."""
        s2_order(self)
        return self._cache["s2_columns"]

    @property
    def sinv2_columns(self) -> list[SparseVec]:
        """The sparse columns of S^-2, from the scan of `s2_order`."""
        s2_order(self)
        return self._cache["sinv2_columns"]

    @property
    def antipode_inv(self) -> list[SparseVec]:
        """The sparse columns of S^-1: S^-1(e_j) = S^-2(S(e_j)), formed once."""
        if "antipode_inv" not in self._cache:
            sinv2 = self.sinv2_columns
            self._cache["antipode_inv"] = [apply_columns(sinv2, col) for col in self.antipode]
        return self._cache["antipode_inv"]

    @property
    def mult_table(self) -> dict[tuple[int, int], SparseVec]:
        """``mult`` as a plain dict with every product formed, bound once by
        the readers that scan the whole table (a double forms its products
        unit by unit on first read, and the units left on the first scan,
        `double.DoubleProducts`)."""
        mult = self.mult
        return mult if isinstance(mult, dict) else mult.table()

    @property
    def mult_index(self) -> tuple[dict[int, dict[int, tuple]], _Packed]:
        """The products indexed over their distinct values (`index_rows`),
        built once: rows[p][q] = ((k, i), ...) for e_p e_q."""
        if "mult_index" not in self._cache:
            self._cache["mult_index"] = index_rows(self.mult_table.items())
        return self._cache["mult_index"]

    @property
    def comult_index(self) -> tuple[dict[int, tuple], dict[int, dict[int, tuple]], _Packed]:
        """The coproducts indexed like `mult_index` (as the one row of a
        table), built once: legs[k] = (((a, b), i), ...) for Delta(e_k), in
        the order of comult[k], and its transpose by the right factor,
        duals[b][a] = [(k, i), ...] for the product f_a f_b of H*."""
        if "comult_index" not in self._cache:
            legs, values = index_rows(((0, k), pairs) for k, pairs in enumerate(self.comult))
            duals: dict[int, dict[int, list]] = {}
            for k, entries in legs[0].items():
                for (a, b), i in entries:
                    duals.setdefault(b, {}).setdefault(a, []).append((k, i))
            self._cache["comult_index"] = legs[0], duals, values
        return self._cache["comult_index"]

    @property
    def sinv2_index(self) -> tuple[dict[int, tuple], _Packed]:
        """The columns of S^-2 indexed like `mult_index`, built once: cols[i] =
        ((j, s), ...) for S^-2(e_i) (the one row of a table)."""
        if "sinv2_index" not in self._cache:
            cols, values = index_rows(((0, i), col) for i, col in enumerate(self.sinv2_columns))
            self._cache["sinv2_index"] = cols[0], values
        return self._cache["sinv2_index"]

    def __repr__(self):
        return f"HopfAlgebraData({self.name!r}, dim={self.dim}, conductor={self.conductor})"


class AlgebraElement:
    """An element of a HopfAlgebraData, as a sparse vector ``data``."""

    __slots__ = ("parent", "data")

    def __init__(self, parent: HopfAlgebraData, data: SparseVec):
        self.parent = parent
        self.data = {k: v for k, v in data.items() if not v.is_zero()}

    def _check(self, other: "AlgebraElement") -> None:
        if other.parent is not self.parent:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.data)
        for k, v in other.data.items():
            dadd(out, k, v)
        return AlgebraElement(self.parent, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.parent, {k: -v for k, v in self.data.items()})

    def scale(self, c) -> "AlgebraElement":
        c = self.parent.scalar(c)
        return AlgebraElement(self.parent, {k: v * c for k, v in self.data.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.parent, self.parent.mul_dicts(self.data, other.data))
        return self.scale(other)

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined for algebra elements")
        result = self.parent.unit_element()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def comul(self) -> "TensorElement":
        return TensorElement._trusted(self.parent, 2, self.parent.comul_dict(self.data))

    def counit(self) -> CyclotomicNumber:
        return self.parent.counit_dict(self.data)

    def _apply(self, columns: list[SparseVec]) -> "AlgebraElement":
        return AlgebraElement(self.parent, apply_columns(columns, self.data))

    def antipode(self) -> "AlgebraElement":
        return self._apply(self.parent.antipode)

    def antipode_inv(self) -> "AlgebraElement":
        return self._apply(self.parent.antipode_inv)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.parent is other.parent and self.data == other.data

    def __hash__(self):
        return hash((id(self.parent), frozenset(self.data.items())))

    def __repr__(self):
        terms = [f"({c!r})*{self.parent.basis_labels[i]}" for i, c in sorted(self.data.items())]
        return "AlgebraElement(" + (" + ".join(terms) or "0") + ")"


class TensorElement:
    """A sparse element of H^(tensor arity), arity >= 1."""

    __slots__ = ("parent", "arity", "data")

    def __init__(self, parent: HopfAlgebraData, arity: int,
                 data: Mapping[tuple[int, ...], object]):
        self.parent = parent
        self.arity = arity
        d = {}
        for key, v in data.items():
            v = parent.scalar(v)
            if not v.is_zero():
                d[tuple(key)] = v
        self.data = d

    @classmethod
    def _trusted(cls, parent: HopfAlgebraData, arity: int,
                 data: dict[tuple[int, ...], CyclotomicNumber]) -> "TensorElement":
        """The element on data built inside this package, stored as it is:
        tuple keys, nonzero scalars of the parent's conductor.  Outside data
        comes in through the checked constructor."""
        self = cls.__new__(cls)
        self.parent, self.arity, self.data = parent, arity, data
        return self

    @classmethod
    def from_elements(cls, *factors: AlgebraElement) -> "TensorElement":
        """The pure tensor of the factors, all in one algebra."""
        terms = {(): factors[0].parent.one_scalar}
        for f in factors:
            terms = {key + (k,): c * x for key, c in terms.items() for k, x in f.data.items()}
        return cls._trusted(factors[0].parent, len(factors), terms)

    @classmethod
    def unit(cls, parent: HopfAlgebraData, arity: int) -> "TensorElement":
        return cls.from_elements(*repeat(parent.unit_element(), arity))

    def _check(self, other: "TensorElement") -> None:
        if other.parent is not self.parent or other.arity != self.arity:
            raise ValueError("tensor elements are incompatible")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        out = dict(self.data)
        for key, v in other.data.items():
            dadd(out, key, v)
        return TensorElement._trusted(self.parent, self.arity, out)

    def scale(self, c) -> "TensorElement":
        c = self.parent.scalar(c)
        return TensorElement._trusted(self.parent, self.arity,
                                      {k: v * c for k, v in self.data.items()} if c else {})

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product in the tensor-power algebra."""
        self._check(other)
        H = self.parent
        return TensorElement._trusted(H, self.arity, _legwise_product(
            H.mult_index, self.data.items(), other.data.items(), self.arity, H.conductor))

    def apply_leg(self, leg: int, columns: list[SparseVec]) -> "TensorElement":
        """Apply a linear map, given by its sparse columns, to one leg."""
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for key, v in self.data.items():
            for i, c in columns[key[leg]].items():
                dadd(out, key[:leg] + (i,) + key[leg + 1:], v * c)
        return TensorElement._trusted(self.parent, self.arity, out)

    def comult_leg(self, leg: int) -> "TensorElement":
        """Apply the comultiplication to one leg (arity grows by one)."""
        H = self.parent
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for key, v in self.data.items():
            for (a, b), c in H.comult[key[leg]].items():
                dadd(out, key[:leg] + (a, b) + key[leg + 1:], v * c)
        return TensorElement._trusted(H, self.arity + 1, out)

    def counit_leg(self, leg: int) -> "TensorElement | AlgebraElement | CyclotomicNumber":
        """Contract one leg with the counit (arity drops by one)."""
        H = self.parent
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for key, v in self.data.items():
            e = H.counit[key[leg]]
            if not e.is_zero():
                dadd(out, key[:leg] + key[leg + 1:], v * e)
        if self.arity == 1:
            return out.get((), H.zero_scalar)
        if self.arity == 2:
            return AlgebraElement(H, {k[0]: v for k, v in out.items()})
        return TensorElement._trusted(H, self.arity - 1, out)

    def multiply_legs(self, leg: int) -> "TensorElement | AlgebraElement":
        """Multiply legs ``leg`` and ``leg+1`` together (arity drops by one)."""
        H = self.parent
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for key, v in self.data.items():
            vec = H.mult.get((key[leg], key[leg + 1]))
            if not vec:
                continue
            rest = key[:leg] + key[leg + 2:]
            for k, c in vec.items():
                dadd(out, rest[:leg] + (k,) + rest[leg:], v * c)
        if self.arity == 2:
            return AlgebraElement(H, {k[0]: v for k, v in out.items()})
        return TensorElement._trusted(H, self.arity - 1, out)

    def swap_legs(self, a: int, b: int) -> "TensorElement":
        out = {}
        for key, v in self.data.items():
            lst = list(key)
            lst[a], lst[b] = lst[b], lst[a]
            out[tuple(lst)] = v
        return TensorElement._trusted(self.parent, self.arity, out)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.parent is other.parent and self.arity == other.arity
                and self.data == other.data)

    def __hash__(self):
        return hash((id(self.parent), self.arity, tuple(sorted(self.data.items(),
                                                               key=lambda kv: kv[0]))))

    def __repr__(self):
        return f"TensorElement(arity={self.arity}, terms={len(self.data)})"


def index_rows(table: Iterable[tuple[tuple[int, int], Mapping]], values: _Packed | None = None
               ) -> tuple[dict[int, dict[int, tuple]], _Packed]:
    """The one indexed form of an algebra's tables: (rows, values) for a
    table of ((p, q), {k: scalar}) entries, rows[p][q] = ((k, i), ...) for
    sum_k values[i] e_k with equal tuples shared, and values the
    `scalars._Packed` of its scalars in their first order, after those of
    the values given (returned as they are if they hold them all)."""
    index = {} if values is None else dict(values.index)
    shared, rows = {}, {}
    for (p, q), vec in table:
        entries = tuple([(k, index.setdefault((v.num, v.den), len(index)))
                         for k, v in vec.items()])
        rows.setdefault(p, {})[q] = shared.setdefault(entries, entries)
    if values is None or len(index) > len(values.index):
        values = _Packed(index)
    return rows, values


def _legwise_product(table: tuple[Mapping[int, Mapping[int, tuple]], _Packed], a, b,
                     arity: int, m: int) -> dict[tuple[int, ...], CyclotomicNumber]:
    """Sum over the term pairs of a and b (collections of (key, coefficient))
    of the tensor products, leg by leg, of the products rows[a_l][b_l] of
    the indexed table (rows, values) (`index_rows`), for scalars of
    conductor m, on Kronecker-packed integers (`pack`).

    A first pass counts the P term pairs whose every leg has a product (a
    pair absent from rows multiplies to zero).  The values of a, of b and
    of the table are each held over their own common denominator and
    packed at width B (`scalars._Packed`).  A second pass adds, for each
    such pair (s, t) and each choice of k_l in rows[s_l][t_l] on every
    leg l, the int product of a_s, b_t and those values to the entry
    (k_0, ..., k_(arity-1)), each multiply followed by the fold of the ring
    at width B (`scalars._Ring`).  Both passes stream the term pairs, and
    each entry is decoded once per distinct residue (`_Decoder`).

    Exactness guard.  A packed value stands for an element of
    Z[x]/(x^m - 1): the power-basis coordinates of the value times its
    set's denominator, with digits at most h_a, h_b or h_T, the largest
    absolute coordinate in each set (h_T the table's ``height``).  Each
    digit of a product of elements with digits at most A and C is a sum
    of m products of digits, so it is at most m A C; the arity + 2
    factors of one term give digits at most m^(arity+1) h_a h_b h_T^arity.
    Within one term pair, distinct choices of the k_l give distinct keys,
    so an entry gets at most one term from each of the P term pairs, and
    its digits are at most P m^(arity+1) h_a h_b h_T^arity.  `_Ring.unpack`
    is exact while that bound is below 2^(B-1), and B is the least multiple
    of 32 bits for which it is (`_width_for`).
    """
    rows, values = table
    empty: dict = {}
    legs = range(arity)
    pairs = 0
    for s, _ in a:
        heads = [rows.get(p, empty) for p in s]
        for t, _ in b:
            for leg in legs:
                if t[leg] not in heads[leg]:
                    break
            else:
                pairs += 1
    if not pairs:
        return {}
    apacked, bpacked = (_Packed((v.num, v.den) for _, v in terms) for terms in (a, b))
    width = _width_for(pairs * m ** (arity + 1) * apacked.height * bpacked.height
                       * values.height ** arity)
    decode = _Decoder(_ring(width, m), apacked.den * bpacked.den * values.den ** arity, {})
    avals, aindex = apacked.at(width), apacked.index
    bvals, bindex = bpacked.at(width), bpacked.index
    tvals = values.at(width)
    ys = [(t, bvals[bindex[v.num, v.den]]) for t, v in b]
    shift, modulus = decode.ring.shift, decode.ring.modulus
    acc: dict[tuple[int, ...], int] = {}
    for s, v in a:
        x = avals[aindex[v.num, v.den]]
        heads = [rows.get(p, empty) for p in s]
        for t, y in ys:
            partial = [((), x * y)]
            for leg in legs:
                entries = heads[leg].get(t[leg])
                if entries is None:
                    break
                partial = [(key + (k,), ((z := w * tvals[i]) & modulus) + (z >> shift))
                           for key, w in partial for k, i in entries]
            else:
                for key, w in partial:
                    acc[key] = acc.get(key, 0) + w
    return {key: c for key, z in acc.items() if (c := decode[z % modulus]) is not None}


def placed_product(x: TensorElement, x_legs: Sequence[int],
                   y: TensorElement, y_legs: Sequence[int]) -> TensorElement:
    """x placed at legs x_legs times y placed at legs y_legs, e.g. R13 R23.

    Equal to placing each factor with the unit on its other legs and
    multiplying, without expanding the unit: a leg that only x covers
    carries e_k 1, and one that only y covers 1 e_k, indexed once with the
    products of the algebra (e_k itself when the unit is a unit).  Every
    leg 0, ..., arity - 1 must be covered by x or y.
    """
    H = x.parent
    legs = set(x_legs) | set(y_legs)
    arity = len(legs)
    if (y.parent is not H or legs != set(range(arity))
            or len(set(x_legs)) != len(x_legs) or len(x_legs) != x.arity
            or len(set(y_legs)) != len(y_legs) or len(y_legs) != y.arity):
        raise ValueError("legs must be distinct, match the arities and cover 0..arity-1")
    if "placed_rows" not in H._cache:
        # (k, -1): e_k 1 and (-1, k): 1 e_k, beside the indexed products of H
        one, unit = H.one_scalar, H.unit_element().data
        cols = [((k, -1), H.mul_dicts({k: one}, unit)) for k in range(H.dim)]
        cols += [((-1, k), H.mul_dicts(unit, {k: one})) for k in range(H.dim)]
        rows, values = H.mult_index
        extra, values = index_rows(cols, values)
        rows = {p: {**rows.get(p, {}), **extra.get(p, {})} for p in rows.keys() | extra}
        H._cache["placed_rows"] = rows, values

    def padded(t: TensorElement, at: Sequence[int]):
        # -1 marks a leg this factor leaves to the other one
        where = dict(zip(at, range(t.arity)))
        return [(tuple(key[where[p]] if p in where else -1 for p in range(arity)), v)
                for key, v in t.data.items()]

    return TensorElement._trusted(H, arity, _legwise_product(
        H._cache["placed_rows"], padded(x, x_legs), padded(y, y_legs), arity, H.conductor))


# -- axiom verification -------------------------------------------------------

def _generators(H: HopfAlgebraData) -> list[int] | None:
    """Basis indices that generate H as an algebra, certified exactly.

    Greedy in basis order: e_k becomes a generator when it lies outside
    W, the span of the words in the generators so far applied to 1.  W
    is grown (with `SpanSolver`) until left multiplication by every
    generator maps it into itself, so W is the subalgebra they generate
    and dim W = dim H certifies them.  None if W stays smaller, which
    can only happen when 1 is not a unit.
    """
    N, one = H.dim, H.one_scalar
    space = SpanSolver(H.conductor)
    words: list[SparseVec] = []
    gens: list[int] = []

    def grow(queue: list[SparseVec]) -> None:
        while queue:
            vec = queue.pop()
            if space.insert(vec) is None:
                words.append(vec)
                queue.extend(H.mul_dicts({g: one}, vec) for g in gens)

    grow([H.unit_element().data])
    for k in range(N):
        if len(words) == N:
            break
        if space.express({k: one}) is None:
            gens.append(k)
            grow([H.mul_dicts({k: one}, w) for w in words])
    return gens if len(words) == N else None


def first_failure(check, everything: Iterable[tuple], certified: Iterable[tuple] | None = None):
    """The first truthy check(*args) over everything, in order, or None.

    certified, when given, is a set of arguments on which check passing
    proves, by the caller's theorem, that it passes everywhere; then
    nothing else is checked.  A failure on it runs the full scan, so the
    witness is always the first in the order of everything.
    """
    if certified is not None and not any(starmap(check, certified)):
        return None
    return next(filter(None, starmap(check, everything)), None)


def validate(H: HopfAlgebraData) -> list[str]:
    """All Hopf axioms, checked exactly.

    Returns named violations; an empty list means the data is a Hopf
    algebra.  Each axiom reports at most one witness, the first in
    basis order.  Once unitality holds, a generating set G is certified
    (`_generators`) and reused by the checks below; when every axiom
    holds it is left in ``H._cache["certified_generators"]`` for the
    checks of `double` that hold on subalgebras.

    Coassociativity, the counit axiom and the antipode axiom are checked
    for each basis element e_k as identities of elements, formed from
    Delta(e_k) by the `TensorElement` leg operations:

        (Delta (x) Id)Delta(e_k) = (Id (x) Delta)Delta(e_k)   (`comult_leg`)
        (eps (x) Id)Delta(e_k) = e_k = (Id (x) eps)Delta(e_k)   (`counit_leg`)
        m(S (x) Id)Delta(e_k) = eps(e_k) 1 = m(Id (x) S)Delta(e_k)
                                        (`apply_leg`, `multiply_legs`)

    Associativity is checked for x in G and all basis y, z (Light's
    test; Clifford and Preston, The Algebraic Theory of Semigroups I,
    1961, 1.2).  That is enough: the set A of x with (xy)z = x(yz) for
    all y, z is a subspace containing 1, and for g in G and w in A,
    ((gw)y)z = (g(wy))z = g((wy)z) = g(w(yz)) = (gw)(yz), so gw is in A.
    Hence A contains every word g1(g2(...(gk 1))), and these words,
    which `_generators` builds by left multiplication without assuming
    associativity, span H.

    Multiplicativity of the counit and the comultiplication is checked
    for x in G and all basis y, once associativity, unitality,
    eps(1) = 1 and Delta(1) = 1 (x) 1 hold.  The set M of x with
    Delta(xy) = Delta(x)Delta(y) and eps(xy) = eps(x)eps(y) for all y is
    a subspace containing 1, and for g in G and a in M, associativity
    gives Delta((ga)y) = Delta(g)Delta(ay) = Delta(g)Delta(a)Delta(y) =
    Delta(ga)Delta(y) (likewise for eps), so ga is in M and M = H.

    Without G, or when the restricted check fails, all N^3 triples
    (N^2 pairs) are checked, which names the first witness.
    """
    violations: list[str] = []
    N = H.dim
    one = H.unit_element().data
    mult, empty = H.mult_table, {}

    # associativity: (e_i e_j) e_k = sum_l c_l e_l e_k against e_i (e_j e_k)
    def associativity_fails(i: int, j: int, k: int) -> str | None:
        left: SparseVec = {}
        for l, c in mult.get((i, j), empty).items():
            for p, v in mult.get((l, k), empty).items():
                dadd(left, p, c * v)
        right: SparseVec = {}
        for l, c in mult.get((j, k), empty).items():
            for p, v in mult.get((i, l), empty).items():
                dadd(right, p, c * v)
        return None if left == right else f"associativity fails at basis ({i},{j},{k})"

    def unitality_fails(k: int) -> str | None:
        ek = {k: H.one_scalar}
        if H.mul_dicts(one, ek) != ek or H.mul_dicts(ek, one) != ek:
            return f"unitality fails at basis {k}"
        return None

    unitality = first_failure(unitality_fails, product(range(N)))
    gens = None if unitality else _generators(H)
    associativity = first_failure(
        associativity_fails, product(range(N), repeat=3),
        None if gens is None else product(gens, range(N), range(N)))
    violations.extend(v for v in (associativity, unitality) if v)

    # coassociativity and the counit axiom, on the coproducts of the basis
    deltas = [TensorElement._trusted(H, 2, d) for d in H.comult]
    for k, delta in enumerate(deltas):
        if delta.comult_leg(0) != delta.comult_leg(1):
            violations.append(f"coassociativity fails at basis {k}")
            break
    for k, delta in enumerate(deltas):
        ek = H.basis_element(k)
        if delta.counit_leg(0) != ek or delta.counit_leg(1) != ek:
            violations.append(f"counit axiom fails at basis {k}")
            break

    # bialgebra: counit and comultiplication are algebra maps
    if H.counit_dict(one) != H.one_scalar:
        violations.append("counit of the unit is not 1")
    if H.comul_dict(one) != TensorElement.unit(H, 2).data:
        violations.append("comultiplication of the unit is not 1 tensor 1")

    def multiplicativity_fails(i: int, j: int) -> str | None:
        prod = mult.get((i, j), empty)
        if H.counit_dict(prod) != H.counit[i] * H.counit[j]:
            return f"counit is not multiplicative at ({i},{j})"
        if (deltas[i] * deltas[j]).data != H.comul_dict(prod):
            return f"comultiplication is not multiplicative at ({i},{j})"
        return None

    if failure := first_failure(
            multiplicativity_fails, product(range(N), repeat=2),
            None if gens is None or violations else product(gens, range(N))):
        violations.append(failure)

    # antipode axiom and invertibility: the columns of S are independent
    space = SpanSolver(H.conductor)
    if any(space.insert(col) is not None for col in H.antipode):
        violations.append("antipode is not invertible")
    for k, delta in enumerate(deltas):
        expected = H.unit_element().scale(H.counit[k])
        if (delta.apply_leg(0, H.antipode).multiply_legs(0) != expected
                or delta.apply_leg(1, H.antipode).multiply_legs(0) != expected):
            violations.append(f"antipode axiom fails at basis {k}")
            break

    if not violations:
        H._cache["certified_generators"] = gens
    return violations


# -- duals, opposites, tensor products ---------------------------------------

def dual(H: HopfAlgebraData) -> HopfAlgebraData:
    """The dual Hopf algebra on the dual basis."""
    N = H.dim
    mult: dict[tuple[int, int], SparseVec] = {}  # the transpose of comult
    for k, pairs in enumerate(H.comult):
        for pair, c in pairs.items():
            mult.setdefault(pair, {})[k] = c
    comult: list[SparsePairs] = [{} for _ in range(N)]  # the transpose of mult
    for pair, vec in H.mult_table.items():
        for k, c in vec.items():
            comult[k][pair] = c
    antipode: list[SparseVec] = [{} for _ in range(N)]  # the transpose of S
    for j, col in enumerate(H.antipode):
        for i, c in col.items():
            antipode[i][j] = c
    return HopfAlgebraData._trusted(
        f"{H.name}*", N, H.conductor, [f"{lbl}^" for lbl in H.basis_labels],
        mult, H.counit, comult, H.unit, antipode)


def variant(H: HopfAlgebraData, which: str) -> HopfAlgebraData:
    """Opposite / co-opposite / both; antipode flips to its inverse for one swap."""
    if which not in ("op", "cop", "op_cop"):
        raise ValueError("variant must be one of op, cop, op_cop")
    mult = H.mult_table
    comult = H.comult
    antipode = H.antipode
    if which in ("op", "op_cop"):
        mult = {(j, i): vec for (i, j), vec in mult.items()}
    if which in ("cop", "op_cop"):
        comult = [{(j, i): c for (i, j), c in d.items()} for d in comult]
    if which != "op_cop":
        antipode = H.antipode_inv
    return HopfAlgebraData._trusted(
        f"{H.name}^{which}", H.dim, H.conductor, H.basis_labels, mult, H.unit, comult,
        H.counit, antipode, H.grouplike_vectors, H.grading)


def lift_algebra(H: HopfAlgebraData, conductor: int) -> HopfAlgebraData:
    """The same algebra with all scalars expressed in Q(zeta_conductor)."""
    if conductor == H.conductor:
        return H
    if conductor % H.conductor != 0:
        raise ValueError("target conductor must be a multiple of the current one")

    def lift(v):
        return lift_conductor(v, conductor)

    return HopfAlgebraData._trusted(
        H.name, H.dim, conductor, H.basis_labels,
        {pair: {k: lift(c) for k, c in vec.items()} for pair, vec in H.mult_table.items()},
        tuple(map(lift, H.unit)), [{p: lift(c) for p, c in d.items()} for d in H.comult],
        tuple(map(lift, H.counit)), [{i: lift(c) for i, c in col.items()} for col in H.antipode],
        None if H.grouplike_vectors is None
        else [tuple(map(lift, g)) for g in H.grouplike_vectors],
        H.grading)


def tensor(H1: HopfAlgebraData, H2: HopfAlgebraData) -> HopfAlgebraData:
    """Componentwise Hopf structure on H1 tensor H2."""
    m = lcm(H1.conductor, H2.conductor)
    A, B = lift_algebra(H1, m), lift_algebra(H2, m)
    N1, N2 = A.dim, B.dim

    def idx(i1, i2):
        return i1 * N2 + i2

    mult, mult2 = {}, B.mult_table
    for (i1, j1), v1 in A.mult_table.items():
        for (i2, j2), v2 in mult2.items():
            vec = {}
            for k1, c1 in v1.items():
                for k2, c2 in v2.items():
                    vec[idx(k1, k2)] = c1 * c2
            mult[(idx(i1, i2), idx(j1, j2))] = vec
    comult = []
    for k1 in range(N1):
        for k2 in range(N2):
            d = {}
            for (a1, b1), c1 in A.comult[k1].items():
                for (a2, b2), c2 in B.comult[k2].items():
                    d[(idx(a1, a2), idx(b1, b2))] = c1 * c2
            comult.append(d)
    unit = tuple(A.unit[i1] * B.unit[i2] for i1 in range(N1) for i2 in range(N2))
    counit = tuple(A.counit[i1] * B.counit[i2] for i1 in range(N1) for i2 in range(N2))
    antipode = [{idx(i1, i2): c1 * c2 for i1, c1 in s1.items() for i2, c2 in s2.items()}
                for s1 in A.antipode for s2 in B.antipode]
    grouplikes = None
    if A.grouplike_vectors is not None and B.grouplike_vectors is not None:
        grouplikes = [tuple(x * y for x in g1 for y in g2)
                      for g1 in A.grouplike_vectors for g2 in B.grouplike_vectors]
    grading = None
    if A.grading is not None and B.grading is not None:
        grading = [A.grading[i1] + B.grading[i2] for i1 in range(N1) for i2 in range(N2)]
    return HopfAlgebraData._trusted(
        f"{H1.name}(x){H2.name}", N1 * N2, m,
        [f"{a}|{b}" for a in A.basis_labels for b in B.basis_labels],
        mult, unit, comult, counit, antipode, grouplikes, grading)


# -- antipode order, grouplikes -----------------------------------------------

def s2_order(H: HopfAlgebraData) -> int:
    """Smallest k with (S^2)^k = Id, scanned on the sparse columns of S^2.

    Radford: S^(4 dim H) = Id, so the order divides 2 dim H, and a scan
    that passes 2 dim H proves H is not a Hopf algebra.  The scan caches
    the columns of S^2 and of the power just before the identity, S^-2;
    every other power of S is read off them.
    """
    if "s2_order" in H._cache:
        return H._cache["s2_order"]
    s2 = [apply_columns(H.antipode, col) for col in H.antipode]
    identity = [{j: H.one_scalar} for j in range(H.dim)]
    previous, power = identity, s2
    for k in range(1, 2 * H.dim + 1):
        if power == identity:
            H._cache.update(s2_order=k, s2_columns=s2, sinv2_columns=previous)
            return k
        previous, power = power, [apply_columns(s2, col) for col in power]
    raise OrderSearchExhausted(
        f"(S^2)^k is not the identity on {H.name} for any k <= 2 dim = "
        f"{2 * H.dim}, against Radford's S^(4 dim H) = Id: not a Hopf algebra")


def is_grouplike(g: AlgebraElement) -> bool:
    """Delta(g) = g tensor g and counit(g) = 1, checked exactly."""
    if g.counit() != 1:
        return False
    return g.comul() == TensorElement.from_elements(g, g)


def element_order(g: AlgebraElement) -> int:
    """Smallest k >= 1 with g^k = 1, for a grouplike g.

    Nichols-Zoeller: ord(g) divides |G(H)|, which divides dim H, so a
    scan that passes dim H proves g is not a grouplike of a Hopf algebra.
    """
    H = g.parent
    unit = H.unit_element()
    power = g
    for k in range(1, H.dim + 1):
        if power == unit:
            return k
        power = power * g
    raise OrderSearchExhausted(
        f"g^k is not 1 in {H.name} for any k <= dim = {H.dim}, against "
        "Nichols-Zoeller's ord(g) | dim H: g is not a grouplike")


def _right_powers(a: AlgebraElement) -> Iterator[SparseVec]:
    """1, a, ..., a^n for n = dim H, lazily, by right multiplication by a on
    Kronecker-packed integers (`scalars._Ring`): x_(k+1) = sum_p x_k[p] (e_p a).

    The column e_p a is formed once, when a power first reaches p
    (`mul_dicts`: a double forms only the units it reads), as integer
    coordinates over its own denominator d_p (`scalars._integers`), and kept
    packed at the width B.  x_k is held as integer coordinates over one
    denominator D_k, its content divided out.  With L the lcm of the d_p
    over the support of x_k, a step adds the products of w_p = x_k[p] L / d_p
    and the packed column p, and decodes each entry once (`_Ring.combine`):
    x_(k+1) = that sum / (D_k L).

    Exactness guard.  The packed values stand for elements of Z[x]/(x^m - 1)
    with no digit past phi(m) - 1, so each digit of a product of two of them
    is a sum of at most phi(m) products of digits, and each digit of an
    entry of the sum is at most phi(m) sum_p height(w_p) height(column p).
    `_Ring.unpack` is exact while that is below 2^(B-1), so a step widens B,
    and packs the columns again, whenever the bound reaches it.
    """
    H, m = a.parent, a.parent.conductor
    phi, one = euler_phi(m), H.one_scalar
    columns: dict = {}  # p -> (d_p, {j: coordinates of d_p (e_p a)[j]}, their height)
    packed, ring = {}, _ring(_WIDTH_QUANTUM, m)  # packed[p] = [(j, column p packed)]
    den, x = _integers(H.unit_element().data)
    for _ in range(H.dim + 1):
        yield {p: _canonical(m, tuple(c), den) for p, c in x.items()}
        for p in x:
            if p not in columns:
                cden, col = _integers(H.mul_dicts({p: one}, a.data))
                columns[p] = cden, col, _height(col.values())
        lden = lcm(*(columns[p][0] for p in x))
        weights = {p: [v * (lden // columns[p][0]) for v in c] for p, c in x.items()}
        bound = phi * sum(_height([w]) * columns[p][2] for p, w in weights.items())
        if bound >> (ring.width - 1):
            ring, packed = _ring(_width_for(bound), m), {}
        for p in weights:
            if p not in packed:
                packed[p] = [(j, pack(c, ring.width)) for j, c in columns[p][1].items()]
        den, [x] = _lowest_terms(den * lden, [ring.combine(
            (pack(w, ring.width), packed[p]) for p, w in weights.items())])


def element_minimal_polynomial(a: AlgebraElement | TensorElement) -> ExactPolynomial:
    """Minimal polynomial of an algebra or tensor element, from its power sequence.

    The first linear dependence among 1, a, a^2, ... is the minimal
    polynomial of a (equivalently of its left-regular matrix, which is
    faithful in a unital algebra).  The powers of an algebra element are
    `_right_powers`; those of a tensor element, 1, a, ..., a^n with n =
    dim H^arity, are its products (`TensorElement.__mul__`).
    """
    if isinstance(a, AlgebraElement):
        return first_dependence(_right_powers(a), a.parent.conductor)
    one = TensorElement.unit(a.parent, a.arity)
    return first_dependence((p.data for p in accumulate(
        repeat(a, a.parent.dim ** a.arity), mul, initial=one)), a.parent.conductor)


def element_inverse(a: AlgebraElement | TensorElement) -> AlgebraElement | TensorElement | None:
    """The two-sided inverse of a from its minimal polynomial, or None.

    In a finite-dimensional unital algebra a is invertible exactly when its
    minimal polynomial a^d + c_(d-1) a^(d-1) + ... + c_1 a + c_0 has c_0 != 0;
    then a^-1 = -c_0^-1 (a^(d-1) + c_(d-1) a^(d-2) + ... + c_1), by Horner.
    Both products with a are checked against the unit.
    """
    c = element_minimal_polynomial(a).coeffs
    if c[0].is_zero():
        return None
    one = inv = (a.parent.unit_element() if isinstance(a, AlgebraElement)
                 else TensorElement.unit(a.parent, a.arity))
    for ci in reversed(c[1:-1]):
        inv = inv * a + one.scale(ci)
    inv = inv.scale(-c[0].inverse())
    if a * inv != one or inv * a != one:
        raise AssertionError("the inverse read off the minimal polynomial fails its check")
    return inv


@dataclass
class GrouplikeSet:
    """A verified, multiplicatively closed set of grouplike elements."""

    parent: HopfAlgebraData
    elements: list[AlgebraElement] = field(default_factory=list)

    @classmethod
    def build(cls, parent: HopfAlgebraData,
              vectors: Iterable[Sequence]) -> "GrouplikeSet":
        elements = [parent.element(v) for v in vectors]
        seen = set(elements)
        for el in elements:
            if not is_grouplike(el):
                raise ValueError(f"declared grouplike is not grouplike: {el!r}")
        for a in elements:
            for b in elements:
                if a * b not in seen:
                    raise ValueError("grouplike set is not closed under products")
            if a.antipode() not in seen:
                raise ValueError("grouplike set is not closed under inverses")
        return cls(parent, elements)

    def exponent(self) -> int:
        return lcm(*(element_order(g) for g in self.elements))

    def __len__(self):
        return len(self.elements)


# -- Hopf subalgebra closure ----------------------------------------------------

def _closure_basis(H: HopfAlgebraData, generators: Sequence[AlgebraElement]
                   ) -> tuple[SpanSolver, list[SparseVec]]:
    """The span of the smallest Hopf subalgebra containing the generators,
    and its basis: the unit, then the independent vectors in insertion order.

    Alternates linear closure passes under multiplication, both
    comultiplication legs, and the antipode until the dimension
    stabilizes.  The passes are semi-naive: from the second pass on, only
    the pairs (a, b) with a or b added in the previous pass are
    multiplied, and S and the legs of Delta are applied only to those
    new vectors.  This changes neither the basis nor its order.  A pair
    of older vectors was a candidate in the pass just after the later of
    the two was added, as was S or a leg of an older vector, so such a
    candidate already lies in the span, which only grows; inserting it
    again would be a no-op.  The remaining candidates keep their loop
    order.
    """
    space = SpanSolver(H.conductor)
    basis: list[SparseVec] = []

    def insert(vec: SparseVec) -> None:
        if space.insert(vec) is None:
            basis.append(vec)

    insert(H.unit_element().data)
    for g in generators:
        if g.parent is not H:
            raise ValueError("generator from a different algebra")
        insert(g.data)

    fresh = 0  # basis[fresh:] was added by the last pass (or is the input)
    while fresh < len(basis):
        candidates: list[SparseVec] = []
        for ia, sa in enumerate(basis):
            for ib, sb in enumerate(basis):
                if ia >= fresh or ib >= fresh:
                    candidates.append(H.mul_dicts(sa, sb))
            if ia < fresh:
                continue
            candidates.append(apply_columns(H.antipode, sa))
            lefts: dict[int, SparseVec] = {}
            rights: dict[int, SparseVec] = {}
            for (i, j), c in H.comul_dict(sa).items():
                dadd(lefts.setdefault(j, {}), i, c)
                dadd(rights.setdefault(i, {}), j, c)
            candidates.extend(lefts.values())
            candidates.extend(rights.values())
        fresh = len(basis)
        for cand in candidates:
            insert(cand)
    return space, basis


def subalgebra_closure(H: HopfAlgebraData,
                       generators: Sequence[AlgebraElement]) -> HopfAlgebraData:
    """Smallest Hopf subalgebra containing the generators, as standalone data.

    The sub-basis is the one of `_closure_basis`: the unit followed by the
    independent vectors in insertion order.  Coordinates on it come from
    `SpanSolver.express` as lists, whose zeros are dropped here.
    """
    space, basis = _closure_basis(H, generators)
    d = len(basis)

    def coords(vec: SparseVec) -> list[CyclotomicNumber]:
        c = space.express(vec)
        if c is None:
            raise AssertionError("closure is not closed; this is a bug")
        return c

    def sparse(vec: SparseVec) -> SparseVec:
        return {k: c for k, c in enumerate(coords(vec)) if c}

    mult = {(a, b): prod for a, va in enumerate(basis) for b, vb in enumerate(basis)
            if (prod := sparse(H.mul_dicts(va, vb)))}
    unit = tuple(coords(H.unit_element().data))
    counit = tuple(H.counit_dict(v) for v in basis)
    antipode = [sparse(apply_columns(H.antipode, v)) for v in basis]
    comult = []
    for v in basis:
        # Delta(b_a) = sum_ij c_ij e_i (x) e_j = sum_rs d_rs b_r (x) b_s: each
        # row i of (c_ij) is sum_s y_is b_s, then each column s of (y_is) is
        # sum_r d_rs b_r; the closure put every row and column in the span
        rows: dict[int, SparseVec] = {}
        for (i, j), c in H.comul_dict(v).items():
            dadd(rows.setdefault(i, {}), j, c)
        y = {i: coords(row) for i, row in rows.items()}
        dd: SparsePairs = {}
        for s in range(d):
            column = {i: yi[s] for i, yi in y.items() if not yi[s].is_zero()}
            for r, c in sparse(column).items():
                dd[(r, s)] = c
        comult.append(dd)

    return HopfAlgebraData._trusted(
        f"{H.name}<sub dim {d}>", d, H.conductor, [f"v{r}" for r in range(d)],
        mult, unit, comult, counit, antipode)
