"""The Drinfeld double D(H) = H*cop (x) H and its R-matrix.

The double's basis element at index j*N + i is f_j (x) h_i, where f_j
is the dual basis of H* (the dual index varies slower).  The cross
relation used is

    (f (x) h)(f' (x) h') = f (h1 -> f' <- Sinv(h3)) (x) h2 h',

with -> and <- the left and right hit actions of H on H*.  Whatever
convention is chosen must pass the quasitriangularity checks and the
S^2-by-conjugation identity; those checks are run on every preset.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product

from .hopf import (
    AlgebraElement,
    HopfAlgebraData,
    TensorElement,
    dadd,
    element_inverse,
    element_minimal_polynomial,
    first_failure,
    index_rows,
    placed_product,
)
from .linalg import ExactMatrix, dense
from .scalars import CyclotomicNumber, _Decoder, _width_for


@dataclass
class QuasitriangularData:
    """A Drinfeld double with its universal R-matrix."""

    algebra: HopfAlgebraData
    R: TensorElement
    source: HopfAlgebraData
    _cache: dict = field(default_factory=dict, repr=False)

    def iota_primal(self, h: AlgebraElement) -> AlgebraElement:
        """Embed an element of H as epsilon (x) h in the double."""
        if h.parent is not self.source:
            raise ValueError("element does not belong to the source algebra")
        H = self.source
        N = H.dim
        data = {}
        for i, c in h.data.items():
            for j, e in enumerate(H.counit):
                if not e.is_zero():
                    dadd(data, j * N + i, c * e)
        return AlgebraElement(self.algebra, data)


class DoubleProducts(Mapping):
    """The products of basis elements of D(H), keyed like ``mult``, each
    formed on its first read.

    They are formed in units, by one kernel, `_unit`.  A unit is a row
    r = j N + i of D with a dual index l: the N products
    (f_j (x) e_i)(f_l (x) e_q), q < N.  `get` and ``[]`` form the unit of a
    pair on its first miss, so an unformed pair is never read as zero; a
    miss on a formed unit is a zero product.  Iteration and ``len`` walk
    the units in the order i, l, j, form those still missing, and lay every
    product out in the plain dict `table`, in the order of a full build:
    i, l, then j, then q ascending.  From then on `get` is that dict's own.
    """

    def __init__(self, N: int, bases: list, duals: list, products: list, shift: int,
                 decode: _Decoder):
        self.N = N
        self._bases, self._duals, self._products = bases, duals, products
        self._shift, self._modulus, self._decode = shift, (1 << shift) - 1, decode
        self._pairs: dict = {}  # the nonzero products of the units formed
        self._units: dict[tuple[int, int], list] = {}  # (r, l) -> its keys, q ascending
        self._table: dict | None = None

    @property
    def units_formed(self) -> int:
        return len(self._units)

    def _unit(self, i: int, l: int, j: int) -> None:
        """The nonzero products (f_j (x) e_i)(f_l (x) e_q), q ascending, into
        `_pairs`; see `drinfeld_double`."""
        dual, left = self._duals[j], {}
        for s, b, v in self._bases[i][l]:
            fjfs = dual[s]
            if fjfs:
                row = left.get(b)
                if row is None:
                    row = left[b] = {}
                for k1, c in fjfs:
                    row[k1] = row.get(k1, 0) + v * c
        N, r, keys = self.N, j * self.N + i, []
        self._units[(r, l)] = keys
        if not left:  # no f_j f_s meets the cross term: every product is zero
            return
        shift, modulus, decode, products = self._shift, self._modulus, self._decode, self._products
        outs: dict[int, dict[int, int]] = {}
        for b, row in left.items():
            folded = [(k1 * N, (z & modulus) + (z >> shift)) for k1, z in row.items()]
            for q, pvec in products[b]:
                acc = outs.get(q)
                if acc is None:
                    acc = outs[q] = {}
                for k1N, x in folded:
                    for k2, y in pvec:
                        key = k1N + k2
                        acc[key] = acc.get(key, 0) + x * y
        lN, pairs = l * N, self._pairs
        for q in sorted(outs):
            vec = {key: c for key, z in outs[q].items() if (c := decode[z % modulus]) is not None}
            if vec:
                keys.append(key := (r, lN + q))
                pairs[key] = vec

    def get(self, key, default=None):
        vec = self._pairs.get(key)
        if vec is not None:
            return vec
        N = self.N
        try:
            r, c = key
            unit = (r, c // N)
            if unit in self._units or not (0 <= r < N * N and 0 <= c < N * N):
                return default
        except (TypeError, ValueError):
            return default
        self._unit(r % N, unit[1], r // N)
        return self._pairs.get(key, default)

    def table(self) -> dict[tuple[int, int], dict[int, CyclotomicNumber]]:
        """Every product, as a plain dict in the order of a full build; the
        vectors already read stay the same objects."""
        if self._table is None:
            N, units, formed = self.N, self._units, self._pairs
            self._pairs = pairs = {}
            for i in range(N):
                for l in range(N):
                    for j in range(N):
                        keys = units.get((j * N + i, l))
                        if keys is None:
                            self._unit(i, l, j)
                        else:
                            for key in keys:
                                pairs[key] = formed[key]
            self._table = pairs
            self.get = pairs.get  # an instance attribute: reads skip the class
        return self._table

    def __getitem__(self, key):
        vec = self.get(key)
        if vec is None:
            raise KeyError(key)
        return vec

    def __iter__(self):
        return iter(self.table())

    def __len__(self) -> int:
        return len(self.table())


def drinfeld_double(H: HopfAlgebraData) -> QuasitriangularData:
    """D(H) with its R-matrix; the products and the coproduct are formed on
    Kronecker-packed integers (`scalars.pack`), the products on first read
    (`DoubleProducts`).

    The product (f_j (x) e_i)(f_l (x) e_q) is f_j cross[i][l] (1 (x) e_q),
    with cross[i][l] = (1 (x) e_i)(f_l (x) 1) = sum v_(s,b) f_s (x) e_b.
    The cross terms, the dual products f_j f_s = sum_k1 Delta-coefficients
    f_k1 and the products e_b e_q of H are each held over their own common
    denominator, as indices into their distinct values: those of H from
    the index H keeps (`HopfAlgebraData.comult_index`, `mult_index`), the
    cross terms in a new one (`hopf.index_rows`).  They are packed at
    width B; then

        left[b][k1] = sum_s v_(s,b) (f_j f_s)[k1],
        product[k1 N + k2] = sum_b left[b][k1] (e_b e_q)[k2]

    are int multiply-adds, over the nonzero products e_b e_q only, and each
    entry is decoded once per distinct residue (`_Decoder`).  The packing,
    the width B, the coproduct, the antipode and R are formed here; the
    products wait in `DoubleProducts` until something reads them.

    Exactness guard.  A packed value stands for an element of
    Z[x]/(x^m - 1), m the conductor: the power-basis coordinates of the
    value times its table's denominator, with digits at most h_cross,
    h_dual or h_mult, the largest absolute coordinate in each table.  Each
    digit of a product of elements with digits at most A and C is a sum of
    m products of digits, so it is at most m A C, and a sum adds the
    bounds.  left[b][k1] has at most N terms, so its digits are at most
    N m h_cross h_dual; a product entry has at most N terms of left times
    a product of H, so its digits are at most m^2 N^2 h_cross h_dual
    h_mult.  `unpack` is exact while that bound is below 2^(B-1), and B
    is the least multiple of 32 bits for which it is (`_width_for`).  The
    folds z -> (z & M) + (z >> Bm) and the reduction mod M = 2^(Bm) - 1
    keep the residue mod M, which is all `unpack` reads.  The coproduct
    entries are single products of a value of H.mult and one of H.comult,
    digits at most m h_dual h_mult, below the same bound (an empty table
    counts with height 1).

    The antipode is read off the cross terms as well: S_D(f_j (x) e_i) =
    (1 (x) S(e_i))((Sinv)^T f_j (x) 1) = sum_p sum_l S(e_i)_p Sinv(e_l)_j
    cross[p][l], in exact scalars, each value interned like the product's.
    """
    N = H.dim
    ND = N * N
    m = H.conductor
    one = H.one_scalar
    sinv_cols = H.antipode_inv

    # Delta3(e_i): triples (a, b, c) -> coeff
    delta3 = [TensorElement._trusted(H, 2, d).comult_leg(1).data for d in H.comult]

    # cross[i][l]: (1 (x) h_i)(f_l (x) 1) as {(dual k1, primal k2): coeff}
    # term for each triple (a,b,c): (e_a -> f_l <- Sinv(e_c)) (x) e_b,
    # and (e_a -> f_l <- Sinv(e_c)) has f_s-coefficient
    # <f_l, Sinv(e_c) e_s e_a>.
    act_cache: dict[tuple[int, int], list] = {}

    def acted(a: int, c: int):
        """For the pair (a, c): acted[l] = sparse dual vector over s."""
        key = (a, c)
        if key not in act_cache:
            rows = [dict() for _ in range(N)]
            left = sinv_cols[c]
            for s in range(N):
                prod = H.mul_dicts(H.mul_dicts(left, {s: one}), {a: one})
                for l, v in prod.items():
                    rows[l][s] = v
            act_cache[key] = rows
        return act_cache[key]

    cross = [[{} for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for (a, b, c), gamma in delta3[i].items():
            rows = acted(a, c)
            for l in range(N):
                dest = cross[i][l]
                for s, v in rows[l].items():
                    dadd(dest, (s, b), gamma * v)

    # the cross terms indexed over their distinct values, beside H's own index
    crows, cvalues = index_rows(((i, l), base) for i, row in enumerate(cross)
                                for l, base in enumerate(row))
    mrows, mvalues = H.mult_index
    legs, dual_rows, dvalues = H.comult_index
    width = _width_for(m * m * ND * max(cvalues.height, 1) * max(dvalues.height, 1)
                       * max(mvalues.height, 1))
    cvals, dvals, mvals = cvalues.at(width), dvalues.at(width), mvalues.at(width)
    shift = width * m
    modulus = (1 << shift) - 1
    # every stored coefficient is interned: one object per distinct value
    canon: dict = {}
    decode = _Decoder(width, m, cvalues.den * dvalues.den * mvalues.den, canon)

    bases = [[[(s, b, cvals[c]) for (s, b), c in base] for base in row.values()]
             for row in crows.values()]
    # duals[j][s] = f_j f_s and products[b] = [(q, e_b e_q)], nonzero and packed
    duals = [[()] * N for _ in range(N)]
    for s, row in dual_rows.items():
        for j, entries in row.items():
            duals[j][s] = [(k1, dvals[i]) for k1, i in entries]
    products = [[(q, [(k2, mvals[i]) for k2, i in entries])
                 for q, entries in mrows.get(b, {}).items()] for b in range(N)]

    mult = DoubleProducts(N, bases, duals, products, shift, decode)

    # coalgebra structure: tensor-product coalgebra of H*cop and H, whose
    # entries are the products of one value of H.mult and one of H.comult
    pair_decode = _Decoder(width, m, mvalues.den * dvalues.den, canon)
    pair = [[pair_decode[x * y % modulus] for y in dvals] for x in mvals]
    # Delta_{H*cop}(f_j): (b, a) with coefficient mu[(a,b)][j], in the order of H.mult
    dual_pairs: list[list] = [[] for _ in range(N)]
    for a, b in H.mult_table:
        for j, i in mrows[a][b]:
            dual_pairs[j].append((b * N, a * N, pair[i]))
    comult = []
    for j in range(N):
        for i in range(N):
            comult.append({(bN + p, aN + q): row[w]
                           for bN, aN, row in dual_pairs[j] for (p, q), w in legs[i]})

    unit = tuple(H.counit[j] * H.unit[i] for j in range(N) for i in range(N))
    counit = tuple(H.unit[j] * H.counit[i] for j in range(N) for i in range(N))

    # antipode from the cross terms (see the docstring)
    sinv_rows: list[list] = [[] for _ in range(N)]  # sinv_rows[j] = [(l, Sinv(e_l)_j)]
    for l, col in enumerate(sinv_cols):
        for j, c in col.items():
            sinv_rows[j].append((l, c))
    antipode = []
    for j in range(N):
        for col in H.antipode:
            acc: dict[int, CyclotomicNumber] = {}
            for p, x in col.items():
                for l, y in sinv_rows[j]:
                    xy = x * y
                    for (s, b), v in cross[p][l].items():
                        dadd(acc, s * N + b, xy * v)
            antipode.append({k: canon.setdefault((c.num, c.den), c) for k, c in acc.items()})

    D = HopfAlgebraData._trusted(
        name=f"D({H.name})", dim=ND, conductor=m,
        basis_labels=[f"{H.basis_labels[j]}^|{H.basis_labels[i]}"
                      for j in range(N) for i in range(N)],
        mult=mult, unit=unit, comult=comult, counit=counit, antipode=antipode,
    )

    r_data = {}
    eps_sparse = [(j, e) for j, e in enumerate(H.counit) if not e.is_zero()]
    unit_sparse = H.unit_element().data.items()
    for i in range(N):
        for j, e in eps_sparse:
            for p, u in unit_sparse:
                dadd(r_data, (j * N + i, i * N + p), e * u)
    R = TensorElement._trusted(D, 2, r_data)
    return QuasitriangularData(algebra=D, R=R, source=H)


def r_inverse(qt: QuasitriangularData) -> TensorElement:
    """(S (x) Id)(R), verified to be a two-sided inverse of R."""
    if "r_inverse" not in qt._cache:
        D = qt.algebra
        cand = qt.R.apply_leg(0, D.antipode)
        unit2 = TensorElement.unit(D, 2)
        if qt.R * cand != unit2 or cand * qt.R != unit2:
            raise ValueError("(S (x) Id)(R) is not inverse to R; the double is broken")
        qt._cache["r_inverse"] = cand
    return qt._cache["r_inverse"]


def verify_quasitriangular(qt: QuasitriangularData) -> list[str]:
    """Exact hexagon identities, Delta-op intertwining, and invertibility.

    Intertwining is checked only on the generating set G that `validate`
    certified for D, when it did.  In a Hopf algebra the x with
    Delta^op(x) R = R Delta(x) form a subalgebra, whatever R is:
    Delta^op(xy) R = Delta^op(x) R Delta(y) = R Delta(x) Delta(y) =
    R Delta(xy).  It contains G, so it is D.  Without G, or when some
    g fails, every basis element is checked, which names the first
    witness.
    """
    D, R = qt.algebra, qt.R
    violations = []
    try:
        r_inverse(qt)
    except ValueError:
        violations.append("R is not invertible")
    if R.comult_leg(0) != placed_product(R, (0, 2), R, (1, 2)):
        violations.append("hexagon (Delta (x) Id)(R) = R13 R23 fails")
    if R.comult_leg(1) != placed_product(R, (0, 2), R, (0, 1)):
        violations.append("hexagon (Id (x) Delta)(R) = R13 R12 fails")

    def intertwining_fails(a: int) -> str | None:
        da = TensorElement._trusted(D, 2, D.comult[a])
        if da.swap_legs(0, 1) * R != R * da:
            return f"Delta-op intertwining fails at basis {a}"
        return None

    gens = D._cache.get("certified_generators")
    if failure := first_failure(intertwining_fails, product(range(D.dim)),
                                None if gens is None else product(gens)):
        violations.append(failure)
    return violations


def drinfeld_element(qt: QuasitriangularData) -> AlgebraElement:
    """u = m21 (Id (x) S)(R)."""
    if "u" not in qt._cache:
        D = qt.algebra
        qt._cache["u"] = (
            qt.R.apply_leg(1, D.antipode).swap_legs(0, 1).multiply_legs(0))
    return qt._cache["u"]


def u_inverse(qt: QuasitriangularData) -> AlgebraElement:
    """The inverse of the Drinfeld element, by `element_inverse`."""
    if "u_inv" not in qt._cache:
        u_inv = element_inverse(drinfeld_element(qt))
        if u_inv is None:
            raise ValueError("the Drinfeld element is not invertible; the double is broken")
        qt._cache["u_inv"] = u_inv
    return qt._cache["u_inv"]


def verify_s2_conjugation(qt: QuasitriangularData,
                          u: AlgebraElement | None = None) -> bool:
    """S^2(b) u = u b for every basis element b, with u invertible.

    u is invertible exactly when its minimal polynomial has a nonzero
    constant term.  The identity is checked only on the generating set G
    that `validate` certified for D, when it did: S^2 is an algebra map
    of a Hopf algebra, so the b with S^2(b) u = u b form a subalgebra,
    S^2(ab) u = S^2(a) u b = u ab.  It contains G, so it is D.  Without
    G, or when some g fails, every basis element is checked.
    """
    D = qt.algebra
    if u is None:
        u = drinfeld_element(qt)
    if element_minimal_polynomial(u).coeffs[0].is_zero():
        return False

    def conjugation_fails(b: int) -> bool:
        return AlgebraElement(D, D.s2_columns[b]) * u != u * D.basis_element(b)

    gens = D._cache.get("certified_generators")
    return not first_failure(conjugation_fails, product(range(D.dim)),
                             None if gens is None else product(gens))


def regular_representation(A: HopfAlgebraData, a: AlgebraElement) -> ExactMatrix:
    """The matrix of left multiplication by a."""
    if a.parent is not A:
        raise ValueError("element does not belong to the algebra")
    return ExactMatrix.from_columns(
        [dense(A.mul_dicts(a.data, {k: A.one_scalar}), A.dim, A.conductor)
         for k in range(A.dim)], A.conductor)
