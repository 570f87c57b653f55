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

from collections.abc import Mapping, Sequence
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
from .scalars import CyclotomicNumber, _Decoder, _ring, _spread, _width_for, euler_phi


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

    def __init__(self, N: int, bases: list, duals: list, products: list, decode: _Decoder):
        self.N = N
        self._bases, self._duals, self._products, self._decode = bases, duals, products, decode
        # the s of each cross term, and those with f_j f_s nonzero, as bit masks
        self._cross_masks = [[sum(1 << s for s in {s for s, _, _ in base}) for base in row]
                             for row in bases]
        self._dual_masks = [sum(1 << s for s, fjfs in enumerate(dual) if fjfs) for dual in duals]
        self._pairs: dict = {}  # the nonzero products of the units formed
        self._units: dict[tuple[int, int], list] = {}  # (r, l) -> its keys, q ascending
        self._table: dict | None = None

    @property
    def units_formed(self) -> int:
        return len(self._units)

    def _unit(self, i: int, l: int, j: int) -> None:
        """The nonzero products (f_j (x) e_i)(f_l (x) e_q), q ascending, into
        `_pairs`; see `drinfeld_double`."""
        N, r, keys = self.N, j * self.N + i, []
        self._units[(r, l)] = keys
        if not self._cross_masks[i][l] & self._dual_masks[j]:
            return  # no f_j f_s meets the cross term: every product is zero
        dual, left = self._duals[j], {}
        for s, b, v in self._bases[i][l]:
            fjfs = dual[s]
            if fjfs:
                row = left.get(b)
                if row is None:
                    row = left[b] = {}
                for k1, c in fjfs:
                    row[k1] = row.get(k1, 0) + v * c
        decode, products = self._decode, self._products
        shift, modulus = decode.ring.shift, decode.ring.modulus
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


class DoubleCoproduct(Sequence):
    """The coproduct of D(H), indexed like ``comult``, each row formed on
    its first read.

    D(H) is the tensor-product coalgebra of H*cop and H, so row r = j N + i
    is Delta(f_j (x) e_i) = {(b N + p, a N + q): mu[(a, b)]_j d_(p,q)}, over
    the products e_a e_b with an f_j-coefficient mu[(a, b)]_j
    (``dual_pairs[j]`` holds (b N, a N, the decoded products of that
    coefficient and each value of H.comult)) and the terms d_(p,q) e_p (x)
    e_q of Delta(e_i) (``legs[i]``, value indices into H.comult).  A row is
    formed once, by `__getitem__`; iteration forms those still missing, in
    order.  Nothing that reads only u, its powers or the products forms
    one.  Two coproducts, or a coproduct and a list, are equal when their
    rows are.
    """

    def __init__(self, N: int, dual_pairs: list, legs: dict):
        self.N, self._dual_pairs, self._legs = N, dual_pairs, legs
        self._rows: list[dict | None] = [None] * (N * N)

    @property
    def rows_formed(self) -> int:
        return sum(row is not None for row in self._rows)

    def __getitem__(self, r):
        if isinstance(r, slice):
            return [self[k] for k in range(len(self._rows))[r]]
        row = self._rows[r]
        if row is None:
            j, i = divmod(r % len(self._rows), self.N)
            row = self._rows[r] = {(bN + p, aN + q): values[w]
                                   for bN, aN, values in self._dual_pairs[j]
                                   for (p, q), w in self._legs[i]}
        return row

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return map(self.__getitem__, range(len(self._rows)))

    def __eq__(self, other):
        if isinstance(other, (list, DoubleCoproduct)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def drinfeld_double(H: HopfAlgebraData) -> QuasitriangularData:
    """D(H) with its R-matrix, on Kronecker-packed integers (`scalars._Ring`):
    the cross terms, the antipode and the coproduct's factors here, and on
    first read the products (`DoubleProducts`) and the rows of the
    coproduct (`DoubleCoproduct`).

    The product (f_j (x) e_i)(f_l (x) e_q) is f_j cross[i][l] (1 (x) e_q),
    with cross[i][l] = (1 (x) e_i)(f_l (x) 1) = sum v_(s,b) f_s (x) e_b.  By
    the cross relation, over Delta(e_i) = sum d_(a,y) e_a (x) e_y and
    Delta(e_y) = sum d_(b,c) e_b (x) e_c,

        v_(s,b) = sum d_(a,y) d_(b,c) <f_l, (Sinv(e_c) e_s) e_a>,

    each (Sinv(e_c) e_s) e_a formed once.  The values of H's products
    (`HopfAlgebraData.mult_index`), of its coproducts, whose transpose gives
    the dual products f_j f_s = sum_k1 Delta-coefficients f_k1
    (`comult_index`), and of S and Sinv (one new `hopf.index_rows`) are each
    held over their own common denominator and packed at width B.  The
    cross terms stay packed, and each entry is decoded once (`_Decoder`),
    to drop the zeros.  Then

        left[b][k1] = sum_s v_(s,b) (f_j f_s)[k1],
        product[k1 N + k2] = sum_b left[b][k1] (e_b e_q)[k2],
        S_D(f_j (x) e_i) = (1 (x) S(e_i))((Sinv)^T f_j (x) 1)
                         = sum_p sum_l S(e_i)_p Sinv(e_l)_j cross[p][l]

    are int multiply-adds over the nonzero terms, and each entry is decoded
    once per distinct residue.

    Exactness guard.  A packed value stands for an element of
    Z[x]/(x^m - 1), m the conductor; the digits of a table value are the
    power-basis coordinates of the value times its table's denominator, so
    they are zero past phi(m) - 1.  Each digit of a product of elements with
    digits at most A and C is then at most m A C, or phi(m) A C when one
    factor is a table value, and a sum adds the bounds.  With h_T the
    largest absolute coordinate in table T, and the largest sums of heights
    sigma over a column of Sinv, kappa over the k of (e_k e_a)[l], tau_1
    over a Delta(e_i) and tau_2 over the c of a Delta(e_y)[b, c], the digits
    of Sinv(e_c) e_s, of (Sinv(e_c) e_s) e_a and of a cross term are at most
    phi sigma h_mult, phi^2 sigma h_mult kappa and h_cross = m phi^3 sigma
    h_mult kappa tau_1 tau_2 (each d_(a,y) d_(b,c) is multiplied out
    first).  left[b][k1] has at most N terms, and a product entry at most N
    terms of left times a value of H.mult, so its digits are at most
    phi^2 N^2 h_cross h_comult h_mult.  An entry of S_D has digits at most
    m phi h_cross sigma_S rho, sigma_S the largest sum of heights over a
    column of S and rho that over a row of Sinv; a coproduct entry, a
    product of a value of H.mult and one of H.comult, at most
    phi h_comult h_mult.  `_Ring.unpack` is exact while the largest bound
    is below 2^(B-1), and B is the least multiple of 32 bits for which it
    is (`_width_for`).
    """
    N = H.dim
    ND = N * N
    m = H.conductor
    phi = euler_phi(m)
    mrows, mvalues = H.mult_index
    legs, dual_rows, dvalues = H.comult_index
    # S(e_i) = srows[0][i] and Sinv(e_c) = srows[1][c], over one index
    srows, svalues = index_rows(((k, i), col) for k, cols in enumerate((H.antipode, H.antipode_inv))
                                for i, col in enumerate(cols))
    sinv_rows: list[list] = [[] for _ in range(N)]  # sinv_rows[j] = [(l, Sinv(e_l)_j)]
    for l, col in srows[1].items():
        for j, x in col:
            sinv_rows[j].append((l, x))
    hs, hm, hd = svalues.heights, mvalues.heights, dvalues.heights
    # sigma and rho, the column and row sums of heights of Sinv; see the docstring
    sigma, rho = _spread(sinv_rows, hs), _spread(srows[1].values(), hs)
    h_cross = (m * phi ** 3 * sigma * mvalues.height
               * max(_spread((row[a] for row in mrows.values() if a in row), hm) for a in range(N))
               * max(sum(hd[x] for _, x in entries) for entries in legs.values())
               * max(_spread([[(b, x) for (b, _), x in entries]], hd) for entries in legs.values()))
    sigma_s = max(sum(hs[x] for _, x in col) for col in srows[0].values())  # over S
    width = _width_for(phi * h_cross * max(phi * ND * dvalues.height * mvalues.height,
                                           m * sigma_s * rho))
    ring = _ring(width, m)
    svals, dvals, mvals = svalues.at(width), dvalues.at(width), mvalues.at(width)
    shift, modulus = ring.shift, ring.modulus
    canon: dict = {}  # every stored coefficient is interned: one object per value
    cross_den = svalues.den * mvalues.den ** 2 * dvalues.den ** 2
    empty: dict = {}

    def times(vec, a: int) -> list:
        """The packed vector vec e_a, each entry folded."""
        out: dict[int, int] = {}
        for k, z in vec:
            for l, x in mrows.get(k, empty).get(a, ()):
                out[l] = out.get(l, 0) + z * mvals[x]
        return [(l, (z & modulus) + (z >> shift)) for l, z in out.items()]

    # cross[i][l] = bases[i][l] = [(s, b, v_(s,b))], v packed and nonzero
    flanked: dict[tuple[int, int], list] = {}  # (a, c) -> [Sinv(e_c) e_s e_a for each s]
    nonzero, shared = _Decoder(ring, cross_den, {}), {}  # shared: one int per residue
    bases = []
    for i in range(N):
        cross: list[dict] = [{} for _ in range(N)]
        for (a, y), x1 in legs[i]:
            for (b, c), x2 in legs[y]:
                rows = flanked.get((a, c))
                if rows is None:
                    sinv = [(t, svals[x]) for t, x in srows[1][c]]
                    rows = flanked[a, c] = [times(times(sinv, s), a) for s in range(N)]
                w = ((z := dvals[x1] * dvals[x2]) & modulus) + (z >> shift)
                for s, row in enumerate(rows):
                    for l, z in row:
                        dest = cross[l]
                        dest[s, b] = dest.get((s, b), 0) + w * z
        bases.append([[(s, b, shared.setdefault(r, r)) for (s, b), v in dest.items()
                       if nonzero[r := v % modulus] is not None] for dest in cross])
    # duals[j][s] = f_j f_s and products[b] = [(q, e_b e_q)], nonzero and packed
    duals = [[()] * N for _ in range(N)]
    for s, row in dual_rows.items():
        for j, entries in row.items():
            duals[j][s] = [(k1, dvals[i]) for k1, i in entries]
    products = [[(q, [(k2, mvals[i]) for k2, i in entries])
                 for q, entries in mrows.get(b, {}).items()] for b in range(N)]

    decode = _Decoder(ring, cross_den * dvalues.den * mvalues.den, canon)
    mult = DoubleProducts(N, bases, duals, products, decode)

    # coalgebra structure: tensor-product coalgebra of H*cop and H, whose
    # entries are the products of one value of H.mult and one of H.comult;
    # its rows wait in DoubleCoproduct until something reads them
    pair_decode = _Decoder(ring, mvalues.den * dvalues.den, canon)
    pair = [[pair_decode[x * y % modulus] for y in dvals] for x in mvals]
    # Delta_{H*cop}(f_j): (b, a) with coefficient mu[(a,b)][j], in the order of H.mult
    dual_pairs: list[list] = [[] for _ in range(N)]
    for a, b in H.mult_table:
        for j, i in mrows[a][b]:
            dual_pairs[j].append((b * N, a * N, pair[i]))
    comult = DoubleCoproduct(N, dual_pairs, legs)

    unit = tuple(H.counit[j] * H.unit[i] for j in range(N) for i in range(N))
    counit = tuple(H.unit[j] * H.counit[i] for j in range(N) for i in range(N))

    # antipode from the cross terms (see the docstring)
    antipode_decode = _Decoder(ring, svalues.den ** 2 * cross_den, canon)
    antipode = []
    for j in range(N):
        for i in range(N):
            acc: dict[int, int] = {}
            for p, x in srows[0][i]:
                for l, y in sinv_rows[j]:
                    xy = ((z := svals[x] * svals[y]) & modulus) + (z >> shift)
                    for s, b, v in bases[p][l]:
                        key = s * N + b
                        acc[key] = acc.get(key, 0) + xy * v
            antipode.append({k: c for k, z in acc.items()
                             if (c := antipode_decode[z % modulus]) is not None})

    D = HopfAlgebraData._trusted(
        name=f"D({H.name})", dim=ND, conductor=m,
        basis_labels=[f"{H.basis_labels[j]}^|{H.basis_labels[i]}"
                      for j in range(N) for i in range(N)],
        mult=mult, unit=unit, comult=comult, counit=counit, antipode=antipode,
    )

    # R = sum_i (eps (x) e_i) (x) (f_i (x) 1): distinct keys, nonzero products
    eps_sparse = [(j, e) for j, e in enumerate(H.counit) if not e.is_zero()]
    unit_sparse = H.unit_element().data.items()
    R = TensorElement._trusted(D, 2, {(j * N + i, i * N + p): e * u for i in range(N)
                                      for j, e in eps_sparse for p, u in unit_sparse})
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
