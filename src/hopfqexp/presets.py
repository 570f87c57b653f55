"""The preset zoo: Hopf algebras with exactly known structure constants.

Group algebras and their duals, the Sweedler algebra, Taft algebras,
and the small quantum groups u_q(b+) and u_q(sl2) at odd prime roots of
unity.  Every construction is checked downstream by the axiom
validator; presets also carry their grouplike groups and standard
gradings where those exist.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from math import lcm, prod
from pathlib import Path

from .hopf import (
    GrouplikeSet,
    HopfAlgebraData,
    dadd,
    dual,
    lift_algebra,
    tensor,
)
from .poly import _is_prime
from .scalars import CyclotomicNumber, _Packed


def _zeta(n: int, power: int = 1) -> CyclotomicNumber:
    """zeta^power for a primitive n-th root of unity zeta, at the smallest
    usable conductor; read off a table (`CyclotomicNumber.zeta`), never
    multiplied out."""
    if n <= 2:
        return CyclotomicNumber.rational((-1) ** (power % n), 1)
    return CyclotomicNumber.zeta(n, power)


def _root_conductor(n: int) -> int:
    return 1 if n <= 2 else n


@dataclass
class PresetDescriptor:
    """What to build: a preset kind and its parameters."""

    kind: str
    parameters: dict = field(default_factory=dict)


# -- group algebras -----------------------------------------------------------


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _s3_data():
    elems = list(itertools.permutations(range(3)))
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[_perm_mul(p, q)] for q in elems] for p in elems]
    labels = ["".join(str(v) for v in e) for e in elems]
    signs = [1 if sum(1 for i in range(3) for j in range(i + 1, 3)
                      if e[i] > e[j]) % 2 == 0 else -1 for e in elems]
    return table, labels, signs


def _abelian_data(orders):
    elems = list(itertools.product(*[range(n) for n in orders]))
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [index[tuple((a + b) % n for a, b, n in zip(e1, e2, orders))] for e2 in elems]
        for e1 in elems
    ]
    labels = ["g" + "".join(str(v) for v in e) for e in elems]
    return elems, table, labels


def group_algebra_from_table(table, labels=None, name="C[G]") -> HopfAlgebraData:
    """The Hopf algebra C[G] from a Cayley table (checked to be a group)."""
    n = len(table)
    if any(not isinstance(row, (list, tuple)) or len(row) != n
           or not all(type(x) is int and 0 <= x < n for x in row) for row in table):
        raise ValueError("Cayley table must be square, with entries in range(n)")
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
    ident = next((e for e in range(n)
                  if all(table[e][j] == j and table[j][e] == j for j in range(n))), None)
    if ident is None:
        raise ValueError("Cayley table has no identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise ValueError("Cayley table is not associative")
    inverse = []
    for i in range(n):
        inv = next((j for j in range(n) if table[i][j] == ident), None)
        if inv is None:
            raise ValueError("Cayley table element has no inverse")
        inverse.append(inv)

    one = CyclotomicNumber.one(1)
    mult = {(i, j): {table[i][j]: one} for i in range(n) for j in range(n)}
    comult = [{(k, k): one} for k in range(n)]
    unit = [1 if k == ident else 0 for k in range(n)]
    counit = [1] * n
    antipode = [{inverse[j]: one} for j in range(n)]
    grouplikes = [[1 if i == g else 0 for i in range(n)] for g in range(n)]
    return HopfAlgebraData(
        name=name, dim=n, conductor=1, basis_labels=labels,
        mult=mult, unit=unit, comult=comult, counit=counit, antipode=antipode,
        grouplike_vectors=grouplikes, grading=[0] * n,
    )


def abelian_group_algebra(orders, name=None) -> HopfAlgebraData:
    _, table, labels = _abelian_data(list(orders))
    if name is None:
        name = "C[" + "x".join(f"Z{n}" for n in orders) + "]"
    return group_algebra_from_table(table, labels, name)


BUILTIN_GROUP_ORDERS = {
    "Z2": [2], "Z3": [3], "Z4": [4], "Z6": [6], "Z2xZ2": [2, 2],
}


def group_algebra(group: str) -> HopfAlgebraData:
    """A builtin group algebra: Z2, Z3, Z4, Z6, Z2xZ2 or S3."""
    if group in BUILTIN_GROUP_ORDERS:
        return abelian_group_algebra(BUILTIN_GROUP_ORDERS[group], name=f"C[{group}]")
    if group == "S3":
        table, labels, _ = _s3_data()
        return group_algebra_from_table(table, labels, "C[S3]")
    raise ValueError(f"unknown builtin group: {group}")


def dual_group_algebra(group: str) -> HopfAlgebraData:
    """The function algebra on a builtin group, with its known grouplikes.

    Grouplikes of C[G]* are the one-dimensional characters of G; for
    abelian G all of them are attached, for S3 the trivial and sign
    characters.
    """
    H = dual(group_algebra(group))
    if group == "S3":
        chars = [[1] * 6, _s3_data()[2]]
    else:
        orders = BUILTIN_GROUP_ORDERS[group]
        H = lift_algebra(H, _root_conductor(lcm(*orders)))
        elems, _, _ = _abelian_data(orders)
        chars = [[_prod_root(orders, a, g, H.conductor) for g in elems] for a in elems]
    return HopfAlgebraData._trusted(
        f"C[{group}]*", H.dim, H.conductor, H.basis_labels, H.mult, H.unit, H.comult,
        H.counit, H.antipode, [tuple(map(H.scalar, row)) for row in chars])


def _prod_root(orders, a, g, conductor):
    acc = CyclotomicNumber.one(conductor)
    for n, ai, gi in zip(orders, a, g):
        z = _zeta(n)
        acc = acc * z ** ((ai * gi) % n)
    return acc


# -- presets generated by grouplikes and skew-primitives -------------------------


def _from_generators(name: str, conductor: int, labels: list[str], generators: dict,
                     grouplikes: list[int], grading: list[int]) -> HopfAlgebraData:
    """A Hopf algebra from the data of its generators.

    Basis element 0 is the unit.  ``generators`` maps the basis index of
    each generator x to (rmul, Delta(x), epsilon(x), S(x)), where rmul(k)
    is e_k x as a sparse vector.  Every other basis element must be
    reached from the unit by exact steps e_k = e_j x; then e_i e_k =
    (e_i e_j) x, and since Delta and epsilon are algebra maps and S is an
    anti-algebra map, Delta(e_k) = Delta(e_j) Delta(x), epsilon(e_k) =
    epsilon(e_j) epsilon(x) and S(e_k) = S(x) S(e_j).

    Every scalar is interned once by (num, den) as a value index, values[i];
    a vector is a tuple ((k, i), ...), and each product values[a] values[b]
    and each sum of two colliding terms is formed once, in a table keyed by
    (a, b), as is (e_i e_j) x for each distinct row e_i e_j and generator
    x.  Terms are summed in their first order and zeros dropped.  The
    tables are stored unchecked (`HopfAlgebraData._trusted`): rmul,
    Delta(x) and S(x) must hold nonzero scalars of the conductor.  The
    products are kept as its `mult_index` too, their values numbered in
    first order over ``mult``, as `index_rows` numbers them.
    """
    N = len(labels)
    one, zero = CyclotomicNumber.one(conductor), CyclotomicNumber.zero(conductor)
    values: list[CyclotomicNumber] = []
    interned: dict[tuple, int] = {}

    def intern(c: CyclotomicNumber) -> int:
        i = interned.setdefault((c.num, c.den), len(values))
        if i == len(values):
            values.append(c)
        return i

    ZERO, ONE = intern(zero), intern(one)

    def formed(op, table: dict):  # (a, b) -> the index of op(values[a], values[b])
        def form(a: int, b: int) -> int:
            c = table.get((a, b))
            if c is None:
                c = table[a, b] = intern(op(values[a], values[b]))
            return c
        return form

    mul, add = formed(operator.mul, {}), formed(operator.add, {})

    def total(terms) -> tuple:  # the sum of the (key, value index) terms
        out: dict = {}
        for key, c in terms:
            s = out.get(key)
            out[key] = c if s is None else add(s, c)
        return tuple(kc for kc in out.items() if kc[1] != ZERO)

    def entries(vec) -> tuple:
        return tuple((k, intern(c)) for k, c in vec.items())

    mult = {(i, 0): ((i, ONE),) for i in range(N)}
    for x, (rmul, _, _, _) in generators.items():
        for k in range(N):
            if row := entries(rmul(k)):
                mult[(k, x)] = row
    coalgebra = {x: (entries(dx), ex, entries(sx)) for x, (_, dx, ex, sx) in generators.items()}

    step = {}
    order = [0]  # breadth-first; the loop visits what it appends
    for j in order:
        for x in generators:
            row = mult.get((j, x), ())
            if len(row) == 1 and row[0][1] == ONE:
                k = row[0][0]
                if k not in step and k != 0:
                    step[k] = (j, x)
                    order.append(k)
    if len(order) < N:
        raise ValueError(f"{name}: some basis element is not reached from the unit "
                         "by exact generator steps")

    right: dict[tuple, tuple] = {}  # (e_i e_j, x) -> (e_i e_j) x, formed once
    for i in range(N):
        for k in order[1:]:
            j, x = step[k]
            row = mult.get((i, j), ())
            if (product := right.get((row, x))) is None:
                product = right[row, x] = total((m, mul(a, b)) for p, a in row
                                                for m, b in mult.get((p, x), ()))
            if product:
                mult[(i, k)] = product

    delta = {0: (((0, 0), ONE),)}
    eps = {0: one}
    anti = {0: ((0, ONE),)}
    for k in order[1:]:
        j, x = step[k]
        dx, ex, sx = coalgebra[x]
        delta[k] = total(((k0, k1), mul(mul(mul(u, v), a), b))
                         for (s0, s1), u in delta[j] for (t0, t1), v in dx
                         for k0, a in mult.get((s0, t0), ())
                         for k1, b in mult.get((s1, t1), ()))
        eps[k] = eps[j] * ex
        anti[k] = total((m, mul(mul(u, v), c)) for p, u in sx for q, v in anti[j]
                        for m, c in mult.get((p, q), ()))

    # the products as scalars, and indexed over the values of mult alone
    renumbered: dict[int, int] = {}
    shared: dict[tuple, tuple] = {}
    rows: dict[int, dict[int, tuple]] = {}
    for (p, q), row in mult.items():
        if (indexed := shared.get(row)) is None:
            indexed = shared[row] = tuple(
                (k, renumbered.setdefault(c, len(renumbered))) for k, c in row)
        rows.setdefault(p, {})[q] = indexed
    H = HopfAlgebraData._trusted(
        name, N, conductor, labels,
        {key: {k: values[c] for k, c in row} for key, row in mult.items()},
        (one,) + (zero,) * (N - 1),
        [{kk: values[c] for kk, c in delta[k]} for k in range(N)],
        tuple(eps[k] for k in range(N)),
        [{m: values[c] for m, c in anti[k]} for k in range(N)],
        [tuple(one if k == g else zero for k in range(N)) for g in grouplikes], grading)
    H._cache["mult_index"] = rows, _Packed((values[c].num, values[c].den) for c in renumbered)
    return H


def _power_label(symbol: str, e: int) -> str:
    return "" if e == 0 else (symbol if e == 1 else f"{symbol}^{e}")


def taft(n: int, name: str | None = None) -> HopfAlgebraData:
    """The n^2-dimensional Taft algebra.

    Generators: a grouplike g with g^n = 1 and a skew-primitive x with
    x^n = 0, gx = zeta_n xg, Delta(x) = x tensor g + 1 tensor x.  Basis
    g^a x^b at index a*n + b.
    """
    if n < 2:
        raise ValueError("Taft algebras need n >= 2")
    conductor = _root_conductor(n)
    q = _zeta(n)
    one = CyclotomicNumber.one(conductor)
    g, x, g_inv = n, 1, (n - 1) * n

    def rmul_g(k):
        # g^a x^b g = q^-b g^(a+1) x^b
        a, b = divmod(k, n)
        return {(a + 1) % n * n + b: _zeta(n, -b)}

    def rmul_x(k):
        return {k + 1: one} if (k + 1) % n else {}

    generators = {
        g: (rmul_g, {(g, g): one}, 1, {g_inv: one}),
        # S(x) = -x g^-1 = -q g^(n-1) x
        x: (rmul_x, {(x, g): one, (0, x): one}, 0, {g_inv + x: -q}),
    }
    labels = [_power_label("g", a) + _power_label("x", b) or "1"
              for a in range(n) for b in range(n)]
    return _from_generators(name or f"Taft({n})", conductor, labels, generators,
                            [a * n for a in range(n)], [b for a in range(n) for b in range(n)])


def sweedler() -> HopfAlgebraData:
    """The 4-dimensional Sweedler algebra (the Taft case n = 2)."""
    return taft(2, name="Sweedler")


def _check_quantum_p(p: int) -> None:
    if p < 3 or not _is_prime(p):
        raise ValueError("quantum presets need an odd prime p >= 3")


def uq_borel_sl2(p: int) -> HopfAlgebraData:
    """The Borel part u_q(b+) of u_q(sl2) at q = zeta_p, dimension p^2.

    Generators E, K with K^p = 1, E^p = 0, KE = q^2 EK,
    Delta(E) = E tensor K + 1 tensor E.  Basis E^a K^c at index a*p + c.
    """
    _check_quantum_p(p)
    q = _zeta(p)
    one = CyclotomicNumber.one(p)
    E, K, K_inv = p, 1, p - 1

    def rmul_e(k):
        # E^a K^c E = q^2c E^(a+1) K^c
        return {k + p: _zeta(p, 2 * (k % p))} if k + p < p * p else {}

    def rmul_k(k):
        return {k - k % p + (k + 1) % p: one}

    generators = {
        E: (rmul_e, {(E, K): one, (0, E): one}, 0, {E + K_inv: -one}),
        K: (rmul_k, {(K, K): one}, 1, {K_inv: one}),
    }
    labels = [_power_label("E", a) + _power_label("K", c) or "1"
              for a in range(p) for c in range(p)]
    return _from_generators(f"uq_borel_sl2({p})", p, labels, generators,
                            list(range(p)), [a for a in range(p) for c in range(p)])


def uq_sl2(p: int) -> HopfAlgebraData:
    """The small quantum group u_q(sl2) at q = zeta_p, dimension p^3.

    Generators e, f, K with K^p = 1, e^p = f^p = 0, KeK^-1 = q^2 e,
    KfK^-1 = q^-2 f, [e, f] = (K - K^-1)/(q - q^-1); Delta(e) =
    e tensor K + 1 tensor e, Delta(f) = f tensor 1 + K^-1 tensor f.
    PBW basis e^a f^b K^c at index (a*p + b)*p + c.
    """
    _check_quantum_p(p)
    q = _zeta(p)
    one = CyclotomicNumber.one(p)
    lam = (q - _zeta(p, -1)).inverse()
    e, f, K, K_inv = p * p, p, 1, p - 1

    def mono(k):
        return k // (p * p), k // p % p, k % p

    def rmul_k(k):
        return {k - k % p + (k + 1) % p: one}

    def rmul_f(k):
        # e^a f^b K^c f = q^-2c e^a f^(b+1) K^c
        return {k + p: _zeta(p, -2 * (k % p))} if mono(k)[1] + 1 < p else {}

    # f^b e in normal form, by f^b e = (f^(b-1) e) f - lam f^(b-1) K + lam f^(b-1) K^-1
    fe = [{e: one}]
    for b in range(1, p):
        nxt = {}
        for k, v in fe[-1].items():
            for m, w in rmul_f(k).items():
                dadd(nxt, m, v * w)
        dadd(nxt, (b - 1) * p + K, -lam)
        dadd(nxt, (b - 1) * p + K_inv, lam)
        fe.append(nxt)

    def rmul_e(k):
        # e^a f^b K^c e = q^2c e^a (f^b e) K^c
        a, b, c = mono(k)
        out = {}
        for m, w in fe[b].items():
            a2, b2, c2 = mono(m)
            if a + a2 < p:
                dadd(out, ((a + a2) * p + b2) * p + (c2 + c) % p, _zeta(p, 2 * c) * w)
        return out

    generators = {
        e: (rmul_e, {(e, K): one, (0, e): one}, 0, {e + K_inv: -one}),
        # S(f) = -Kf = -q^-2 f K
        f: (rmul_f, {(f, 0): one, (K_inv, f): one}, 0, {f + K: -_zeta(p, -2)}),
        K: (rmul_k, {(K, K): one}, 1, {K_inv: one}),
    }
    labels = [_power_label("e", a) + _power_label("f", b) + _power_label("K", c) or "1"
              for a in range(p) for b in range(p) for c in range(p)]
    return _from_generators(f"uq_sl2({p})", p, labels, generators, list(range(p)),
                            [a - b for a in range(p) for b in range(p) for c in range(p)])


def trivial() -> HopfAlgebraData:
    """The one-dimensional Hopf algebra."""
    one = CyclotomicNumber.one(1)
    return HopfAlgebraData(
        name="trivial", dim=1, conductor=1, basis_labels=["1"],
        mult={(0, 0): {0: one}}, unit=[1], comult=[{(0, 0): one}],
        counit=[1], antipode=[{0: one}],
        grouplike_vectors=[[1]], grading=[0],
    )


# -- descriptors and the CLI name grammar --------------------------------------


#: the largest dimension a preset may have; larger requests are rejected
#: before any structure constant is computed
MAX_PRESET_DIM = 512


def _dimension(d: PresetDescriptor) -> int:
    """The dimension of the preset d describes, without building it."""
    kind, params = d.kind, d.parameters
    if kind == "taft":
        return params["n"] ** 2
    if kind == "uq_borel_sl2":
        return params["p"] ** 2
    if kind == "uq_sl2":
        return params["p"] ** 3
    if kind == "tensor":
        return prod(_dimension(sub) for sub in params["factors"])
    if "table" in params:
        return len(params["table"])
    if "group" in params:
        return prod(BUILTIN_GROUP_ORDERS.get(params["group"], [6]))  # S3: 6
    return 4 if kind == "sweedler" else 1


def make_preset(d: PresetDescriptor) -> HopfAlgebraData:
    dim = _dimension(d)
    if dim > MAX_PRESET_DIM:
        raise ValueError(f"preset dimension {dim} exceeds the limit {MAX_PRESET_DIM}")
    kind = d.kind
    if kind == "trivial":
        return trivial()
    if kind == "sweedler":
        return sweedler()
    if kind == "group_algebra":
        if "table" in d.parameters:
            return group_algebra_from_table(
                d.parameters["table"], d.parameters.get("labels"),
                d.parameters.get("name", "C[G]"))
        return group_algebra(d.parameters["group"])
    if kind == "dual_group_algebra":
        return dual_group_algebra(d.parameters["group"])
    if kind == "taft":
        return taft(d.parameters["n"])
    if kind == "uq_borel_sl2":
        return uq_borel_sl2(d.parameters["p"])
    if kind == "uq_sl2":
        return uq_sl2(d.parameters["p"])
    if kind == "tensor":
        parts = [make_preset(sub) for sub in d.parameters["factors"]]
        out = parts[0]
        for h in parts[1:]:
            out = tensor(out, h)
        return out
    raise ValueError(f"unknown preset kind: {kind}")


def parse_preset_name(name: str) -> PresetDescriptor:
    """Parse a CLI preset name.

    Grammar: trivial | sweedler | group:<builtin:NAME | table-file> |
    dualgroup:builtin:<NAME> | taft:<n> | uqb2:<p> | uqsl2:<p> |
    tensor:<a>,<b>.
    """
    if name == "trivial":
        return PresetDescriptor("trivial")
    if name == "sweedler":
        return PresetDescriptor("sweedler")
    if name.startswith("group:"):
        rest = name[len("group:"):]
        if rest.startswith("builtin:"):
            return PresetDescriptor("group_algebra",
                                    {"group": _builtin_group(rest[len("builtin:"):])})
        payload = json.loads(Path(rest).read_text())
        spec = payload if isinstance(payload, dict) else {"table": payload}
        if not isinstance(spec.get("table"), list):
            raise ValueError(f"group file {rest} holds no 'table' list")
        labels = spec.get("labels")
        if labels is not None and not (isinstance(labels, list)
                                       and all(isinstance(x, str) for x in labels)):
            raise ValueError(f"the 'labels' of group file {rest} are not a list of strings")
        if not isinstance(spec.get("name", ""), str):
            raise ValueError(f"the 'name' of group file {rest} is not a string")
        return PresetDescriptor("group_algebra", {
            "table": spec["table"],
            "labels": labels,
            "name": spec.get("name", "C[G]"),
        })
    if name.startswith("dualgroup:builtin:"):
        return PresetDescriptor("dual_group_algebra",
                                {"group": _builtin_group(name[len("dualgroup:builtin:"):])})
    if name.startswith("taft:"):
        return PresetDescriptor("taft", {"n": _number(name[len("taft:"):])})
    if name.startswith("uqb2:"):
        return PresetDescriptor("uq_borel_sl2", {"p": _number(name[len("uqb2:"):])})
    if name.startswith("uqsl2:"):
        return PresetDescriptor("uq_sl2", {"p": _number(name[len("uqsl2:"):])})
    if name.startswith("tensor:"):
        parts = name[len("tensor:"):].split(",")
        if len(parts) < 2:
            raise ValueError("tensor presets need at least two factors")
        return PresetDescriptor(
            "tensor", {"factors": [parse_preset_name(p) for p in parts]})
    raise ValueError(f"unknown preset name: {name}")


def _number(text: str) -> int:
    """A preset parameter, in ASCII digits (`int` also reads signs, spaces, `_`)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"preset parameter {text!r} is not a number")
    return int(text)


def _builtin_group(g: str) -> str:
    if g not in BUILTIN_GROUP_ORDERS and g != "S3":
        raise ValueError(f"unknown builtin group: {g}")
    return g


def get_preset(name: str) -> HopfAlgebraData:
    """Build a preset directly from its CLI name."""
    return make_preset(parse_preset_name(name))


def preset_grouplikes(H: HopfAlgebraData) -> GrouplikeSet:
    """The verified grouplike set a preset carries."""
    if H.grouplike_vectors is None:
        raise ValueError(f"{H.name} carries no declared grouplikes")
    return GrouplikeSet.build(H, H.grouplike_vectors)


#: names exercised by the default verification suite
ZOO = [
    "trivial",
    "group:builtin:Z2", "group:builtin:Z3", "group:builtin:Z4",
    "group:builtin:Z6", "group:builtin:Z2xZ2", "group:builtin:S3",
    "dualgroup:builtin:Z3", "dualgroup:builtin:S3",
    "sweedler", "taft:2", "taft:3", "taft:4", "taft:5",
    "uqb2:3", "uqsl2:3",
    "tensor:sweedler,group:builtin:Z3",
]
