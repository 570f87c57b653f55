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
from dataclasses import dataclass, field
from math import lcm
from pathlib import Path

from .hopf import GrouplikeSet, HopfAlgebraData, dual, lift_algebra, tensor
from .linalg import ExactMatrix
from .scalars import CyclotomicNumber


def _zeta(n: int) -> CyclotomicNumber:
    """A primitive n-th root of unity at the smallest usable conductor."""
    if n == 1:
        return CyclotomicNumber.one(1)
    if n == 2:
        return CyclotomicNumber.rational(-1, 1)
    return CyclotomicNumber.zeta(n)


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
    if any(len(row) != n for row in table):
        raise ValueError("Cayley table must be square")
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
    antipode = ExactMatrix(
        [[1 if inverse[j] == i else 0 for j in range(n)] for i in range(n)], 1)
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
    H.name = f"C[{group}]*"
    if group in BUILTIN_GROUP_ORDERS:
        orders = BUILTIN_GROUP_ORDERS[group]
        e = lcm(*orders) if len(orders) > 1 else orders[0]
        H = lift_algebra(H, _root_conductor(e))
        elems, _, _ = _abelian_data(orders)
        chars = []
        for a in elems:
            chars.append([
                _prod_root(orders, a, g, H.conductor) for g in elems
            ])
        H.grouplike_vectors = [
            [H.scalar(v) for v in row] for row in chars
        ]
    elif group == "S3":
        _, _, signs = _s3_data()
        H.grouplike_vectors = [
            [H.scalar(1)] * 6,
            [H.scalar(s) for s in signs],
        ]
    return H


def _prod_root(orders, a, g, conductor):
    acc = CyclotomicNumber.one(conductor)
    for n, ai, gi in zip(orders, a, g):
        z = _zeta(n)
        acc = acc * z ** ((ai * gi) % n)
    return acc


# -- Taft family ----------------------------------------------------------------


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

    def idx(a, b):
        return a * n + b

    def mono_mul(m1, m2):
        # (g^a x^b)(g^c x^d) = q^{-bc} g^{a+c} x^{b+d}
        (a, b), (c, d) = m1, m2
        if b + d >= n:
            return None
        return q ** ((-b * c) % n), ((a + c) % n, b + d)

    def elt_mul(d1, d2):
        out = {}
        for m1, c1 in d1.items():
            for m2, c2 in d2.items():
                r = mono_mul(m1, m2)
                if r is None:
                    continue
                coeff, m = r
                cur = out.get(m)
                v = c1 * c2 * coeff
                out[m] = v if cur is None else cur + v
        return {m: c for m, c in out.items() if not c.is_zero()}

    mult = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    r = mono_mul((a, b), (c, d))
                    if r is not None:
                        coeff, (e, f) = r
                        mult[(idx(a, b), idx(c, d))] = {idx(e, f): coeff}

    # Delta(g^a x^b) = (g tensor g)^a (x tensor g + 1 tensor x)^b
    def tensor_mul(t1, t2):
        out = {}
        for (l1, r1), c1 in t1.items():
            for (l2, r2), c2 in t2.items():
                rl = mono_mul(l1, l2)
                rr = mono_mul(r1, r2)
                if rl is None or rr is None:
                    continue
                cl, ml = rl
                cr, mr = rr
                key = (ml, mr)
                v = c1 * c2 * cl * cr
                cur = out.get(key)
                out[key] = v if cur is None else cur + v
        return {k: v for k, v in out.items() if not v.is_zero()}

    dx = {((0, 1), (1, 0)): one, ((0, 0), (0, 1)): one}
    comult = [None] * (n * n)
    for a in range(n):
        t = {((a, 0), (a, 0)): one}
        for b in range(n):
            comult[idx(a, b)] = {
                (idx(*ml), idx(*mr)): c for (ml, mr), c in t.items()}
            t = tensor_mul(t, dx)

    unit = [one if k == 0 else 0 for k in range(n * n)]
    counit = [one if b == 0 else 0 for a in range(n) for b in range(n)]

    # S(g^a x^b) = (-x g^{-1})^b g^{-a}
    s_factor = {(((n - 1) % n), 1): -(q ** ((-(n - 1)) % n))}
    cols = []
    for a in range(n):
        for b in range(n):
            t = {((n - a) % n, 0): one}
            for _ in range(b):
                t = elt_mul(s_factor, t)
            col = [CyclotomicNumber.zero(conductor)] * (n * n)
            for (e, f), c in t.items():
                col[idx(e, f)] = c
            cols.append(col)
    antipode = ExactMatrix.from_columns(cols, conductor)

    labels = []
    for a in range(n):
        for b in range(n):
            ga = "" if a == 0 else ("g" if a == 1 else f"g^{a}")
            xb = "" if b == 0 else ("x" if b == 1 else f"x^{b}")
            labels.append((ga + xb) or "1")
    grouplikes = [[1 if k == idx(a, 0) else 0 for k in range(n * n)] for a in range(n)]
    grading = [b for a in range(n) for b in range(n)]
    return HopfAlgebraData(
        name=name or f"Taft({n})", dim=n * n, conductor=conductor,
        basis_labels=labels, mult=mult, unit=unit, comult=comult,
        counit=counit, antipode=antipode,
        grouplike_vectors=grouplikes, grading=grading,
    )


def sweedler() -> HopfAlgebraData:
    """The 4-dimensional Sweedler algebra (the Taft case n = 2)."""
    return taft(2, name="Sweedler")


# -- small quantum groups ---------------------------------------------------------


def _check_quantum_p(p: int) -> None:
    if p < 3 or p % 2 == 0 or any(p % d == 0 for d in range(3, int(p ** 0.5) + 1, 2)):
        raise ValueError("quantum presets need an odd prime p >= 3")


def uq_borel_sl2(p: int) -> HopfAlgebraData:
    """The Borel part u_q(b+) of u_q(sl2) at q = zeta_p, dimension p^2.

    Generators E, K with K^p = 1, E^p = 0, KE = q^2 EK,
    Delta(E) = E tensor K + 1 tensor E.  Basis E^a K^c at index a*p + c.
    """
    _check_quantum_p(p)
    conductor = p
    q = _zeta(p)
    one = CyclotomicNumber.one(conductor)

    def idx(a, c):
        return a * p + c

    def mono_mul(m1, m2):
        # (E^a K^c)(E^b K^d) = q^{2cb} E^{a+b} K^{c+d}
        (a, c), (b, d) = m1, m2
        if a + b >= p:
            return None
        return q ** ((2 * c * b) % p), (a + b, (c + d) % p)

    def elt_mul(d1, d2):
        out = {}
        for m1, c1 in d1.items():
            for m2, c2 in d2.items():
                r = mono_mul(m1, m2)
                if r is None:
                    continue
                coeff, m = r
                v = c1 * c2 * coeff
                cur = out.get(m)
                out[m] = v if cur is None else cur + v
        return {m: c for m, c in out.items() if not c.is_zero()}

    mult = {}
    for a in range(p):
        for c in range(p):
            for b in range(p):
                for d in range(p):
                    r = mono_mul((a, c), (b, d))
                    if r is not None:
                        coeff, (e, f) = r
                        mult[(idx(a, c), idx(b, d))] = {idx(e, f): coeff}

    def tensor_mul(t1, t2):
        out = {}
        for (l1, r1), c1 in t1.items():
            for (l2, r2), c2 in t2.items():
                rl = mono_mul(l1, l2)
                rr = mono_mul(r1, r2)
                if rl is None or rr is None:
                    continue
                cl, ml = rl
                cr, mr = rr
                key = (ml, mr)
                v = c1 * c2 * cl * cr
                cur = out.get(key)
                out[key] = v if cur is None else cur + v
        return {k: v for k, v in out.items() if not v.is_zero()}

    de = {((1, 0), (0, 1)): one, ((0, 0), (1, 0)): one}
    comult = [None] * (p * p)
    for c in range(p):
        t = {((0, c), (0, c)): one}
        for a in range(p):
            comult[idx(a, c)] = {(idx(*ml), idx(*mr)): v for (ml, mr), v in t.items()}
            t = tensor_mul(de, t)

    unit = [one if k == 0 else 0 for k in range(p * p)]
    counit = [one if a == 0 else 0 for a in range(p) for c in range(p)]

    # S(E^a K^c) = K^{-c} (-E K^{-1})^a
    s_factor = elt_mul({(1, 0): -one}, {(0, p - 1): one})
    cols = []
    for a in range(p):
        for c in range(p):
            t = {(0, (p - c) % p): one}
            for _ in range(a):
                t = elt_mul(t, s_factor)
            col = [CyclotomicNumber.zero(conductor)] * (p * p)
            for (e, f), v in t.items():
                col[idx(e, f)] = v
            cols.append(col)
    antipode = ExactMatrix.from_columns(cols, conductor)

    labels = []
    for a in range(p):
        for c in range(p):
            ea = "" if a == 0 else ("E" if a == 1 else f"E^{a}")
            kc = "" if c == 0 else ("K" if c == 1 else f"K^{c}")
            labels.append((ea + kc) or "1")
    grouplikes = [[1 if k == idx(0, c) else 0 for k in range(p * p)] for c in range(p)]
    grading = [a for a in range(p) for c in range(p)]
    return HopfAlgebraData(
        name=f"uq_borel_sl2({p})", dim=p * p, conductor=conductor,
        basis_labels=labels, mult=mult, unit=unit, comult=comult,
        counit=counit, antipode=antipode,
        grouplike_vectors=grouplikes, grading=grading,
    )


def uq_sl2(p: int) -> HopfAlgebraData:
    """The small quantum group u_q(sl2) at q = zeta_p, dimension p^3.

    Generators e, f, K with K^p = 1, e^p = f^p = 0, KeK^-1 = q^2 e,
    KfK^-1 = q^-2 f, [e, f] = (K - K^-1)/(q - q^-1); Delta(e) =
    e tensor K + 1 tensor e, Delta(f) = f tensor 1 + K^-1 tensor f.
    PBW basis e^a f^b K^c at index (a*p + b)*p + c.
    """
    _check_quantum_p(p)
    conductor = p
    q = _zeta(p)
    one = CyclotomicNumber.one(conductor)
    zero = CyclotomicNumber.zero(conductor)
    lam = (q - q.inverse()).inverse()
    N = p * p * p

    def idx(a, b, c):
        return (a * p + b) * p + c

    def norm(d):
        return {m: v for m, v in d.items() if not v.is_zero()}

    def dadd(acc, m, v):
        cur = acc.get(m)
        acc[m] = v if cur is None else cur + v

    def rmul_k(d, times=1):
        return {(a, b, (c + times) % p): v for (a, b, c), v in d.items()}

    def rmul_f(d):
        out = {}
        for (a, b, c), v in d.items():
            if b + 1 < p:
                dadd(out, (a, b + 1, c), v * q ** ((-2 * c) % p))
        return norm(out)

    # normal form of f^b e, by the recursion
    # f^b e = (f^{b-1} e) f - lam * f^{b-1} K + lam * f^{b-1} K^{-1}
    fe_cache: dict[int, dict] = {0: {(1, 0, 0): one}}

    def nf_fe(b):
        if b not in fe_cache:
            prev = nf_fe(b - 1)
            out = dict(rmul_f(prev))
            dadd(out, (0, b - 1, 1), -lam)
            dadd(out, (0, b - 1, p - 1), lam)
            fe_cache[b] = norm(out)
        return fe_cache[b]

    def rmul_e(d):
        out = {}
        for (a, b, c), v in d.items():
            scale = v * q ** ((2 * c) % p)
            for (a2, b2, c2), w in nf_fe(b).items():
                if a + a2 < p:
                    dadd(out, (a + a2, b2, (c2 + c) % p), scale * w)
        return norm(out)

    def rmul_mono(d, mono):
        a, b, c = mono
        for _ in range(a):
            d = rmul_e(d)
        for _ in range(b):
            d = rmul_f(d)
        return rmul_k(d, c) if c else d

    monos = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    mult = {}
    for m1 in monos:
        base = {m1: one}
        for m2 in monos:
            prod = rmul_mono(base, m2)
            if prod:
                mult[(idx(*m1), idx(*m2))] = {idx(*m): v for m, v in prod.items()}

    def elt_mul(d1, d2):
        out = {}
        for m1, v1 in d1.items():
            for m2, v2 in d2.items():
                prod = rmul_mono({m1: v1}, m2)
                for m, w in prod.items():
                    dadd(out, m, w * v2)
        return norm(out)

    def tensor_mul(t1, t2):
        out = {}
        for (l1, r1), c1 in t1.items():
            for (l2, r2), c2 in t2.items():
                lp = rmul_mono({l1: one}, l2)
                rp = rmul_mono({r1: one}, r2)
                for ml, cl in lp.items():
                    for mr, cr in rp.items():
                        dadd(out, (ml, mr), c1 * c2 * cl * cr)
        return norm(out)

    d_e = {((1, 0, 0), (0, 0, 1)): one, ((0, 0, 0), (1, 0, 0)): one}
    d_f = {((0, 1, 0), (0, 0, 0)): one, ((0, 0, p - 1), (0, 1, 0)): one}
    de_pows = [{((0, 0, 0), (0, 0, 0)): one}]
    for _ in range(p - 1):
        de_pows.append(tensor_mul(de_pows[-1], d_e))
    df_pows = [{((0, 0, 0), (0, 0, 0)): one}]
    for _ in range(p - 1):
        df_pows.append(tensor_mul(df_pows[-1], d_f))

    comult = [None] * N
    for a in range(p):
        for b in range(p):
            t_ab = tensor_mul(de_pows[a], df_pows[b])
            for c in range(p):
                t = {((l[0], l[1], (l[2] + c) % p), (r[0], r[1], (r[2] + c) % p)): v
                     for (l, r), v in t_ab.items()}
                comult[idx(a, b, c)] = {(idx(*ml), idx(*mr)): v
                                        for (ml, mr), v in t.items()}

    unit = [one if k == 0 else 0 for k in range(N)]
    counit = [one if (a, b) == (0, 0) else 0
              for a in range(p) for b in range(p) for c in range(p)]

    # S(e^a f^b K^c) = K^{-c} (-Kf)^b (-e K^{-1})^a
    s_e = norm({(1, 0, p - 1): -one})
    s_f = norm({(0, 1, 1): -(q ** ((-2) % p))})  # -Kf = -q^{-2} f K
    cols = []
    for a in range(p):
        s_e_pow_a = {(0, 0, 0): one}
        for _ in range(a):
            s_e_pow_a = elt_mul(s_e_pow_a, s_e)
        for b in range(p):
            t = {(0, 0, 0): one}
            for _ in range(b):
                t = elt_mul(t, s_f)
            t = elt_mul(t, s_e_pow_a)
            for c in range(p):
                img = elt_mul({(0, 0, (p - c) % p): one}, t)
                col = [zero] * N
                for m, v in img.items():
                    col[idx(*m)] = v
                cols.append(col)
    antipode = ExactMatrix.from_columns(cols, conductor)

    labels = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                ea = "" if a == 0 else ("e" if a == 1 else f"e^{a}")
                fb = "" if b == 0 else ("f" if b == 1 else f"f^{b}")
                kc = "" if c == 0 else ("K" if c == 1 else f"K^{c}")
                labels.append((ea + fb + kc) or "1")
    grouplikes = [[1 if k == idx(0, 0, c) else 0 for k in range(N)] for c in range(p)]
    grading = [a - b for a in range(p) for b in range(p) for c in range(p)]
    return HopfAlgebraData(
        name=f"uq_sl2({p})", dim=N, conductor=conductor,
        basis_labels=labels, mult=mult, unit=unit, comult=comult,
        counit=counit, antipode=antipode,
        grouplike_vectors=grouplikes, grading=grading,
    )


def trivial() -> HopfAlgebraData:
    """The one-dimensional Hopf algebra."""
    one = CyclotomicNumber.one(1)
    return HopfAlgebraData(
        name="trivial", dim=1, conductor=1, basis_labels=["1"],
        mult={(0, 0): {0: one}}, unit=[1], comult=[{(0, 0): one}],
        counit=[1], antipode=ExactMatrix.identity(1, 1),
        grouplike_vectors=[[1]], grading=[0],
    )


# -- descriptors and the CLI name grammar --------------------------------------


def make_preset(d: PresetDescriptor) -> HopfAlgebraData:
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
    name = name.strip()
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
        if isinstance(payload, dict):
            return PresetDescriptor("group_algebra", {
                "table": payload["table"],
                "labels": payload.get("labels"),
                "name": payload.get("name", "C[G]"),
            })
        return PresetDescriptor("group_algebra", {"table": payload})
    if name.startswith("dualgroup:"):
        rest = name[len("dualgroup:"):]
        if rest.startswith("builtin:"):
            rest = rest[len("builtin:"):]
        return PresetDescriptor("dual_group_algebra", {"group": _builtin_group(rest)})
    if name.startswith("taft:"):
        n = int(name[len("taft:"):])
        return PresetDescriptor("taft", {"n": n})
    if name.startswith("uqb2:"):
        p = int(name[len("uqb2:"):])
        return PresetDescriptor("uq_borel_sl2", {"p": p})
    if name.startswith("uqsl2:"):
        p = int(name[len("uqsl2:"):])
        return PresetDescriptor("uq_sl2", {"p": p})
    if name.startswith("tensor:"):
        parts = name[len("tensor:"):].split(",")
        if len(parts) < 2:
            raise ValueError("tensor presets need at least two factors")
        return PresetDescriptor(
            "tensor", {"factors": [parse_preset_name(p) for p in parts]})
    raise ValueError(f"unknown preset name: {name}")


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
