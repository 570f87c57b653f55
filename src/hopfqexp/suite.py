"""The theorem suite: every verified statement as one pass/fail line.

Each item re-derives a published identity or invariant on the preset
zoo with exact arithmetic and reports PASS or FAIL; the CLI `suite`
subcommand prints the matrix.  Item labels are the statement references
required by the report format.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .double import (
    drinfeld_double,
    drinfeld_element,
    verify_quasitriangular,
    verify_s2_conjugation,
)
from .hopf import (
    dual,
    element_order,
    is_grouplike,
    lift_algebra,
    s2_order,
    subalgebra_closure,
    validate,
    variant,
)
from .poly import ExactPolynomial
from .presets import (ZOO, _dimension, abelian_group_algebra, get_preset,
                      parse_preset_name, preset_grouplikes)
from .qexp import (
    _annihilates,
    check_corollary_24,
    is_unipotent_element,
    quasi_exponent,
    u_min_poly_via_regular,
    u_min_poly_via_t,
)
from .scalars import CyclotomicNumber
from .twist import (
    grouplike_from_twist,
    grouplike_subgroup_twist,
    is_twist,
    sweedler_ansatz_twists,
    twist_hopf,
    twisted_drinfeld_element,
    verify_eq4,
)


@dataclass
class SuiteItem:
    label: str
    passed: bool
    detail: str = ""


class _Context:
    """Shared caches so the suite builds each object once.

    Reports, doubles and twisted algebras are keyed by the id of an
    algebra or twist that this context itself keeps alive (a cached
    preset or an entry of `twists`), so a key is never reused.
    """

    def __init__(self, deep: bool, max_dim: int | None):
        self.deep = deep
        self.max_dim = max_dim
        self._presets: dict = {}
        self._reports: dict = {}
        self._doubles: dict = {}
        self._twisted: dict = {}
        self._twists: list | None = None

    def preset(self, name: str):
        if name not in self._presets:
            self._presets[name] = get_preset(name)
        return self._presets[name]

    def allowed(self, name: str) -> bool:
        return self.max_dim is None or _dimension(parse_preset_name(name)) <= self.max_dim

    def zoo(self, names=ZOO):
        """The given preset names whose algebras are within max_dim."""
        return [n for n in names if self.allowed(n)]

    def report(self, name: str):
        return self.report_of(self.preset(name))

    def double(self, name: str):
        return self.double_of(self.preset(name))

    def report_of(self, H):
        return _memo(self._reports, H, quasi_exponent)

    def double_of(self, H):
        return _memo(self._doubles, H, drinfeld_double)

    def twisted(self, tw):
        return _memo(self._twisted, tw, twist_hopf)

    def twists(self):
        """(description, TwistData, double-or-None for Eq. (3) checks)."""
        if self._twists is None:
            zeta = CyclotomicNumber.zeta
            c22 = abelian_group_algebra([2, 2])
            c33 = lift_algebra(abelian_group_algebra([3, 3]), 3)
            entries = [
                ("bicharacter C[Z2xZ2]", grouplike_subgroup_twist(
                    c22, _generators(c22), lambda a, b: (-1) ** (a[0] * b[1])), True),
                ("bicharacter C[Z3xZ3]", grouplike_subgroup_twist(
                    c33, _generators(c33), lambda a, b: zeta(3, a[0] * b[1])), True),
            ]
            for i, tw in enumerate(sweedler_ansatz_twists()):
                entries.append((f"Sweedler ansatz sample {i}", tw, True))
            for name in ("uqb2:3", "uqsl2:3"):
                H = self.preset(name)
                g = H.element(H.grouplike_vectors[1])
                entries.append((f"cyclic twist on {name}", grouplike_subgroup_twist(
                    H, [g], lambda a, b: zeta(3, a[0] * b[0])), False))
            self._twists = entries
        return self._twists


def _generators(G):
    """g10 and g01, the generators of the abelian group algebra C[Zm x Zn]."""
    return [G.basis_element(G.basis_labels.index(label)) for label in ("g10", "g01")]


def _memo(table: dict, obj, build):
    if id(obj) not in table:
        table[id(obj)] = build(obj)
    return table[id(obj)]


def run_suite(deep: bool = False, max_dim: int | None = None) -> list[SuiteItem]:
    ctx = _Context(deep, max_dim)
    items: list[SuiteItem] = []

    def item(label: str, fn):
        try:
            ok, detail = fn(ctx)
        except Exception as exc:  # a crash is a failure with its diagnostic
            ok, detail = False, f"error: {exc}"
        items.append(SuiteItem(label, ok, detail))

    item("Example 2.6 (Sweedler: qexp 2, T0-2T2+T4 = 0)", _example_26)
    item("Prop 2.3 (T-route = regular route for min poly of u)", _prop_23)
    if deep:
        item("Prop 2.3 deep (uq_sl2(3) regular-route cross-check)", _prop_23_deep)
    item("Cor 2.4 (alternating R_nk sums detect multiples of qexp)", _cor_24)
    item("Prop 2.5(2) (grouplike orders divide qexp)", _prop_25_2)
    item("Prop 2.5(3) (qexp of the dual equals qexp)", _prop_25_3)
    item("Prop 2.5(4) (qexp of a tensor product is the lcm)", _prop_25_4)
    item("Prop 2.5(5) (S^(2 qexp) = Id and s2_order divides qexp)", _prop_25_5)
    item("Prop 2.5(6) (qexp 1 only for the trivial algebra)", _prop_25_6)
    item("Prop 2.5(7) (qexp of H*cop equals qexp)", _prop_25_7)
    item("Eq (2) (double axioms, hexagons, S^2 = conjugation by u)", _eq_2)
    item("Cor 3.6 (qexp of the double equals qexp)", _cor_36)
    item("Def 3.1 (constructed twists satisfy the twist axioms)", _def_31)
    item("Eq (4) (twisted-antipode coproduct identity)", _eq_4)
    item("Thm 3.3 (qexp invariant under twisting; u^n = (uJ)^n)", _thm_33)
    item("Cor 3.5 (twist grouplike verified; order divides qexp)", _cor_35)
    item("Prop 3.2 (g u^qexp non-unipotent for nontrivial grouplike g)", _prop_32)
    item("Thm 4.4 (s2_order divides the grouplike group exponent)", _thm_44)
    item("Thm 4.7 (pointed: qexp equals the grouplike group exponent)", _thm_47)
    item("Prop 4.3 (graded: qexp = lcm(qexp(H0), s2_order))", _prop_43)
    item("Example 4.10 (qexp of uq_borel_sl2(3) and uq_sl2(3) is 3)", _example_410)
    item("Cor 4.11 (grouplike orders in quantum twists divide 3)", _cor_411)
    item("Remark 2.2(1) (group algebras: finite exponent = exp(G))", _remark_221)
    return items


def format_suite(items: list[SuiteItem]) -> str:
    width = max(len(i.label) for i in items) + 2
    lines = []
    for i in items:
        status = "PASS" if i.passed else "FAIL"
        line = f"{i.label:<{width}}... {status}"
        if i.detail and not i.passed:
            line += f"  [{i.detail}]"
        lines.append(line)
    total = sum(1 for i in items if i.passed)
    lines.append(f"{total}/{len(items)} checks passed")
    return "\n".join(lines) + "\n"


# -- individual checks ----------------------------------------------------------


def _example_26(ctx):
    if not ctx.allowed("sweedler"):
        return True, "skipped (max-dim)"
    H = ctx.preset("sweedler")
    rep = ctx.report("sweedler")
    # (x^2 - 1)^2: T_0 - 2 T_2 + T_4 = 0, checked on every column
    relation = ExactPolynomial([1, 0, -2, 0, 1], H.conductor)
    ok = (rep.qexp == 2 and rep.exponent == "infinite"
          and preset_grouplikes(H).exponent() == 2 and _annihilates(H, relation))
    return ok, f"qexp={rep.qexp}, exponent={rep.exponent}"


_ROUTE_PRESETS = ["sweedler", "group:builtin:Z2", "group:builtin:Z3",
                  "group:builtin:S3", "taft:3"]


def _prop_23(ctx):
    failures = []
    for name in ctx.zoo(_ROUTE_PRESETS):
        H = ctx.preset(name)
        if u_min_poly_via_t(H) != u_min_poly_via_regular(H, ctx.double(name)):
            failures.append(name)
    return not failures, "disagreement: " + ", ".join(failures) if failures else ""


def _prop_23_deep(ctx):
    H = ctx.preset("uqsl2:3")
    same = u_min_poly_via_t(H) == u_min_poly_via_regular(H)
    return same, "" if same else "routes disagree on uq_sl2(3)"


def _cor_24(ctx):
    for name in ctx.zoo(("sweedler", "group:builtin:Z3")):
        qt = ctx.double(name)
        q = ctx.report(name).qexp
        for n in range(1, 13):
            if check_corollary_24(qt, n, 6) != (n % q == 0):
                return False, f"{name}: wrong verdict at n={n}"
    return True, ""


def _prop_25_2(ctx):
    for name in ctx.zoo():
        H = ctx.preset(name)
        if H.grouplike_vectors is None:
            continue
        q = ctx.report(name).qexp
        for g in preset_grouplikes(H).elements:
            if q % element_order(g) != 0:
                return False, f"{name}: a grouplike order does not divide qexp"
    return True, ""


def _prop_25_3(ctx):
    for name in ctx.zoo():
        H = ctx.preset(name)
        if quasi_exponent(dual(H)).qexp != ctx.report(name).qexp:
            return False, f"{name}: qexp changed under duality"
    return True, ""


def _prop_25_4(ctx):
    from .hopf import tensor as tensor_product

    pairs = [("sweedler", "group:builtin:Z3"),
             ("group:builtin:Z2", "group:builtin:Z3")]
    for a, b in pairs:
        if not (ctx.allowed(a) and ctx.allowed(b)):
            continue
        T = tensor_product(ctx.preset(a), ctx.preset(b))
        expected = lcm(ctx.report(a).qexp, ctx.report(b).qexp)
        got = quasi_exponent(T).qexp
        if got != expected:
            return False, f"{a} (x) {b}: qexp {got} != lcm {expected}"
    if ctx.allowed("tensor:sweedler,group:builtin:Z3"):
        if ctx.report("tensor:sweedler,group:builtin:Z3").qexp != 6:
            return False, "Sweedler (x) C[Z3] does not have qexp 6"
    return True, ""


def _prop_25_5(ctx):
    for name in ctx.zoo():
        rep = ctx.report(name)
        if rep.qexp % rep.s2_order != 0:
            return False, f"{name}: s2_order does not divide qexp"
    return True, ""


def _prop_25_6(ctx):
    for name in ctx.zoo():
        q = ctx.report(name).qexp
        if (q == 1) != (ctx.preset(name).dim == 1):
            return False, f"{name}: qexp 1 on a nontrivial algebra"
    return True, ""


def _prop_25_7(ctx):
    for name in ctx.zoo():
        H = ctx.preset(name)
        star_cop = variant(dual(H), "cop")
        if quasi_exponent(star_cop).qexp != ctx.report(name).qexp:
            return False, f"{name}: qexp changed under (*, cop)"
    return True, ""


def _eq_2(ctx):
    for name in ctx.zoo():
        H = ctx.preset(name)
        if H.dim > 9:
            continue
        qt = ctx.double(name)
        v = validate(qt.algebra)
        if v:
            return False, f"D({H.name}): {v[0]}"
        q = verify_quasitriangular(qt)
        if q:
            return False, f"D({H.name}): {q[0]}"
        u = drinfeld_element(qt)
        if u.counit() != 1:
            return False, f"D({H.name}): counit of u is not 1"
        if not verify_s2_conjugation(qt, u):
            return False, f"D({H.name}): S^2 is not conjugation by u"
    return True, ""


def _cor_36(ctx):
    for name in ctx.zoo(("sweedler", "group:builtin:Z2")):
        qt = ctx.double(name)
        if quasi_exponent(qt.algebra).qexp != ctx.report(name).qexp:
            return False, f"{name}: qexp of the double differs"
    return True, ""


def _def_31(ctx):
    for desc, tw, _ in ctx.twists():
        ok, details = is_twist(tw.parent, tw.J, tw.J_inv)
        if not ok:
            return False, f"{desc}: {details[0]}"
    return True, ""


def _eq_4(ctx):
    for desc, tw, _ in ctx.twists():
        if not verify_eq4(tw):
            return False, f"{desc}: Eq. (4) fails"
    return True, ""


def _thm_33(ctx):
    for desc, tw, check_u in ctx.twists():
        H = tw.parent
        rep = ctx.report_of(H)
        hj = ctx.twisted(tw)
        v = validate(hj)
        if v:
            return False, f"{desc}: twisted algebra invalid: {v[0]}"
        if quasi_exponent(hj).qexp != rep.qexp:
            return False, f"{desc}: qexp changed under twisting"
        if check_u:
            qt = ctx.double_of(H)
            u = drinfeld_element(qt)
            uj = twisted_drinfeld_element(H, tw, qt)
            if u ** rep.qexp != uj ** rep.qexp:
                return False, f"{desc}: u^n != (uJ)^n at n = qexp"
    return True, ""


def _cor_35(ctx):
    for desc, tw, _ in ctx.twists():
        H = tw.parent
        rep = ctx.report_of(H)
        g = grouplike_from_twist(H, tw, rep.s2_order)
        if rep.qexp % element_order(g) != 0:
            return False, f"{desc}: twist grouplike order does not divide qexp"
    return True, ""


def _prop_32(ctx):
    for name in ctx.zoo(("sweedler", "group:builtin:Z2xZ2", "group:builtin:Z3")):
        H = ctx.preset(name)
        qt = ctx.double(name)
        u_pow = drinfeld_element(qt) ** ctx.report(name).qexp
        unit = H.unit_element()
        for g in preset_grouplikes(H).elements:
            if g == unit:
                continue
            if is_unipotent_element(qt.iota_primal(g) * u_pow):
                return False, f"{name}: g u^qexp unipotent for nontrivial g"
    return True, ""


_POINTED = ["trivial", "group:builtin:Z2", "group:builtin:Z3",
            "group:builtin:Z4", "group:builtin:Z6", "group:builtin:Z2xZ2",
            "group:builtin:S3", "dualgroup:builtin:Z3", "sweedler",
            "taft:2", "taft:3", "taft:4", "taft:5", "uqb2:3", "uqsl2:3"]


def _thm_44(ctx):
    for name in ctx.zoo(_POINTED):
        H = ctx.preset(name)
        exp_g = preset_grouplikes(H).exponent()
        if exp_g % s2_order(H) != 0:
            return False, f"{name}: s2_order does not divide exp(G)"
    return True, ""


def _thm_47(ctx):
    for name in ctx.zoo(_POINTED):
        H = ctx.preset(name)
        if ctx.report(name).qexp != preset_grouplikes(H).exponent():
            return False, f"{name}: qexp != exp(G)"
    return True, ""


def _prop_43(ctx):
    for name in ctx.zoo(("sweedler", "taft:2", "taft:3", "taft:4", "taft:5", "uqb2:3")):
        H = ctx.preset(name)
        rep = ctx.report(name)
        generators = [H.element(g) for g in H.grouplike_vectors]
        h0 = subalgebra_closure(H, generators)
        if validate(h0):
            return False, f"{name}: degree-0 part fails validation"
        q0 = quasi_exponent(h0).qexp
        if rep.qexp != lcm(q0, rep.s2_order):
            return False, f"{name}: qexp != lcm(qexp(H0), s2_order)"
    return True, ""


def _example_410(ctx):
    for name in ctx.zoo(("uqb2:3", "uqsl2:3")):
        if ctx.report(name).qexp != 3:
            return False, f"{name}: qexp != 3"
    return True, ""


def _cor_411(ctx):
    for desc, tw, _ in ctx.twists():
        if "uq" not in desc:
            continue
        H = tw.parent
        hj = ctx.twisted(tw)
        orders = [element_order(grouplike_from_twist(H, tw, ctx.report_of(H).s2_order))]
        for gv in H.grouplike_vectors:
            cand = hj.element(gv)
            if is_grouplike(cand):
                orders.append(element_order(cand))
        if any(3 % o != 0 for o in orders):
            return False, f"{desc}: a twist grouplike order does not divide 3"
    return True, ""


def _remark_221(ctx):
    for name in ctx.zoo():
        if not name.startswith("group:"):
            continue
        H = ctx.preset(name)
        rep = ctx.report(name)
        exp_g = preset_grouplikes(H).exponent()
        if rep.exponent != exp_g or rep.qexp != exp_g:
            return False, f"{name}: exponent != exp(G)"
    return True, ""
