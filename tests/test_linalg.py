"""Exact linear algebra and polynomial utilities."""

from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfqexp.linalg import (
    ExactMatrix,
    SpanSolver,
    first_dependence,
    minimal_polynomial,
    sparse,
)
from hopfqexp.poly import (
    ExactPolynomial,
    _is_prime,
    _prime_and_root,
    cyclotomic_polynomial,
    poly_gcd,
    root_of_unity_order,
    squarefree_part,
)
from hopfqexp.scalars import CyclotomicNumber, cyclotomic_int_coeffs, euler_phi


def mat(rows, conductor=1):
    return ExactMatrix(rows, conductor)


def poly(coeffs, conductor=1):
    return ExactPolynomial(coeffs, conductor)


def test_matrix_ring_basics():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a @ b).entries[0][1].as_fraction() == 1
    assert (a + b - b) == a
    assert a @ a.inverse() == ExactMatrix.identity(2, 1)
    assert (a ** 0).is_identity()
    assert a ** 3 == a @ a @ a


def test_minimal_polynomial_companion_oracle():
    # companion matrix of x^3 - 2x + 1 has exactly that minimal polynomial
    c = mat([[0, 0, -1], [1, 0, 2], [0, 1, 0]])
    assert minimal_polynomial(c) == poly([1, -2, 0, 1])


def test_minimal_polynomial_jordan_oracle():
    # J_2(1) + J_1(1): minimal polynomial (x-1)^2, not the characteristic one
    j = mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert minimal_polynomial(j) == poly([1, -2, 1])


def test_minimal_polynomial_identity_and_zero():
    assert minimal_polynomial(ExactMatrix.identity(4, 1)) == poly([-1, 1])
    assert minimal_polynomial(ExactMatrix.zeros(3, 3, 1)) == poly([0, 1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3]), st.data())
def test_elimination_core_on_random_matrices(conductor, data):
    def scalars(n):
        coords = st.lists(st.integers(min_value=-2, max_value=2),
                          min_size=euler_phi(conductor), max_size=euler_phi(conductor))
        return [CyclotomicNumber(conductor, c)
                for c in data.draw(st.lists(coords, min_size=n, max_size=n))]

    rows = data.draw(st.integers(min_value=1, max_value=5))
    cols = data.draw(st.integers(min_value=1, max_value=5))
    m = ExactMatrix([scalars(cols) for _ in range(rows)], conductor)
    zero, one = CyclotomicNumber.zero(conductor), CyclotomicNumber.one(conductor)

    # the dependent columns, each with a kernel vector as its certificate
    solver = SpanSolver(conductor)
    independent, dependent = [], []
    for j in range(cols):
        coeffs = solver.insert(sparse(m.column(j)))
        if coeffs is None:
            independent.append(j)
            continue
        kernel = [zero] * cols
        kernel[j] = one
        for i, c in zip(independent, coeffs):
            kernel[i] = -c
        assert all(v.is_zero() for v in m.apply(kernel))
        dependent.append(j)

    if rows == cols and not dependent:
        assert m @ m.inverse() == ExactMatrix.identity(rows, conductor)
    elif rows == cols:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    if rows >= 2:
        repeated = [m.column(j % cols) for j in range(rows - 1)] + [m.column(0)]
        with pytest.raises(ValueError, match="singular"):
            ExactMatrix.from_columns(repeated, conductor).inverse()


def test_span_solver_reports_dependence():
    s = SpanSolver(1)
    one = CyclotomicNumber.one(1)
    assert s.insert({0: one}) is None
    assert s.insert({1: one}) is None
    combo = s.insert({0: one + one, 1: one})
    assert combo is not None
    assert [c.as_fraction() for c in combo] == [2, 1]


def _exact_first_dependence(vectors, conductor):
    """The first dependence by the exact SpanSolver loop alone."""
    solver = SpanSolver(conductor)
    for v in vectors:
        coeffs = solver.insert(v)
        if coeffs is not None:
            return ExactPolynomial([-c for c in coeffs] + [1], conductor)
    raise AssertionError("no dependence")


def _count_exact_inserts(monkeypatch):
    calls = []
    insert = SpanSolver.insert

    def counting(self, vec):
        calls.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(SpanSolver, "insert", counting)
    return calls


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 7, 8]), st.data())
def test_first_dependence_matches_exact_loop(conductor, data):
    phi = euler_phi(conductor)

    def scalar():
        coords = data.draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
        den = data.draw(st.sampled_from([1, 1, 2, 3, 7]))
        return CyclotomicNumber(conductor, [Fraction(c, den) for c in coords])

    length = data.draw(st.integers(min_value=1, max_value=4))
    vectors = []
    for k in range(length + 1):  # length + 1 vectors are always dependent
        if k and data.draw(st.booleans()):  # a combination of the earlier ones
            coeffs = [scalar() for _ in vectors]
            vectors.append([sum((c * v[i] for c, v in zip(coeffs, vectors)),
                                CyclotomicNumber.zero(conductor)) for i in range(length)])
        else:
            vectors.append([scalar() for _ in range(length)])
    vectors = [sparse(v) for v in vectors]
    expected = _exact_first_dependence(vectors, conductor)
    assert first_dependence(iter(vectors), conductor) == expected


def _zeta_minus(conductor, j):
    """zeta - r^j, which the embedding zeta -> r^j sends to 0 mod p."""
    p, r = _prime_and_root(conductor)
    return CyclotomicNumber.zeta(conductor) - pow(r, j, p)


@pytest.mark.parametrize("conductor, entries", [
    # the coefficients 10^12 and 3 are too large to reconstruct mod p
    (1, [[1, 0], [0, 1], [10 ** 12, 3]]),
    # p divides a denominator
    (3, [[Fraction(1, _prime_and_root(3)[0]), 0], [0, 1], [1, 1]]),
    # the rank drops mod the prime: v_1 = (0, p) vanishes there
    (1, [[1, 0], [0, _prime_and_root(1)[0]], [1, 1]]),
    (7, [[1, 0], [0, _zeta_minus(7, 1)], [1, 1]]),
    # sigma_1 keeps the rank, the embedding zeta -> r^3 does not
    (7, [[1, 0], [0, _zeta_minus(7, 3)], [1, 1]]),
])
def test_first_dependence_falls_back_to_exact_loop(monkeypatch, conductor, entries):
    vectors = [sparse([CyclotomicNumber(conductor, [0] * euler_phi(conductor)) + e for e in v])
               for v in entries]
    expected = _exact_first_dependence(vectors, conductor)
    calls = _count_exact_inserts(monkeypatch)
    assert first_dependence(iter(vectors), conductor) == expected
    assert len(calls) == 3  # every vector was replayed into the exact loop


def test_first_dependence_decides_without_exact_loop(monkeypatch):
    calls = _count_exact_inserts(monkeypatch)
    one, zero = CyclotomicNumber.one(7), CyclotomicNumber.zero(7)
    z = CyclotomicNumber.zeta(7)
    c0, c1 = z * z + one, z + Fraction(1, 2)
    v0, v1 = [one, zero, z], [z, one, one]
    v2 = [c0 * a + c1 * b for a, b in zip(v0, v1)]
    vectors = map(sparse, [v0, v1, v2])
    assert first_dependence(vectors, 7) == ExactPolynomial([-c0, -c1, 1], 7)
    assert calls == []


def test_first_dependence_stream_without_dependence():
    one = CyclotomicNumber.one(1)
    with pytest.raises(AssertionError, match="without a dependence"):
        first_dependence(iter([{0: one}, {1: one}]), 1)


def test_is_prime_is_deterministic():
    def trial_division(n):
        return n > 1 and all(n % r for r in range(2, isqrt(n) + 1))

    assert all(_is_prime(n) == trial_division(n) for n in range(200_000))
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2 ** 61 - 1)


@settings(max_examples=25)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2,
                max_size=4),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=2,
                max_size=4))
def test_gcd_divides_both(a_coeffs, b_coeffs):
    a = poly(a_coeffs + [1])
    b = poly(b_coeffs + [1])
    g = poly_gcd(a, b)
    assert (a % g).is_zero()
    assert (b % g).is_zero()


def test_squarefree_part():
    # (x-1)^2 (x+1) -> (x-1)(x+1) = x^2 - 1
    f = poly([1, -1]) * poly([1, -1]) * poly([1, 1])
    assert squarefree_part(f.monic()) == poly([-1, 0, 1])


def test_root_of_unity_order_oracles():
    assert root_of_unity_order(poly([-1, 1]), 10) == 1        # x - 1
    assert root_of_unity_order(poly([-1, 0, 1]), 10) == 2     # x^2 - 1
    assert root_of_unity_order(cyclotomic_polynomial(12), 20) == 12
    # product of cyclotomics: order is the lcm
    f = cyclotomic_polynomial(2) * cyclotomic_polynomial(3)
    assert root_of_unity_order(f, 10) == 6


def test_root_of_unity_order_not_found():
    # x - 2 has no root of unity as a root: report None ("not found")
    assert root_of_unity_order(poly([-2, 1]), 1000) is None


def _order_factors(m):
    """(factor, order of its roots): Phi_d for d <= 15 and x - zeta_m^k."""
    factors = [(ExactPolynomial(cyclotomic_int_coeffs(d), m), d) for d in range(1, 16)]
    factors += [(ExactPolynomial([-CyclotomicNumber.zeta(m, k), 1], m), m // gcd(m, k))
                for k in range(m)]
    return factors


def _scan_order(f, limit):
    """The first n <= limit with x^n = 1 mod f, by brute force."""
    one = poly([1], f.conductor)
    x = poly([0, 1], f.conductor)
    power = one
    for n in range(1, limit + 1):
        power = (power * x) % f
        if power == one:
            return n
    return None


_order_cases = st.sampled_from([1, 3, 4, 5, 7, 8]).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, 14 + m), min_size=1, max_size=3)))


@settings(max_examples=40, deadline=None)
@given(_order_cases, st.sampled_from(["plain", "times x-2", "squared"]))
def test_root_of_unity_order_matches_scan(case, variant):
    m, picks = case
    chosen = [_order_factors(m)[i] for i in picks]
    product = poly([1], m)
    for factor, _ in chosen:
        product = product * factor
    f = squarefree_part(product)
    if variant == "plain":
        limit = lcm(*(order for _, order in chosen))
        assert root_of_unity_order(f) == _scan_order(f, limit) is not None
    elif variant == "times x-2":
        assert root_of_unity_order(f * poly([-2, 1], m)) is None
    else:
        assert root_of_unity_order(f * chosen[0][0]) is None


def test_root_of_unity_order_bound_caps_the_scan():
    assert root_of_unity_order(cyclotomic_polynomial(12), 11) is None
    assert root_of_unity_order(cyclotomic_polynomial(12), 12) == 12
    # 143 > 2 deg f = 44: found only after the scan is certified mod p
    f = cyclotomic_polynomial(11) * cyclotomic_polynomial(13)
    assert root_of_unity_order(f) == 143
    assert root_of_unity_order(f, 142) is None


def test_rational_entries():
    half = Fraction(1, 2)
    a = ExactMatrix([[half, 0], [0, half]], 1)
    assert (a @ a).entries[0][0].as_fraction() == Fraction(1, 4)
