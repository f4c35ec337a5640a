import random

import pytest
from hypothesis import given, strategies as st

from dompoly.cycles import cycle_polynomials
from dompoly.errors import ValuationError
from dompoly.polynomials import IntPolynomial, ord_p

X = IntPolynomial.x()

# D(C_1), D(C_2), D(C_3): the base cases the cycle recurrence starts from
DC1 = IntPolynomial((0, 1))
DC2 = IntPolynomial((0, 2, 1))
DC3 = IntPolynomial((0, 3, 3, 1))
DC4 = IntPolynomial((0, 0, 6, 4, 1))
DC6 = IntPolynomial((0, 0, 3, 14, 15, 6, 1))


def test_canonical_trimming():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0, 0)).coeffs == ()
    assert IntPolynomial(()).is_zero
    assert IntPolynomial((5,)).degree == 0
    assert IntPolynomial(()).degree == -1


def test_add_examples():
    assert X + IntPolynomial((0, 2, 1)) == IntPolynomial((0, 3, 1))
    p = IntPolynomial((3, 0, 7))
    assert p + IntPolynomial.zero() == p
    # sum of the three cycle base polynomials
    assert DC1 + DC2 + DC3 == IntPolynomial((0, 6, 4, 1))


def test_mul_examples():
    assert DC3 * DC3 == IntPolynomial((0, 0, 9, 18, 15, 6, 1))
    p = IntPolynomial((2, -1, 4))
    assert p * IntPolynomial.one() == p
    assert X * IntPolynomial((0, 2, 1)) == IntPolynomial((0, 0, 2, 1))


def test_eval_examples():
    assert DC2.eval_at(-1) == -1
    assert DC4.eval_at(-1) == 3
    assert X.eval_at(-3) == -3
    assert IntPolynomial.zero().eval_at(7) == 0


def test_derivative_examples():
    d = DC4.derivative()
    assert d == IntPolynomial((0, 12, 12, 4))
    assert d.eval_at(-1) == -4
    assert IntPolynomial((9,)).derivative().is_zero
    assert DC6.derivative().derivative().eval_at(-1) == 12


def test_ord_p():
    assert ord_p(27, 3) == 3
    assert ord_p(12, 2) == 2
    assert ord_p(-27, 3) == 3
    assert ord_p(7, 3) == 0
    # a_4 = -3(a_3 + a_2 + a_1) = 27
    assert ord_p(-3 * (-9 + 3 - 3), 3) == 3


def test_ord_p_errors():
    with pytest.raises(ValuationError):
        ord_p(0, 3)
    with pytest.raises(ValueError):
        ord_p(10, 4)
    with pytest.raises(ValueError):
        ord_p(10, 1)
    # larger p is a caller contract, not checked
    assert ord_p(101, 101) == 1


small_ints = st.integers(min_value=-9, max_value=9)
polys = st.lists(small_ints, max_size=6).map(IntPolynomial)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys, st.sampled_from((-3, -1, 0, 1, 2)))
def test_eval_is_ring_homomorphism(p, q, t):
    assert (p * q).eval_at(t) == p.eval_at(t) * q.eval_at(t)
    assert (p + q).eval_at(t) == p.eval_at(t) + q.eval_at(t)


@given(polys, polys)
def test_leibniz_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(polys, polys)
def test_canonical_form_closed_under_operations(p, q):
    for result in (p + q, p * q, p.derivative()):
        assert not result.coeffs or result.coeffs[-1] != 0


def _canonical(r):
    return type(r) is IntPolynomial and r.coeffs == IntPolynomial(r.coeffs).coeffs and all(
        type(c) is int for c in r.coeffs)


def test_results_built_unchecked_are_canonical():
    """Sums, products, derivatives and cycle polynomials skip the public
    constructor's checks; each must still equal what that constructor
    builds from its coefficients."""
    rng = random.Random(23)
    for _ in range(500):
        p, q = (IntPolynomial(rng.randint(-4, 4) for _ in range(rng.randint(0, 7))) for _ in "pq")
        neg = IntPolynomial(-c for c in p.coeffs)
        constant = IntPolynomial((rng.randint(-9, 9),))
        results = (p + q, q + p, p * q, p.derivative(), p + neg, neg + p, p * neg, constant.derivative())
        assert all(map(_canonical, results)), (p, q)
        assert (p + neg).is_zero and constant.derivative().is_zero
    for n, d in zip(range(1, 60), cycle_polynomials()):
        assert _canonical(d) and d.degree == n


@given(
    st.integers(min_value=-10**6, max_value=10**6).filter(lambda m: m != 0),
    st.integers(min_value=-10**6, max_value=10**6).filter(lambda m: m != 0),
    st.sampled_from((2, 3, 5, 7)),
)
def test_ord_p_additive_on_products(m, n, p):
    assert ord_p(m * n, p) == ord_p(m, p) + ord_p(n, p)
