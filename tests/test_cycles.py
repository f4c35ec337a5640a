import tracemalloc
from itertools import islice

import pytest

from dompoly.cycles import (
    Ord3Class,
    a_value,
    alpha,
    b_value,
    b_value_by_factoring,
    b_values,
    beta,
    cycle_jet,
    cycle_jets,
    cycle_polynomial,
    cycle_polynomials,
    cycle_residues,
    ord3_classification,
    theta,
)
from dompoly.errors import ParameterDomainError
from dompoly.graphs import cycle
from dompoly.oracle import domination_polynomial
from dompoly.polynomials import IntPolynomial, ord_p

# first 30 values of b_n mod 9
B_MOD9 = (1, 1, 3, 3, 7, 6, 2, 7, 3, 7, 7, 3, 3, 4, 6,
          5, 4, 3, 4, 4, 3, 3, 1, 6, 8, 1, 3, 1, 1, 3)


def test_base_polynomials():
    assert cycle_polynomial(1) == IntPolynomial((0, 1))
    assert cycle_polynomial(2) == IntPolynomial((0, 2, 1))
    assert cycle_polynomial(3) == IntPolynomial((0, 3, 3, 1))


def test_recurrence_steps():
    assert cycle_polynomial(4) == IntPolynomial((0, 0, 6, 4, 1))
    assert cycle_polynomial(6) == IntPolynomial((0, 0, 3, 14, 15, 6, 1))


def test_polynomial_shape():
    for n in range(1, 41):
        p = cycle_polynomial(n)
        assert p.degree == n
        assert p.coeffs[-1] == 1
        assert p.coefficient(0) == 0
        if n >= 4:
            assert p.coefficient(1) == 0
        assert p.coefficient((n + 2) // 3) > 0


def test_matches_oracle():
    for n in range(1, 13):
        assert cycle_polynomial(n) == domination_polynomial(cycle(n))


def test_domain_errors():
    with pytest.raises(ParameterDomainError):
        cycle_polynomial(0)
    with pytest.raises(ParameterDomainError):
        a_value(-2)
    with pytest.raises(ParameterDomainError):
        cycle_jet(0, 1)
    with pytest.raises(ParameterDomainError):
        cycle_jet(5, 1, -1)
    with pytest.raises(ParameterDomainError):
        next(cycle_jets(1, -1))


def test_alpha_values():
    assert alpha(8) == 3
    assert alpha(5) == -1
    assert alpha(4) == 3
    assert cycle_polynomial(4).eval_at(-1) == 3


def test_beta_values():
    assert beta(4) == -4
    assert beta(5) == 5
    assert beta(6) == 0
    assert beta(1) == 1


def test_theta_values():
    # n = 0 mod 4 branch is n(n-4)/4: both the recurrence and direct
    # evaluation of D'' at -1 give 8 at n=8 (and 24 at n=12)
    assert theta(8) == 8
    assert theta(12) == 24
    assert cycle_polynomial(8).derivative().derivative().eval_at(-1) == 8
    assert theta(5) == -10
    assert theta(7) == 0
    assert theta(2) == 2
    assert theta(6) == 12


@pytest.mark.parametrize("n", range(1, 101))
def test_scalar_routes_agree(n):
    p = cycle_polynomial(n)
    jet_alpha, jet_beta, jet_theta = next(islice(cycle_jets(-1, 2), n - 1, None))
    assert alpha(n) == jet_alpha == p.eval_at(-1)
    assert beta(n) == jet_beta == p.derivative().eval_at(-1)
    assert (
        theta(n)
        == jet_theta
        == p.derivative().derivative().eval_at(-1)
    )
    assert a_value(n) == p.eval_at(-3)


def _direct_jet(p, t):
    """p and its first three derivatives at t, from the polynomial."""
    out = []
    for _ in range(4):
        out.append(p.eval_at(t))
        p = p.derivative()
    return out


@pytest.mark.parametrize("t", (-3, -1, 0, 1, 2))
def test_jet_matches_differentiated_polynomial(t):
    for n, p, jet in zip(range(1, 201), cycle_polynomials(), cycle_jets(t, 3)):
        assert list(jet) == _direct_jet(p, t), n
    # cycle_jet leaves out the derivatives above the degree n
    for n in range(1, 6):
        jet = cycle_jet(n, t, 3)
        assert len(jet) == min(3, n) + 1, n
        assert list(jet) + [0] * (4 - len(jet)) == _direct_jet(cycle_polynomial(n), t), n


@pytest.mark.parametrize("t,q", ((-2, 7), (0, 5), (3, 2), (5, 23), (22, 223092870)))
def test_residues_are_the_jet_values_mod_q(t, q):
    walk = zip(range(1, 301), cycle_jets(t), cycle_residues(t, q))
    for n, (value,), residue in walk:
        assert residue == value % q, n


def test_residues_reject_a_modulus_below_one():
    with pytest.raises(ParameterDomainError):
        next(cycle_residues(2, 0))


def test_jet_clamps_the_derivative_order_to_n():
    assert cycle_jet(5, 2, 10**9) == cycle_jet(5, 2, 5)
    assert len(cycle_jet(5, 2, 10**9)) == 6


def test_a_values():
    assert (a_value(1), a_value(2), a_value(3)) == (-3, 3, -9)
    assert a_value(4) == 27
    for n in range(1, 101):
        assert (a_value(n) > 0) == (n % 2 == 0)


def test_b_values():
    assert [b_value(n) % 9 for n in range(1, 7)] == [1, 1, 3, 3, 7, 6]
    assert [b_value(n) % 9 for n in range(25, 31)] == [8, 1, 3, 1, 1, 3]
    assert [b_value(n) % 9 for n in range(1, 31)] == list(B_MOD9)
    for n in range(1, 201):
        assert b_value(n) == b_value_by_factoring(n, a_value(n))
        assert b_value(n) % 9 != 0
        assert b_value(n) > 0
    walked = list(islice(b_values(), 200))
    a_walk = (a for (a,) in cycle_jets(-3))
    assert walked == [b_value_by_factoring(n, a) for n, a in zip(range(1, 201), a_walk)]


def test_b_period_27_mod_9():
    for t in range(1, 101):
        assert (b_value(t + 27) - b_value(t)) % 9 == 0


def test_factored_form_identity():
    for n in range(1, 61):
        assert a_value(n) == (-1) ** n * 3 ** ((n + 2) // 3) * b_value(n)


def test_ord3_classification():
    assert ord3_classification(6) == Ord3Class(6, 3, 0, False)
    assert ord3_classification(5) == Ord3Class(5, 2, 2, False)
    assert ord3_classification(4) == Ord3Class(4, 3, 1, True)
    assert ord3_classification(13).remark_exceptional
    assert ord3_classification(22).remark_exceptional
    assert ord3_classification(31).predicted_ord == 12  # 31 mod 27 = 4, ceil+1
    for n in range(1, 301):
        assert ord3_classification(n).predicted_ord == ord_p(a_value(n), 3)


def test_cycle_polynomial_holds_no_memory_after_return():
    tracemalloc.start()
    try:
        p = cycle_polynomial(600)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.degree == 600
    # D(C_600) itself is about 40 kB; a memo of D(C_1..C_600) is about 9 MB
    assert held < 1_000_000, held
