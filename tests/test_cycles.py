import tracemalloc
from itertools import islice, product

import pytest

from dompoly import checks, cycles
from dompoly.cycles import (
    B_MOD_9,
    JET_TABLE,
    alpha,
    b_values,
    beta,
    closed_jet,
    cycle_jet,
    cycle_jets,
    cycle_polynomial,
    cycle_polynomials,
    ord3_bounds,
    predicted_ord3,
    theta,
)
from dompoly.errors import InternalInconsistencyError, ParameterDomainError
from dompoly.graphs import cycle
from dompoly.oracle import domination_polynomial
from dompoly.polynomials import IntPolynomial, ord_p

import reference

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
    """A bad n is named before a bad k, even when min(k, n) would be the
    negative n."""
    for call, message in (
        (lambda: cycle_polynomial(0), "cycle sequences need n >= 1, got 0"),
        (lambda: cycle_jet(-2, -3), "cycle sequences need n >= 1, got -2"),
        (lambda: cycle_jet(-3, 2, 5), "cycle sequences need n >= 1, got -3"),
        (lambda: cycle_jet(-3, 2, -1), "cycle sequences need n >= 1, got -3"),
        (lambda: cycle_jet(0, 1), "cycle sequences need n >= 1, got 0"),
        (lambda: cycle_jet(5, 1, -1), "derivative order must be >= 0, got -1"),
        (lambda: next(cycle_jets(1, -1)), "derivative order must be >= 0, got -1"),
    ):
        with pytest.raises(ParameterDomainError) as raised:
            call()
        assert str(raised.value) == message


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
    assert cycle_jet(n, -3)[0] == p.eval_at(-3)


def test_jet_table_is_the_jet_at_minus_one():
    """Every row is 4 times an integer polynomial in n on its class; the
    table gives the jet's seeds at n = -2, -1, 0 and the jet at -1 after."""
    assert [closed_jet(n) for n in (-2, -1, 0)] == [(-1, 0, 0), (-1, 0, 0), (3, 0, 0)]
    for n, jet in zip(range(1, 3000), cycle_jets(-1, 2)):
        assert closed_jet(n) == jet, n
        assert (alpha(n), beta(n), theta(n)) == jet, n


def test_a_jet_row_that_is_not_4_times_an_integer_raises(monkeypatch):
    """A planted row component, (1, 2, -2) for theta on class 1 or one
    component of one row off by 1, 2 or -1, raises at every n of that class,
    negative n too, and leaves the other classes as they were."""
    expected = {n: closed_jet(n) for n in range(-6, 40)}
    plants = [(1, 2, (1, 2, -2))]
    for row, component, offset in product(range(4), range(3), (1, 2, -1)):
        c0, c1, c2 = JET_TABLE[row][component]
        plants.append((row, component, (c0 + offset, c1, c2)))
    for row, component, planted in plants:
        rows = [list(r) for r in JET_TABLE]
        rows[row][component] = planted
        monkeypatch.setattr(cycles, "JET_TABLE", tuple(map(tuple, rows)))
        for n in range(-6, 40):
            if n % 4 == row:
                with pytest.raises(InternalInconsistencyError, match=f"JET_TABLE row {row} "):
                    closed_jet(n)
            else:
                assert closed_jet(n) == expected[n], (row, component, planted, n)


def _list_closed_jet(n):
    """`closed_jet` as it was written before its straight-line form."""
    fours = [c0 + c1 * n + c2 * n * n for c0, c1, c2 in JET_TABLE[n % 4]]
    if any(v % 4 for v in fours):
        raise InternalInconsistencyError(f"JET_TABLE row {n % 4} is not 4 times an integer at n = {n}")
    return tuple(v // 4 for v in fours)


def test_closed_jet_matches_its_list_form():
    for n in range(-2, 2001):
        assert closed_jet(n) == _list_closed_jet(n), n


def test_cycle_polynomials_match_the_general_step():
    for n, p, q in zip(range(1, 301), cycle_polynomials(), reference.cycle_coefficients()):
        assert p.coeffs == q, n
        assert len(p.coeffs) == n + 1 and p.coeffs[-1] == 1, n


@pytest.mark.parametrize("t", (-3, -1, 0, 1, 2, 5))
def test_value_walk_matches_the_leibniz_step(t):
    """cycle_jets(t) holds three ints; component 0 of the reference Leibniz
    step on whole 1-jets gives the same values."""
    walks = zip(range(1, 501), cycle_jets(t), reference.leibniz_jets(t, 1))
    for n, value, jet in walks:
        assert type(value) is tuple and value == (jet[0],), n


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("t", (-3, -1, 0, 1, 2, 5))
def test_jet_walks_match_the_leibniz_step(t, k):
    """cycle_jets(t, 2) writes the step out on nine ints, cycle_jets(t, 1)
    reads (D, D') off that walk, and k = 3 takes the step on whole jets:
    each equals the reference step to n = 300, and D(C_n) differentiated
    and evaluated to n = 40."""
    walks = zip(range(1, 301), cycle_jets(t, k), reference.leibniz_jets(t, k))
    for n, jet, expected in walks:
        assert type(jet) is tuple and jet == expected, n
        if n <= 40:
            assert jet == reference.direct_jet(cycle_polynomial(n).coeffs, t, k), n


def test_b_mod_9_is_one_period_of_b():
    assert len(B_MOD_9) == 27 and B_MOD_9 == B_MOD9[:27]
    for n, b_n in zip(range(1, 5001), b_values()):
        assert cycles.b_mod_9(n) == b_n % 9, n


def test_reference_routes_do_not_read_the_tables(monkeypatch):
    """The routes the tables are checked against give the same answers with
    both tables gone."""
    def answers():
        a, b = _a_values(30), list(islice(b_values(), 30))
        return (
            list(islice(cycle_polynomials(), 30)), list(islice(cycle_jets(-1, 2), 30)), a, b,
            [a_n == (-1) ** n * 3 ** ((n + 2) // 3) * b_n for n, a_n, b_n in zip(range(1, 31), a, b)],
            [ord3_bounds(n) for n in range(1, 31)],
        )

    expected = answers()
    assert all(expected[4])
    monkeypatch.setattr(cycles, "JET_TABLE", None)
    monkeypatch.setattr(cycles, "B_MOD_9", None)
    assert answers() == expected


@pytest.mark.parametrize("t", (-3, -1, 0, 1, 2))
def test_jet_matches_differentiated_polynomial(t):
    for n, p, jet in zip(range(1, 201), cycle_polynomials(), cycle_jets(t, 3)):
        assert jet == reference.direct_jet(p.coeffs, t, 3), n
    # cycle_jet leaves out the derivatives above the degree n
    for n in range(1, 6):
        jet = cycle_jet(n, t, 3)
        assert len(jet) == min(3, n) + 1, n
        assert jet + (0,) * (4 - len(jet)) == reference.direct_jet(cycle_polynomial(n).coeffs, t, 3), n


def test_jet_clamps_the_derivative_order_to_n():
    assert cycle_jet(5, 2, 10**9) == cycle_jet(5, 2, 5)
    assert len(cycle_jet(5, 2, 10**9)) == 6


def _a_values(count):
    """a_1, ..., a_count from one walk of the jet at -3."""
    return [a for (a,) in islice(cycle_jets(-3), count)]


def test_a_values():
    a = _a_values(100)
    assert a[:4] == [-3, 3, -9, 27]
    for n, a_n in enumerate(a, start=1):
        assert (a_n > 0) == (n % 2 == 0)


def test_b_values():
    b = list(islice(b_values(), 200))   # b[n - 1] = b_n
    assert [b_n % 9 for b_n in b[:6]] == [1, 1, 3, 3, 7, 6]
    assert [b_n % 9 for b_n in b[24:30]] == [8, 1, 3, 1, 1, 3]
    assert [b_n % 9 for b_n in b[:30]] == list(B_MOD9)
    for n, (b_n, a_n) in enumerate(zip(b, _a_values(200)), start=1):
        assert a_n == (-1) ** n * 3 ** ((n + 2) // 3) * b_n
        assert b_n % 9 != 0
        assert b_n > 0


def test_b_period_27_mod_9():
    b = list(islice(b_values(), 127))
    for t in range(1, 101):
        assert (b[t + 26] - b[t - 1]) % 9 == 0


def test_factored_form_identity():
    walk = zip(range(1, 61), _a_values(60), b_values())
    for n, a_n, b_n in walk:
        assert a_n == (-1) ** n * 3 ** ((n + 2) // 3) * b_n


def test_ord3_classification():
    assert (predicted_ord3(6), predicted_ord3(5), predicted_ord3(4)) == (3, 2, 3)
    assert predicted_ord3(13) == 6 and predicted_ord3(22) == 9  # ceil + 1
    assert predicted_ord3(31) == 12  # 31 mod 27 = 4, ceil+1
    assert predicted_ord3(7) == 3  # 7 mod 27 is no exception: ceil only
    for n, a_n in enumerate(_a_values(300), start=1):
        assert predicted_ord3(n) == ord_p(a_n, 3)


def test_the_checks_walk_at_minus_three_is_exact():
    """The walk L6-ord3, R1-remark and T5-partitions read: a_n and b_n as
    their own walks give them, the identity holding, and ord_3(a_n) equal
    to the valuation by division, for n <= 2000."""
    walk = checks._minus_three_walk(2000)
    expected = zip(range(1, 2001), cycle_jets(-3), b_values())
    for (n, a_n, b_n, holds, ord3), (m, (a_m,), b_m) in zip(walk, expected, strict=True):
        assert (n, a_n, b_n, holds) == (m, a_m, b_m, True), m
        assert ord3 == ord_p(a_n, 3) == predicted_ord3(n), n


def test_ord3_bounds_is_the_three_branch_table():
    for n in range(1, 1001):
        base = (n + 2) // 3
        branches = {0: (base + 1, base + 1), 1: (base, base + 1), 2: (base, base)}
        assert ord3_bounds(n) == branches[n % 3], n
    with pytest.raises(ParameterDomainError):
        ord3_bounds(0)


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
