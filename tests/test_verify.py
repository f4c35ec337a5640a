import collections
import hashlib
import itertools
import json
import math
import operator
import random
from functools import cache

import pytest

from dompoly.cycles import alpha, cycle_jets, cycle_polynomial, cycle_polynomials
from dompoly.errors import InputError, ParameterDomainError, SizeGuardError
from dompoly.graphs import Graph, cycle, disjoint_union, encode_graph6, complete, parse_graph6, path, wheel
from dompoly.oracle import domination_polynomial
from dompoly.polynomials import IntPolynomial, ord_p
from dompoly import checks, cycles, oracle, verify
from dompoly.checks import FINGERPRINT_MODULUS, FINGERPRINT_POINT, TEN_CASES
from dompoly.verify import (
    CHECKS,
    classify_corpus,
    enumerate_partitions,
    match_partitions,
    partition_polynomial,
    path_companion,
    run_all,
    verify_alpha,
    verify_beta,
    verify_cycle_recurrence,
    verify_cycle_uniqueness_by_elimination,
    verify_gamma_additivity_and_ceiling,
    verify_ord3_table,
    verify_path_class,
    verify_remark,
    verify_ten_case_table,
    verify_theta,
    verify_union_product,
    verify_wheel_uniqueness,
)

import reference


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def test_enumerate_partitions_examples():
    assert list(enumerate_partitions(6, 3)) == [(6,), (3, 3)]
    assert list(enumerate_partitions(7, 3)) == [(7,), (4, 3)]
    assert list(enumerate_partitions(9, 3)) == [(9,), (6, 3), (5, 4), (3, 3, 3)]
    assert list(enumerate_partitions(3, 1)) == [(3,), (2, 1), (1, 1, 1)]


def test_partition_canonical_form():
    for parts in enumerate_partitions(17, 3):
        assert sum(parts) == 17
        assert all(p >= 3 for p in parts)
        assert list(parts) == sorted(parts, reverse=True)
    seen = list(enumerate_partitions(17, 3))
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("min_part,n_max", ((1, 35), (3, 60)))
def test_partition_count_matches_recurrence(min_part, n_max):
    for n in range(1, n_max + 1):
        expected = len(reference.partitions(n, min_part))
        assert sum(1 for _ in enumerate_partitions(n, min_part)) == expected


@pytest.mark.parametrize("min_part", (1, 3))
def test_enumerate_partitions_matches_naive_recursion(min_part):
    for n in range(1, 31):
        assert list(enumerate_partitions(n, min_part)) == reference.partitions(n, min_part), n


def test_enumerate_partitions_validation():
    with pytest.raises(ParameterDomainError):
        list(enumerate_partitions(6, 2))
    with pytest.raises(ParameterDomainError):
        list(enumerate_partitions(0, 3))


def test_partition_polynomial():
    assert partition_polynomial((3, 3)) == IntPolynomial((0, 0, 9, 18, 15, 6, 1))
    assert partition_polynomial((11,)) == cycle_polynomial(11)
    # value frozen from the brute-force oracle on C_4 + C_3
    expected = domination_polynomial(disjoint_union(cycle(4), cycle(3)))
    assert partition_polynomial((4, 3)) == expected
    assert expected == IntPolynomial((0, 0, 0, 18, 30, 21, 7, 1))
    assert partition_polynomial(()) == IntPolynomial.one()


def test_fingerprint_is_the_cycle_polynomial_value_mod_the_prime():
    """`match_partitions` fingerprints D(C_p, t) from the jet walk, reduced mod the prime."""
    modulus = FINGERPRINT_MODULUS
    for p, poly, (value,) in zip(range(1, 201), cycle_polynomials(), cycle_jets(FINGERPRINT_POINT)):
        assert value % modulus == poly.eval_at(FINGERPRINT_POINT) % modulus, p


@pytest.mark.parametrize("min_part,n_max", ((3, 30), (1, 22)))
def test_fingerprint_filter_keeps_every_match(min_part, n_max):
    for n in range(3, n_max + 1):
        target = cycle_polynomial(n)
        exhaustive = [
            parts for parts in enumerate_partitions(n, min_part)
            if partition_polynomial(parts) == target
        ]
        filtered = [parts for parts, outcome in match_partitions(n, min_part) if outcome]
        assert filtered == exhaustive == [(n,)], n


@pytest.mark.parametrize("min_part,n_max", ((3, 30), (1, 22)))
def test_match_partitions_yields_every_partition_and_the_exact_answer(min_part, n_max):
    """The parts come in `enumerate_partitions` order, and an outcome that
    is not None is the exact compare's answer."""
    for n in range(1, n_max + 1):
        target = cycle_polynomial(n)
        matched = list(match_partitions(n, min_part))
        assert [parts for parts, _ in matched] == list(enumerate_partitions(n, min_part)), n
        for parts, outcome in matched:
            if outcome is not None:
                assert outcome == (partition_polynomial(parts) == target), parts


@pytest.mark.parametrize("min_part,n_max", ((3, 30), (1, 22)))
def test_match_partitions_compares_exactly_the_fingerprint_matches(monkeypatch, min_part, n_max):
    """`partition_polynomial` runs once for each partition whose outcome is
    not None, with its parts, and never for a partition the fingerprint
    rejected: the exact compare is that call against D(C_n)."""
    built = []
    real = checks.partition_polynomial
    monkeypatch.setattr(checks, "partition_polynomial", lambda parts: built.append(parts) or real(parts))
    for n in range(min_part, n_max + 1):
        built.clear()
        compared = [parts for parts, outcome in match_partitions(n, min_part) if outcome is not None]
        assert built == compared, n


def _search(n_min, n_max, min_part=3):
    """`checks.match_partitions` over n = n_min..n_max: the partitions it
    yields, the full compares it runs (outcomes not None), and, by n, the
    partitions it finds equal to D(C_n)."""
    searched = compared = 0
    matches = {}
    for n in range(n_min, n_max + 1):
        matches[n] = []
        for parts, outcome in checks.match_partitions(n, min_part):
            searched += 1
            compared += outcome is not None
            if outcome:
                matches[n].append(parts)
    return searched, compared, matches


def test_fingerprint_filter_only_rejects(monkeypatch):
    """Modulo 1 every fingerprint is 0, so nothing is filtered out; the
    answer stays the same, so a match is always decided by the full compare."""
    searched, filtered, matches = _search(3, 20)
    monkeypatch.setattr(checks, "FINGERPRINT_MODULUS", 1)
    assert _search(3, 20) == (searched, searched, matches)
    assert filtered < searched


# ---------------------------------------------------------------------------
# Identity reports
# ---------------------------------------------------------------------------

def test_union_product_report():
    rep = verify_union_product(max_order=7)
    assert rep.passed and rep.lemma_id == "L2-union"
    assert rep.details == {"pairs": 200, "seed": 20250810}
    assert rep.counterexamples == []


def test_cycle_recurrence_report():
    assert verify_cycle_recurrence(12).passed


def test_gamma_report():
    rep = verify_gamma_additivity_and_ceiling(14)
    assert rep.passed


def test_gamma_oracle_sub_check_runs_to_the_default_guard(monkeypatch):
    orders = []
    number = verify.domination_number
    monkeypatch.setattr(verify, "domination_number", lambda g: orders.append(g.n) or number(g))
    assert verify_gamma_additivity_and_ceiling(24).passed
    assert orders == list(range(1, 25))
    orders.clear()
    verify_gamma_additivity_and_ceiling(30)
    assert orders == list(range(1, 25))


def test_gamma_fails_on_a_planted_lowest_index(monkeypatch):
    """x * D(C_9) at n = 9 starts one index late: one lowest-index
    counterexample, at n = 9, and nothing else."""
    walk = verify.cycle_polynomials

    def planted():
        for n, poly in enumerate(walk(), start=1):
            yield IntPolynomial.x() * poly if n == 9 else poly

    monkeypatch.setattr(verify, "cycle_polynomials", planted)
    rep = verify_gamma_additivity_and_ceiling(15)
    assert rep.status == "fail"
    assert [(ex["check"], ex["n"], ex["lowest_index"]) for ex in rep.counterexamples] == [
        ("lowest-index", 9, 4)
    ]


def test_partition_lowest_index_is_the_sum_of_part_ceilings():
    """The partition route of L4's additivity, where it overlaps the
    lowest-index walk: every cycle partition of n <= 20 has a product
    starting at x^(sum of ceil(p/3))."""
    for n in range(3, 21):
        for parts in enumerate_partitions(n, 3):
            poly = partition_polynomial(parts)
            lowest = next(i for i, c in enumerate(poly) if c)
            assert lowest == sum((p + 2) // 3 for p in parts), parts


def test_gamma_and_ten_cases_enumerate_no_partition(monkeypatch):
    calls = []
    for mod in (checks, verify):
        for name in ("enumerate_partitions", "match_partitions"):
            monkeypatch.setattr(mod, name, lambda *args, name=name: calls.append(name))
    assert verify_gamma_additivity_and_ceiling(200).passed
    assert verify_ten_case_table(60).passed
    assert calls == []


def test_scalar_reports():
    assert verify_alpha(120).passed
    assert verify_beta(120).passed
    assert verify_theta(120).passed


@pytest.mark.parametrize("j", (0, 1, 2))
def test_weighted_evaluation_matches_differentiation(j):
    """D^(j)(-1) as one weighted sum of the coefficients, against j
    derivatives then Horner's rule, on D(C_1..C_300) and on seeded random
    polynomials: the zero and constant ones, negative coefficients."""
    weights = checks._derivative_weights(j, 301)
    for n, p in zip(range(1, 301), cycle_polynomials()):
        assert sum(map(operator.mul, p.coeffs, weights)) == reference.direct_jet(p.coeffs, -1, j)[j], n
    rng = random.Random(25)
    polys = [IntPolynomial(), IntPolynomial((7,)), IntPolynomial((-4,)), IntPolynomial((0, -1))]
    polys += [IntPolynomial(rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 40)))
              for _ in range(300)]
    for p in polys:
        weights = checks._derivative_weights(j, len(p.coeffs))
        assert sum(map(operator.mul, p.coeffs, weights)) == reference.direct_jet(p.coeffs, -1, j)[j], p


@pytest.mark.parametrize("exponent", (3, 17, 25))
def test_scalar_reports_evaluate_every_coefficient_of_the_walk(monkeypatch, exponent):
    """A walk whose D(C_12) carries x^exponent more fails L5, REL2 and REL3
    at n = 12 alone, with the evaluation of the planted polynomial; at
    exponent 25, above n_max, the weights grow to reach the extra term."""
    walk = checks.cycle_polynomials
    extra = IntPolynomial((0,) * exponent + (1,))

    def planted():
        for n, p in enumerate(walk(), 1):
            yield p + extra if n == 12 else p

    monkeypatch.setattr(checks, "cycle_polynomials", planted)
    wrong = cycle_polynomial(12) + extra
    for j, check in enumerate((verify_alpha, verify_beta, verify_theta)):
        rep = check(20)
        assert rep.status == "fail"
        assert [(ex["n"], ex["evaluation"]) for ex in rep.counterexamples] == [
            (12, str(reference.direct_jet(wrong.coeffs, -1, j)[j]))
        ]


def test_ord3_and_remark_reports():
    assert verify_ord3_table(400).passed
    assert verify_remark(400).passed


def _minus_three_values(n_max):
    return [a for (a,) in itertools.islice(cycle_jets(-3), n_max)]


def test_ord3_checks_fail_on_a_tripled_minus_three_jet(monkeypatch):
    """ord_3 one above the truth at every n: L6 fails wherever the truth is
    the table's upper bound (n = 3k, 3k+2, and 3k+1 with n mod 27 in {4, 13,
    22}), R1 at every n, and each payload gives the planted value's ord_3."""
    values = _minus_three_values(40)
    _plant_tripled_minus_three_jet(monkeypatch)
    above = [n for n in range(1, 41) if n % 3 != 1 or n % 27 in (4, 13, 22)]
    for rep, check, ns in (
        (verify_ord3_table(40), "ord3-bound", above),
        (verify_remark(40), "exact-ord3", list(range(1, 41))),
    ):
        found = [ex for ex in rep.counterexamples if ex["check"] == check]
        assert rep.status == "fail" and [ex["n"] for ex in found] == ns, check
        for ex in found:
            assert ex["ord3"] == ord_p(3 * values[ex["n"] - 1], 3) == ord_p(values[ex["n"] - 1], 3) + 1


def test_ord3_table_fails_without_raising_below_the_table(monkeypatch):
    """a_7 + 1 has ord_3 0, below ceil(7/3), so it has no b_7 to factor
    out: L6 reports the bound at n = 7 and skips the b compare there, and
    R1 fails at n = 7 as well."""
    jets = checks.cycle_jets

    def planted(t, k=0):
        for n, jet in enumerate(jets(t, k), start=1):
            yield (jet[0] + 1, *jet[1:]) if t == -3 and n == 7 else jet

    monkeypatch.setattr(checks, "cycle_jets", planted)
    rep = verify_ord3_table(40)
    assert rep.status == "fail"
    assert [(ex["check"], ex["n"], ex["ord3"]) for ex in rep.counterexamples] == [("ord3-bound", 7, 0)]
    rep = verify_remark(40)
    assert [(ex["check"], ex["n"]) for ex in rep.counterexamples] == [("exact-ord3", 7)]


def _plant_b_step(monkeypatch):
    """b_values with its n = 3k+1 step one too high at n = 19; the values
    after it follow the recurrence from the wrong one."""
    def planted():
        older, old, last = -1, 1, 3
        for n in itertools.count(1):
            if n % 3 == 0:
                b = 3 * last - 3 * old + older
            elif n % 3 == 1:
                b = last - old + older + (n == 19)
            else:
                b = 3 * last - old + older
            yield b
            older, old, last = old, last, b

    monkeypatch.setattr(checks, "b_values", planted)


def test_a_wrong_b_step_fails_l6_and_r1_but_not_the_elimination(monkeypatch):
    """A wrong b_n breaks a_n = (-1)^n * 3^ceil(n/3) * b_n from n = 19 on:
    L6 reports it with b_n factored out of the true a_n, and R1 and L6's
    mod-9 checks see the wrong residues. ord_3(a_n) is still exact there,
    so R1's and L6's ord_3 checks and T5-partitions' premise, which read
    a_n alone, pass."""
    true_b = list(itertools.islice(cycles.b_values(), 200))
    _plant_b_step(monkeypatch)
    wrong_b = list(itertools.islice(checks.b_values(), 200))
    assert wrong_b[:18] == true_b[:18] and wrong_b[18] == true_b[18] + 1
    ord3 = verify_ord3_table(200)
    assert ord3.status == "fail"
    assert {ex["check"] for ex in ord3.counterexamples} == {"b-routes", "golden-vector", "nine-divides-b"}
    routes = [ex for ex in ord3.counterexamples if ex["check"] == "b-routes"]
    assert [ex["n"] for ex in routes] == [n for n in range(19, 201) if wrong_b[n - 1] != true_b[n - 1]]
    assert all(ex["factoring"] == str(true_b[ex["n"] - 1]) for ex in routes)
    assert all(ex["recurrence"] == str(wrong_b[ex["n"] - 1]) for ex in routes)
    assert [ex["n"] for ex in ord3.counterexamples if ex["check"] == "nine-divides-b"] == [
        n for n in range(1, 201) if wrong_b[n - 1] % 9 == 0
    ]
    remark = verify_remark(200)
    assert remark.status == "fail"
    assert [ex["n"] for ex in remark.counterexamples if ex["check"] == "period-27"] == [
        n for n in range(1, 201) if wrong_b[n - 1] % 9 != true_b[n - 1] % 9
    ]
    assert {ex["check"] for ex in remark.counterexamples} == {"period-27"}
    assert verify_cycle_uniqueness_by_elimination(200).passed


def test_a_planted_nine_in_both_a_and_b_is_valued_exactly(monkeypatch):
    """a_20 and b_20 both times 9: the identity still holds at n = 20, but 9
    divides b_20, so ord_3(a_20) is taken by division, two above the table.
    Each check reports that exact value; L6 and R1 see 9 | b_20 as well."""
    jets, b_walk = checks.cycle_jets, checks.b_values

    def planted_jets(t, k=0):
        for n, jet in enumerate(jets(t, k), start=1):
            yield (9 * jet[0], *jet[1:]) if t == -3 and n == 20 else jet

    monkeypatch.setattr(checks, "cycle_jets", planted_jets)
    monkeypatch.setattr(checks, "b_values", lambda: (9 * b if n == 20 else b for n, b in enumerate(b_walk(), 1)))
    a_20 = 9 * _minus_three_values(20)[-1]
    assert (ord3 := ord_p(a_20, 3)) == checks.predicted_ord3(20) + 2
    assert [(ex["check"], ex["n"]) for ex in verify_ord3_table(40).counterexamples] == [
        ("ord3-bound", 20), ("nine-divides-b", 20), ("golden-vector", 20),
    ]
    assert verify_ord3_table(40).counterexamples[0]["ord3"] == ord3
    assert [ex for ex in verify_remark(40).counterexamples if ex["check"] == "exact-ord3"] == [
        {"check": "exact-ord3", "n": 20, "ord3": ord3, "predicted": checks.predicted_ord3(20)},
    ]
    rep = verify_cycle_uniqueness_by_elimination(40)
    assert [(ex["check"], ex["n"]) for ex in rep.counterexamples] == [("ord3-table", 20)]


def _plant_b_mod_9(monkeypatch, n, value):
    """B_MOD_9 with the entry for n (mod 27) replaced by value."""
    table = list(cycles.B_MOD_9)
    table[(n - 1) % 27] = value
    monkeypatch.setattr(cycles, "B_MOD_9", tuple(table))


def test_remark_fails_on_a_raised_prediction(monkeypatch):
    """b_17 mod 9 is 4; planted as 3, it raises predicted_ord3(17) by one."""
    predicted = checks.predicted_ord3(17)
    _plant_b_mod_9(monkeypatch, 17, 3)
    rep = verify_remark(40)
    assert [ex for ex in rep.counterexamples if ex["check"] == "exact-ord3"] == [
        {"check": "exact-ord3", "n": 17, "ord3": ord_p(_minus_three_values(17)[-1], 3),
         "predicted": predicted + 1},
    ]
    assert [ex for ex in rep.counterexamples if ex["check"] == "period-27"] == [
        {"check": "period-27", "n": 17, "b_mod_9": 4, "expected": 3},
    ]


@pytest.mark.parametrize("n", range(1, 28))
def test_a_wrong_b_mod_9_entry_fails_remark_and_the_golden_vector(monkeypatch, n):
    """One entry of the period off: R1 reports it at every n of its class
    mod 27 in range, and L6's golden vector at those n <= 30."""
    wrong = cycles.B_MOD_9[n - 1] % 9 + 1
    _plant_b_mod_9(monkeypatch, n, wrong)
    hits = list(range(n, 61, 27))
    rep = verify_remark(60)
    period = [ex for ex in rep.counterexamples if ex["check"] == "period-27"]
    assert rep.status == "fail" and [ex["n"] for ex in period] == hits
    assert {ex["expected"] for ex in period} == {wrong}
    rep = verify_ord3_table(60)
    assert rep.status == "fail"
    assert [(ex["check"], ex["n"]) for ex in rep.counterexamples] == [
        ("golden-vector", m) for m in hits if m <= 30
    ]


def test_remark_claim_is_read_off_b_mod_9():
    """Where n = 3k+1, ord_3(a_n) is one above ceil(n/3) exactly when 3
    divides b_n mod 9: the residues mod 27 that R1's claim names. No entry
    is 0, which is L6's "9 never divides b_n"."""
    table = cycles.B_MOD_9
    raised = sorted(r for r in range(1, 28) if r % 3 == 1 and table[r - 1] % 3 == 0)
    assert raised == [4, 13, 22]
    assert "{%s}" % ",".join(map(str, raised)) in verify.CHECKS["R1-remark"].claim
    assert "b mod 9 has period 27" in verify.CHECKS["R1-remark"].claim
    assert len(table) == 27 and 0 not in table
    assert "9 never divides b_n" in verify.CHECKS["L6-ord3"].claim


def test_report_json_shape():
    rep = verify_alpha(10)
    d = rep.to_json_dict()
    assert d["lemma_id"] == "L5-alpha"
    assert d["range"] == [1, 10]
    assert d["status"] == "pass"
    assert d["counterexamples"] == []
    assert isinstance(d["timing_ms"], int)


# ---------------------------------------------------------------------------
# Uniqueness among cycle partitions
# ---------------------------------------------------------------------------

def test_cycle_uniqueness_single():
    searched, _, matches = _search(6, 6)
    assert matches == {6: [(6,)]}
    assert searched == 2
    # the lone rival {3,3} differs at x^3: 14 vs 18
    assert cycle_polynomial(6).coefficient(3) == 14
    assert partition_polynomial((3, 3)).coefficient(3) == 18


def test_cycle_uniqueness_12():
    searched, compared, matches = _search(12, 12)
    assert matches == {12: [(12,)]}
    assert searched == 9
    # only the trivial partition survives the fingerprint
    assert compared == 1


def test_cycle_uniqueness_range():
    _, _, matches = _search(3, 25)
    assert matches == {n: [(n,)] for n in range(3, 26)}


def test_cycle_uniqueness_min_part_one():
    _, _, matches = _search(8, 8, min_part=1)
    assert matches == {8: [(8,)]}


@pytest.mark.parametrize("min_part,n_max", ((3, 40), (1, 25)))
def test_elimination_agrees_with_enumeration(min_part, n_max):
    """At every n the elimination passes exactly where the reference
    enumeration finds no rival partition, and both pass over the range."""
    for n in range(3, n_max + 1):
        eliminated = verify_cycle_uniqueness_by_elimination(n, min_part)
        assert eliminated.passed == (reference.cycle_partition_rivals(n, min_part) == []), n
        assert eliminated.range_checked == (3, n)
    eliminated = verify_cycle_uniqueness_by_elimination(n_max, min_part)
    assert (eliminated.status, eliminated.counterexamples) == ("pass", [])
    assert eliminated.range_checked == (3, n_max)


@pytest.mark.parametrize("min_part", (1, 3))
def test_elimination_default_range(monkeypatch, min_part):
    """The default range passes by the ten certificates, with no partition
    enumerated; cases 7 and 10 fall at theta, case 1 mod 4, the rest by sign."""
    calls = []
    for name in ("enumerate_partitions", "match_partitions", "partition_polynomial"):
        monkeypatch.setattr(checks, name, lambda *args, name=name: calls.append(name))
    rep = verify_cycle_uniqueness_by_elimination(min_part=min_part)
    assert calls == []
    assert rep.passed and rep.range_checked == (3, 1000)
    assert set(rep.details) == {"route", "cases", "min_part"}
    assert rep.details["route"] == "elimination" and rep.details["min_part"] == min_part
    cases = rep.details["cases"]
    assert sorted(cases, key=int) == [str(c) for c in range(1, 11)]
    assert {c: cert["component"] for c, cert in cases.items() if cert["component"] != "beta"} == {
        "7": "theta", "10": "theta",
    }
    assert {c: cert["witness"] for c, cert in cases.items() if cert["witness"] != "sign"} == {
        "1": "mod 4",
    }
    assert cases["1"]["difference"] == {"1": -7 if min_part == 3 else 1, "k2": -8, "k3": 4}


def test_elimination_validation():
    with pytest.raises(ParameterDomainError):
        verify_cycle_uniqueness_by_elimination(10, min_part=2)


def _difference_at(difference: dict, k) -> int:
    """A certificate's difference polynomial, its terms named as "1", "k2",
    "C(k1,2)" or "k1*k3", evaluated at the point k."""
    names = {"C": math.comb, "k1": k[0], "k2": k[1], "k3": k[2], "__builtins__": {}}
    return sum(c * eval(term, names) for term, c in difference.items())


@pytest.mark.parametrize("min_part", (1, 3))
def test_case_certificates_are_the_jet_differences(min_part):
    """Each case's polynomial equals the difference of the recurrence's jets
    at -1, product of the parts' minus n's, at every k in {0..3}^3; where it
    is theta's, beta's difference is 0 there."""
    jets = {m: reference.direct_jet(p.coeffs, -1, 2) for m, p in zip(range(1, 61), cycle_polynomials())}
    for pattern, case in TEN_CASES.items():
        certificate = checks._case_certificate(pattern, min_part)
        least = [min_part + (r - min_part) % 4 for r in pattern[1]]
        component = ("beta", "theta").index(certificate["component"]) + 1
        for k in itertools.product(range(4), repeat=3):
            parts = [4 * k_i + m for k_i, m in zip(k, least)]
            f, g, h = (jets[m] for m in parts)
            product = checks._jet_product(checks._jet_product(f, g), h)
            difference = [p - q for p, q in zip(product, jets[sum(parts)])]
            assert difference[0] == 0, (case, k)
            assert _difference_at(certificate["difference"], k) == difference[component], (case, k)
            assert component == 1 or difference[1] == 0, (case, k)


def _plant_jet_row(monkeypatch, row, component, coefficients):
    """JET_TABLE with one component of one row replaced."""
    rows = [list(r) for r in cycles.JET_TABLE]
    rows[row][component] = coefficients
    monkeypatch.setattr(cycles, "JET_TABLE", tuple(map(tuple, rows)))


def _plant_theta_off_by_one(monkeypatch, row=2):
    c0, c1, c2 = cycles.JET_TABLE[row][2]
    _plant_jet_row(monkeypatch, row, 2, (c0 + 4, c1, c2))


@pytest.mark.parametrize("row", range(4))
def test_a_theta_row_off_by_one_fails_rel3_and_the_elimination(monkeypatch, row):
    theta = [checks.closed_jet(n)[2] for n in range(41)]
    _plant_theta_off_by_one(monkeypatch, row)
    rep = verify_theta(40)
    assert rep.status == "fail"
    assert [ex["n"] for ex in rep.counterexamples] == [n for n in range(1, 41) if n % 4 == row]
    assert all(ex["closed_form"] == str(theta[ex["n"]] + 1) for ex in rep.counterexamples)
    assert verify_alpha(40).passed and verify_beta(40).passed
    rep = verify_cycle_uniqueness_by_elimination(40)
    found = [ex["n"] for ex in rep.counterexamples if ex["check"] == "closed-form-jet"]
    assert rep.status == "fail" and found == [n for n in range(1, 41) if n % 4 == row]


def _plant_dropped_case(monkeypatch):
    monkeypatch.setattr(checks, "TEN_CASES", {p: c for p, c in TEN_CASES.items() if c != 4})


def _plant_tripled_minus_three_jet(monkeypatch):
    jets = checks.cycle_jets

    def planted(t, k=0):
        for jet in jets(t, k):
            yield (3 * jet[0], *jet[1:]) if t == -3 else jet

    monkeypatch.setattr(checks, "cycle_jets", planted)


@pytest.mark.parametrize("plant,check", (
    (_plant_theta_off_by_one, "closed-form-jet"),
    (_plant_dropped_case, "ten-cases-table"),
    (_plant_tripled_minus_three_jet, "ord3-table"),
))
def test_elimination_fails_on_a_planted_fault(monkeypatch, plant, check):
    plant(monkeypatch)
    rep = verify_cycle_uniqueness_by_elimination(40)
    assert rep.status == "fail"
    assert check in {ex["check"] for ex in rep.counterexamples}


# ---------------------------------------------------------------------------
# Ten-case table
# ---------------------------------------------------------------------------

def test_ten_cases_table_is_exactly_the_alpha_compatible_patterns():
    """Exhaustively recompute which residue patterns admit the alpha product."""
    def a(r):
        return 3 if r == 0 else -1

    expected = {}
    case_ids = set()
    for r1 in range(4):
        for r2 in range(r1, 4):
            for r3 in range(r2, 4):
                n_res = (r1 + r2 + r3) % 4
                if a(n_res) == a(r1) * a(r2) * a(r3):
                    expected[(n_res, tuple(sorted((r1, r2, r3))))] = True
    assert set(TEN_CASES) == set(expected)
    assert sorted(TEN_CASES.values()) == list(range(1, 11))
    case_ids.update(TEN_CASES.values())
    assert len(case_ids) == 10


def test_triples_are_the_part_triples_up_to_n_max_in_order():
    """`_part_pairs` gives each pair (n1, n2) with its nonempty range of n3."""
    for n_max in (0, 8, 9, 10, 17, 30):
        pairs = list(checks._part_pairs(n_max))
        assert all(n3s for _, _, n3s in pairs), n_max
        assert [(n1, n2, n3) for n1, n2, n3s in pairs for n3 in n3s] == reference.part_triples(n_max), n_max


def test_jet_product_is_the_jet_of_the_product():
    def jet(p, t):
        return reference.direct_jet(p.coeffs, t, 2)

    rng = random.Random(8)
    for _ in range(50):
        f = IntPolynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6))))
        g = IntPolynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6))))
        for t in (-1, 0, 2):
            assert checks._jet_product(jet(f, t), jet(g, t)) == jet(f * g, t), (f, g, t)


def test_ten_case_table_reads_no_fingerprint_and_compares_nothing(monkeypatch):
    """At -1 the 2-jet alone eliminates every triple to n = 150."""
    calls = []

    def spy(name):
        real = getattr(checks, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("match_partitions", "partition_polynomial", "cycle_jets"):
        monkeypatch.setattr(checks, name, spy(name))
    rep = verify_ten_case_table(150)
    assert rep.passed and rep.range_checked == (9, 150)
    assert rep.details["full_compares"] == 0
    assert calls == []


def test_ten_case_jet_only_rejects(monkeypatch):
    """With beta and theta planted as 0 every alpha-compatible triple's jet
    agrees with n's; the exact compare then decides each of them, and finds
    no product equal to D(C_n), so the jet never decides a match."""
    compared = []

    real = checks.partition_polynomial

    def product(parts):
        compared.append(parts)
        return real(parts)

    for row in range(4):
        _plant_jet_row(monkeypatch, row, 1, (0, 0, 0))
        _plant_jet_row(monkeypatch, row, 2, (0, 0, 0))
    monkeypatch.setattr(checks, "partition_polynomial", product)
    rep = verify_ten_case_table(40)
    alpha_compatible = [
        (n1, n2, n3) for n1, n2, n3 in reference.part_triples(40)
        if alpha(n1 + n2 + n3) == alpha(n1) * alpha(n2) * alpha(n3)
    ]
    assert compared == alpha_compatible
    assert rep.details["full_compares"] == rep.details["alpha_compatible"] == len(compared) > 0
    assert all(ex["check"] != "product-equals-cycle" for ex in rep.counterexamples)


def _not_eliminated(rep):
    assert all(ex["check"] == "case-not-eliminated" for ex in rep.counterexamples)
    return {(ex["n"], ex["case"], tuple(ex["partition"])) for ex in rep.counterexamples}


def test_ten_cases_catch_cases_7_and_10_with_theta_planted_to_0(monkeypatch):
    """Cases 7 and 10 are eliminated by theta alone: planted to 0, every
    alpha-compatible triple of those cases is reported, and no other."""
    for row in range(4):
        _plant_jet_row(monkeypatch, row, 2, (0, 0, 0))
    rep = verify_ten_case_table(40)
    expected = set()
    for parts in reference.part_triples(40):
        n = sum(parts)
        case = TEN_CASES.get((n % 4, tuple(sorted(p % 4 for p in parts))))
        if case in (7, 10):
            expected.add((n, case, parts))
    assert len(expected) == 66
    assert _not_eliminated(rep) == expected
    assert {ex["component"] for ex in rep.counterexamples} == {"theta"}


def test_ten_cases_catch_a_planted_beta_past_the_certificates(monkeypatch):
    """beta(40) planted to -79, the beta of (21, 16, 3)'s product: the two
    case-1 triples whose product has that beta are reported. The case
    certificates read n <= 26 only, so they stay as they were."""
    real = checks.closed_jet
    planted = (real(40)[0], -79, real(40)[2])
    monkeypatch.setattr(checks, "closed_jet", lambda n: planted if n == 40 else real(n))
    jets = {n: real(n) for n in (3, 16, 21)}
    assert checks._jet_product(checks._jet_product(jets[21], jets[16]), jets[3])[1] == -79
    rep = verify_ten_case_table(40)
    assert _not_eliminated(rep) == {(40, 1, (21, 16, 3)), (40, 1, (25, 11, 4))}
    assert {ex["component"] for ex in rep.counterexamples} == {"beta"}


def test_ten_case_report_examples():
    rep = verify_ten_case_table(30)
    assert rep.passed
    counts = rep.details["case_counts"]
    assert all(counts[str(k)] > 0 for k in range(1, 11))

    # (5,4,3): alpha-compatible, case 1 pattern
    assert alpha(12) == alpha(5) * alpha(4) * alpha(3)
    assert TEN_CASES[(0, (0, 1, 3))] == 1

    # (3,3,3): case 5; product differs from D(C_9)
    assert TEN_CASES[(1, (3, 3, 3))] == 5
    assert partition_polynomial((3, 3, 3)) != cycle_polynomial(9)

    # (6,6,6): case 7; second-derivative level, n1n2+n1n3+n2n3 = 108 != 0
    assert TEN_CASES[(2, (2, 2, 2))] == 7
    assert 6 * 6 + 6 * 6 + 6 * 6 == 108


def _ten_case_table_reference(n_max):
    """`verify_ten_case_table`'s loop as it was before it compared alpha
    first: both Leibniz products for every triple. Returns the report's
    counterexamples and details."""
    bad = []
    case_counts = {k: 0 for k in range(1, 11)}
    total = full_compares = compatible = 0
    jets = {n: checks.closed_jet(n) for n in range(3, n_max + 1)}
    reads = {c: checks._case_certificate(p, 3)["component"] for p, c in checks.TEN_CASES.items()}
    for n1, n2, n3 in reference.part_triples(n_max):
        total += 1
        n = n1 + n2 + n3
        product = checks._jet_product(checks._jet_product(jets[n1], jets[n2]), jets[n3])
        want = jets[n]
        if product == want:
            full_compares += 1
            if checks.partition_polynomial((n1, n2, n3)) == checks.cycle_polynomial(n):
                bad.append({"check": "product-equals-cycle", "n": n, "partition": [n1, n2, n3]})
        if product[0] != want[0]:
            continue
        compatible += 1
        pattern = (n % 4, tuple(sorted((n1 % 4, n2 % 4, n3 % 4))))
        case = checks.TEN_CASES.get(pattern)
        if case is None:
            bad.append({
                "check": "pattern-outside-table", "n": n,
                "partition": [n1, n2, n3], "pattern": [pattern[0], list(pattern[1])],
            })
            continue
        case_counts[case] += 1
        j = 1 if reads[case] == "beta" else 2
        if product[:j] != want[:j] or product[j] == want[j]:
            bad.append({
                "check": "case-not-eliminated", "n": n, "case": case,
                "partition": [n1, n2, n3], "component": reads[case],
                "product_jet": list(map(str, product)), "jet_n": list(map(str, want)),
            })
    return bad, {
        "triples_checked": total,
        "full_compares": full_compares,
        "alpha_compatible": compatible,
        "case_counts": {str(k): v for k, v in case_counts.items()},
    }


def _swap_alpha(monkeypatch, row):
    """Row's alpha planted to the other value: 3 where it was -1, and back."""
    c0, c1, c2 = cycles.JET_TABLE[row][0]
    _plant_jet_row(monkeypatch, row, 0, (8 - c0, c1, c2))


@pytest.mark.parametrize("plant", (
    "none", "alpha row 0", "alpha row 1", "alpha row 2", "alpha row 3", "beta 0", "theta 0",
))
def test_ten_case_table_matches_the_route_without_the_alpha_test(monkeypatch, plant):
    """Same counterexamples and details as the loop that built every
    triple's Leibniz products, on the true table and on planted rows."""
    if plant.startswith("alpha"):
        _swap_alpha(monkeypatch, int(plant[-1]))
    elif plant != "none":
        for row in range(4):
            _plant_jet_row(monkeypatch, row, 1 if plant == "beta 0" else 2, (0, 0, 0))
    bad, details = _ten_case_table_reference(40)
    rep = verify_ten_case_table(40)
    assert (rep.counterexamples, rep.details) == (bad, details)
    if plant.startswith("alpha"):
        assert rep.status == "fail"
        assert "pattern-outside-table" in {ex["check"] for ex in rep.counterexamples}
    else:
        assert details["triples_checked"] > details["alpha_compatible"] > 0


# ---------------------------------------------------------------------------
# Corpus classification
# ---------------------------------------------------------------------------

def test_classify_small_handmade_corpus():
    records = [
        encode_graph6(cycle(6)),
        encode_graph6(disjoint_union(cycle(3), cycle(3))),
    ]
    result = classify_corpus(records)
    assert len(result.classes) == 2
    assert all(c.class_size == 1 for c in result.classes)
    assert result.parse_errors == []

    single = classify_corpus([encode_graph6(complete(1))])
    assert len(single.classes) == 1
    assert single.classes[0].key_polynomial == IntPolynomial((0, 1))


def test_classify_collects_parse_errors():
    records = [b"Bw", b"this is not graph6!!", b"A_"]
    result = classify_corpus(records)
    assert sum(c.class_size for c in result.classes) == 2
    assert len(result.parse_errors) == 1
    assert result.parse_errors[0]["index"] == 1


def test_classify_corpus_guard():
    with pytest.raises(SizeGuardError):
        classify_corpus([encode_graph6(cycle(10))])
    result = classify_corpus([encode_graph6(cycle(10))], corpus_guard=10)
    assert result.classes[0].class_size == 1


# sha256 of each committed corpus's classification JSON (sorted keys),
# as classified when every record was parsed before the first walk.
CLASSIFICATION_SHA256 = {
    4: "5cdea7961a2704caf32c25afc566f3cc534c37f275119054fe22c1443a7c0381",
    5: "310f8621c0ad9a9d85259fab32e2a72fee96c058c35eec5e9bea9eb83395deca",
    6: "cd9c25ab2b769744feb881fe3b8973c898c50e4aed524a2c2d45376f19b7c655",
    7: "1ed3e8cd150a7fcfb69680afe721cfba6883e8f0cc748ca332f9e8b5d42f7fff",
    8: "72391932c5af1c25c4a2ef2cb5ac6ca0ff15d5d1d755891d023e06fbf3e053ee",
}


@pytest.mark.parametrize("n", sorted(CLASSIFICATION_SHA256))
def test_streamed_classification_is_unchanged(classified, n):
    text = json.dumps(classified(n).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFICATION_SHA256[n]


def test_streamed_classification_with_a_bad_and_an_over_guard_record():
    records = [encode_graph6(cycle(5)), b"this is not graph6!!", encode_graph6(path(5)),
               encode_graph6(cycle(10)), encode_graph6(wheel(5))]
    with pytest.raises(SizeGuardError) as refusal:
        classify_corpus(records)
    assert str(refusal.value) == (
        "corpus record 3 has order 10 above the corpus guard (9); "
        "raise it via corpus_guard (CLI: --guard-override)"
    )
    assert classify_corpus(records, corpus_guard=10).to_json_dict() == {
        "classes": [
            {"key_polynomial": ["0", "0", "3", "8", "5", "1"], "class_size": 1, "members": ["DhC"]},
            {"key_polynomial": ["0", "0", "5", "10", "5", "1"], "class_size": 1, "members": ["Dhc"]},
            {"key_polynomial": ["0", "1", "10", "10", "5", "1"], "class_size": 1, "members": ["D|s"]},
            {"key_polynomial": ["0", "0", "0", "0", "25", "102", "150", "110", "45", "10", "1"],
             "class_size": 1, "members": ["IhCGGC@_G"]},
        ],
        "parse_errors": [{
            "index": 1, "record": "this is not graph6!!",
            "error": "truncated bit vector: need 230 bytes for n=53 (byte offset 20)",
        }],
    }


def test_classification_holds_at_most_lanes_records_of_an_order_unwalked(monkeypatch, corpus, classified):
    """By the bit lanes, no more than LANES records of one order are drawn
    and not yet walked; by `parse_graph6` then `domination_profile` (order
    11, above TRUTH_TABLE_MAX_ORDER), each record is walked before the next
    is drawn."""
    orders = range(4, 9)
    union = sum(len(classified(n).classes) for n in orders)
    walked = collections.Counter()

    def lanes_spy(batch, walk=verify.graph6_profiles):
        walked[batch[0][0] - 63] += len(batch)
        return walk(batch)

    def parse_spy(g, walk=verify.domination_profile, **kw):
        walked[g.n] += 1
        return walk(g, **kw)

    monkeypatch.setattr(verify, "graph6_profiles", lanes_spy)
    monkeypatch.setattr(verify, "domination_profile", parse_spy)
    drawn, most_pending = collections.Counter(), collections.Counter()

    def records(recs):
        for rec in recs:
            n = rec[0] - 63
            drawn[n] += 1
            yield rec
            most_pending[n] = max(most_pending[n], drawn[n] - walked[n])

    # Order 8's 12,346 records, listed twice, fill a batch, whose last
    # record is walked before the next is drawn; a repeat joins its class.
    twice = [*orders[:-1], 8, 8]
    mixed = [r for row in itertools.zip_longest(*map(corpus, twice)) for r in row if r is not None]
    assert len(classify_corpus(records(mixed)).classes) == union
    assert walked == drawn and max(most_pending.values()) <= verify.LANES
    assert most_pending[8] == verify.LANES - 1

    drawn.clear(), walked.clear(), most_pending.clear()
    result = classify_corpus(records(map(encode_graph6, (cycle(11), path(11), wheel(11)))),
                             corpus_guard=11)
    assert len(result.classes) == 3 and walked == drawn == {11: 3} and most_pending == {11: 0}


def _classified_or_refused(records, guard):
    try:
        return classify_corpus(records, corpus_guard=guard).to_json_dict()
    except InputError as exc:
        return type(exc).__name__, str(exc)


def _mutations(record):
    """Records `parse_graph6` refuses or reads differently: every order
    byte 63..75 and 126, a foreign format, a body byte out of range, a set
    padding bit, one byte short or long, and the empty record."""
    yield from (bytes([order]) + record[1:] for order in [*range(63, 76), 126])
    yield from (prefix + record[1:] for prefix in (b":", b";", b"&"))
    yield from (record + tail for tail in (b"?", b"~"))
    if len(record) > 1:
        yield record[:-1]
        for bad in (0, 62, 127, 255):
            yield record[:1] + bytes([bad]) + record[2:]
            yield record[:-1] + bytes([bad])
        # The lowest bit of the byte less 63; padding unless 6 | n(n-1)/2.
        yield record[:-1] + bytes([63 + (record[-1] - 63 | 1)])
    yield b""


def _parse_route_only(monkeypatch):
    """Turn the bit lanes off: every record takes `parse_graph6`."""
    monkeypatch.setattr(verify, "graph6_lane_lengths", lambda guard: {})


def test_classification_by_byte_tables_matches_the_parse_route(monkeypatch):
    """Classes, parse errors (index, record, message) and refusals are the
    same with the oracle's bit lanes turned off, on seeded graphs of
    orders 0..10 and their mutations, under corpus guards that refuse
    some orders and admit others."""
    rng = random.Random(22)
    graphs = [
        encode_graph6(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                           if rng.random() < density]))
        for n in range(11) for density in (0, 0.3, 0.7, 1)
    ]
    records = graphs + [m for record in graphs for m in _mutations(record)]
    rng.shuffle(records)
    # Order byte 126 raises out of the classification, so the whole list
    # goes without it and each record is also classified on its own.
    listed = [r for r in records if r[:1] != b"~"]
    by_list = {guard: _classified_or_refused(listed, guard) for guard in (None, 10)}
    by_record = {(guard, r): _classified_or_refused([r], guard) for guard in (0, 7, 9, 10) for r in records}
    _parse_route_only(monkeypatch)
    assert by_list == {guard: _classified_or_refused(listed, guard) for guard in (None, 10)}
    assert by_record == {key: _classified_or_refused([key[1]], key[0]) for key in by_record}
    errors = " ".join(e["error"] for e in by_list[10]["parse_errors"])
    for refusal in ("nonzero padding bit", "outside graph6 range", "truncated", "trailing",
                    "empty record", "sparse6", "digraph6"):
        assert refusal in errors, refusal


def test_interleaved_orders_classify_as_their_union_with_one_table_each(monkeypatch, corpus, classified):
    orders = range(4, 9)
    union = [c for n in orders for c in classified(n).to_json_dict()["classes"]]
    mixed = [r for row in itertools.zip_longest(*map(corpus, orders)) for r in row if r is not None]
    layouts = cache(oracle._graph6_layout.__wrapped__)
    monkeypatch.setattr(oracle, "_graph6_layout", layouts)
    result = classify_corpus(mixed).to_json_dict()
    assert result["parse_errors"] == []
    assert sorted(map(json.dumps, result["classes"])) == sorted(map(json.dumps, union))
    # One layout per order, read once per batch of up to LANES records.
    batches = sum(-(-len(corpus(n)) // verify.LANES) for n in orders)
    assert (layouts.cache_info().misses, layouts.cache_info().hits) == (5, batches - 5)
    # Order 11 is above the cutoff: parse_graph6 reads it and no layout is built.
    classify_corpus([encode_graph6(cycle(11))], corpus_guard=11)
    assert layouts.cache_info().misses == 5


@pytest.mark.parametrize("size, batches", [
    (oracle.LANES - 1, [oracle.LANES - 1]), (oracle.LANES, [oracle.LANES]),
    (oracle.LANES + 1, [oracle.LANES, 1]),
], ids=["LANES-1", "LANES", "LANES+1"])
def test_batches_around_lanes_records_match_the_parse_route(monkeypatch, corpus, size, batches):
    # The order-8 corpus, repeated as often as LANES + 1 records need.
    records = (corpus(8) * -(-(oracle.LANES + 1) // len(corpus(8))))[:size]
    walked = []
    monkeypatch.setattr(verify, "graph6_profiles",
                        lambda batch, walk=verify.graph6_profiles: walked.append(len(batch)) or walk(batch))
    by_lanes = classify_corpus(records).to_json_dict()
    assert walked == batches
    _parse_route_only(monkeypatch)
    assert by_lanes == classify_corpus(records).to_json_dict()


def test_malformed_record_in_a_full_batch_takes_the_parse_route(monkeypatch, corpus):
    """A padding bit or an out-of-range byte in a record of the right order
    and length sends its whole batch through `parse_graph6`; the parse
    errors still come back in index order, among those of records that
    were parsed as they were drawn."""
    # The order-8 corpus, repeated as often as a full batch needs.
    records = (corpus(8) * -(-(verify.LANES + 3) // len(corpus(8))))[:verify.LANES + 3]
    good = records[1000]
    records[5] = records[1800] = b"not graph6"
    records[1000] = good[:-1] + bytes([63 + (good[-1] - 63 | 1)])  # a padding bit: 28 bits in 5 bytes
    records[1500] = good[:2] + b"\x7f" + good[3:]
    records.append(b"?" + good)
    walked = []

    def spy(batch, walk=verify.graph6_profiles):
        profiles = walk(batch)
        walked.append((len(batch), profiles is None))
        return profiles

    monkeypatch.setattr(verify, "graph6_profiles", spy)
    by_lanes = classify_corpus(records).to_json_dict()
    # The full batch fell back; the one record drawn after it took the lanes.
    assert walked == [(verify.LANES, True), (1, False)]
    errors = by_lanes["parse_errors"]
    assert [e["index"] for e in errors] == [5, 1000, 1500, 1800, verify.LANES + 3]
    assert [errors[1]["error"], errors[2]["error"]] == [
        "nonzero padding bit (byte offset 5)", "byte 127 outside graph6 range (byte offset 2)"]
    _parse_route_only(monkeypatch)
    assert by_lanes == classify_corpus(records).to_json_dict()


def test_classification_keys_records_by_profile(monkeypatch, classified, corpus):
    """Records are grouped by the oracle's profile; no record builds a
    polynomial of its own."""
    expected = classified(6).to_json_dict()

    def no_polynomial(g, **kw):
        raise AssertionError("classification built a polynomial per record")

    monkeypatch.setattr(verify, "domination_polynomial", no_polynomial)
    assert classify_corpus(corpus(6)).to_json_dict() == expected


def test_class_keys_and_walked_polynomials_are_canonical(classified, corpus):
    """Class keys and `domination_polynomial` skip the public constructor's
    checks; each equals what that constructor builds."""
    for n in range(4, 9):
        for c in classified(n).classes:
            assert c.key_polynomial == IntPolynomial(c.key_polynomial.coeffs) and c.key_polynomial.degree == n
    for record in [b"?", *corpus(5)]:
        d = domination_polynomial(parse_graph6(record))
        assert d.coeffs == IntPolynomial(d.coeffs).coeffs and d.coeffs[-1] == 1


def test_classify_null_graph():
    """The null graph's empty profile keys the polynomial 1."""
    result = classify_corpus([b"?"])
    assert [c.to_json_dict() for c in result.classes] == [
        {"key_polynomial": ["1"], "class_size": 1, "members": ["?"]}
    ]


def test_classify_order5_connected(corpus):
    records = [r for r in corpus(5) if len(parse_graph6(r).component_masks()) == 1]
    assert len(records) == 21
    result = classify_corpus(records)
    c5_class = result.class_of(domination_polynomial(cycle(5)))
    assert c5_class is not None and c5_class.class_size == 1


def test_classify_is_deterministic_and_sound(corpus):
    result = classify_corpus(corpus(6))
    again = classify_corpus(list(reversed(corpus(6))))
    assert [c.to_json_dict() for c in result.classes] == [
        c.to_json_dict() for c in again.classes
    ]
    # soundness: members of a sampled class all recompute to the key
    rng = random.Random(1)
    for cls in rng.sample(result.classes, 8):
        for member in cls.members:
            g = parse_graph6(member)
            assert domination_polynomial(g) == cls.key_polynomial


def test_cycle_class_is_singleton_small_orders(classified):
    for n in (4, 5, 6, 7):
        cls = classified(n).class_of(domination_polynomial(cycle(n)))
        assert cls is not None and cls.class_size == 1


def test_corpus_checks_build_only_the_class_they_read(corpus, monkeypatch):
    """`run_all` over the committed corpora builds at most one class report
    per corpus check run (COR-wheel at orders 4..8, P-path-class at 6), not
    one per class: reading `classes` builds the 2,444 of orders 4..8."""
    built = []

    class Counted(verify.EquivalenceClassReport):
        def __init__(self, key_polynomial, members):
            built.append(key_polynomial)
            super().__init__(key_polynomial, members)

    monkeypatch.setattr(verify, "EquivalenceClassReport", Counted)
    corpora = {n: corpus(n) for n in range(4, 9)}
    runs = [r for r in run_all(corpora=corpora) if CHECKS[r.lemma_id].default_n is None]
    assert [r.lemma_id for r in runs] == ["COR-wheel"] * 5 + ["P-path-class"]
    assert all(r.passed for r in runs)
    assert 1 <= len(built) <= len(runs)
    built.clear()
    assert sum(len(classify_corpus(records).classes) for records in corpora.values()) == 2444
    assert len(built) == 2444


def test_class_of_builds_the_class_that_classes_lists(classified):
    for n in range(4, 9):
        result = classified(n)
        assert result.classes is result.classes
        for c in result.classes:
            got = result.class_of(c.key_polynomial)
            assert (got.key_polynomial, got.class_size, got.members) == (
                c.key_polynomial, c.class_size, c.members)


def test_class_of_looks_up_only_the_polynomials_of_graphs():
    """A profile keys x times its polynomial's coefficients, and the empty
    profile keys 1: the zero polynomial and a polynomial with a nonzero
    constant other than 1 key no class."""
    null, k1 = classify_corpus([b"?"]), classify_corpus([b"@"])
    assert null.class_of(IntPolynomial.one()).members == ["?"]
    assert k1.class_of(IntPolynomial.x()).members == ["@"]
    assert null.class_of(IntPolynomial.zero()) is None
    assert k1.class_of(IntPolynomial((1, 1))) is None
    assert k1.class_of(IntPolynomial.one()) is None


# ---------------------------------------------------------------------------
# Wheel and path class checks
# ---------------------------------------------------------------------------

def test_wheel_uniqueness(corpus, classified):
    for n in (4, 5, 6):
        rep = verify_wheel_uniqueness(n, classified(n))
        assert rep.passed, rep.counterexamples
        assert rep.details["corpus_size"] == len(corpus(n))


def test_wheel_uniqueness_fails_on_padded_corpus(corpus):
    # duplicating the wheel record makes the class size 2
    records = list(corpus(5)) + [encode_graph6(wheel(5))]
    rep = verify_wheel_uniqueness(5, classify_corpus(records))
    assert not rep.passed
    assert rep.counterexamples[0]["class_size"] == 2


def test_path_companion_variants():
    # variant with one new leaf on each of two adjacent cycle vertices
    # reproduces the path polynomial; the doubled variant does not
    target6 = domination_polynomial(path(6))
    assert domination_polynomial(path_companion(6, "one-each")) == target6
    assert domination_polynomial(path_companion(6, "both-to-both")) != target6
    target9 = domination_polynomial(path(9))
    assert domination_polynomial(path_companion(9, "one-each")) == target9


def test_path_class_over_order6_corpus(classified):
    rep = verify_path_class(6, classified(6))
    assert rep.passed, rep.counterexamples
    assert rep.details["companion_variant_matches"] == {
        "one-each": True,
        "both-to-both": False,
    }


def test_path_class_restricted_corpus_n9():
    # the class has its two members, but two records are not the 274668
    # graphs of order 9, so the claim stays undecided
    records = [encode_graph6(path(9)), encode_graph6(path_companion(9, "one-each"))]
    rep = verify_path_class(9, classify_corpus(records))
    assert rep.status == "inconclusive"
    assert rep.counterexamples == []
    assert rep.details["corpus_problems"] == [
        "records: 2, graphs of order 9: 274668"
    ]


def test_path_class_detects_wrong_size():
    rep = verify_path_class(6, classify_corpus([encode_graph6(path(6))]))
    assert not rep.passed
    assert rep.counterexamples[0]["class_size"] == 1


def test_corpus_checks_need_a_certified_corpus(corpus, classified):
    complete = list(corpus(6))
    w6 = encode_graph6(wheel(6))
    other = next(r for r in complete if r not in (w6, complete[-1]))
    cases = {
        "incomplete": ([w6, b"not a record!!"], [
            "unparseable records: 1", "records: 2, graphs of order 6: 156",
        ]),
        "missing": ([r for r in complete if r != other], [
            "records: 155, graphs of order 6: 156",
        ]),
        "wrong-order": ([encode_graph6(cycle(5)) if r == other else r for r in complete], [
            "records not of order 6: 1",
        ]),
        "repeated": ([complete[-1] if r == other else r for r in complete], [
            "repeated records: 1",
        ]),
    }
    for name, (records, problems) in cases.items():
        result = classify_corpus(records)
        for rep in (verify_wheel_uniqueness(6, result), verify_path_class(6, result)):
            assert rep.status == "inconclusive", (name, rep.lemma_id)
            assert rep.details["corpus_problems"] == problems, (name, rep.lemma_id)
    # the complete corpus certifies: its passing report gains no key
    rep = verify_wheel_uniqueness(6, classified(6))
    assert rep.passed and set(rep.details) == {"corpus_size", "parse_errors"}
    assert classified(6).completeness_problems(6) == []
    assert classify_corpus([]).completeness_problems(20) == [
        "records: 0, graphs of order 20: unknown"
    ]


def _completeness_problems_reference(result, n):
    """`completeness_problems` as it was before its one pass: four walks of
    the classes and a set per class."""
    problems = []
    if result.parse_errors:
        problems.append(f"unparseable records: {len(result.parse_errors)}")
    wrong_order = sum(c.class_size for c in result.classes if c.key_polynomial.degree != n)
    if wrong_order:
        problems.append(f"records not of order {n}: {wrong_order}")
    repeated = sum(c.class_size - len(set(c.members)) for c in result.classes)
    if repeated:
        problems.append(f"repeated records: {repeated}")
    records = len(result.parse_errors) + sum(c.class_size for c in result.classes)
    expected = verify.UNLABELED_GRAPH_COUNTS[n] if n < len(verify.UNLABELED_GRAPH_COUNTS) else "unknown"
    if records != expected:
        problems.append(f"records: {records}, graphs of order {n}: {expected}")
    return problems


def test_completeness_problems_one_fault_at_a_time(corpus):
    complete = list(corpus(6))
    duplicate, wrong, missing, bad = complete[40], encode_graph6(cycle(5)), complete[7], b"not a record!!"
    cases = {
        "duplicate": (complete + [duplicate], [
            "repeated records: 1", "records: 157, graphs of order 6: 156",
        ]),
        "wrong-order": (complete + [wrong], [
            "records not of order 6: 1", "records: 157, graphs of order 6: 156",
        ]),
        "missing": ([r for r in complete if r != missing], [
            "records: 155, graphs of order 6: 156",
        ]),
        "parse-error": (complete + [bad], [
            "unparseable records: 1", "records: 157, graphs of order 6: 156",
        ]),
        "all four": ([r for r in complete if r != missing] + [duplicate, wrong, wrong, bad, duplicate], [
            "unparseable records: 1", "records not of order 6: 2", "repeated records: 3",
            "records: 160, graphs of order 6: 156",
        ]),
        "none": (complete, []),
    }
    for name, (records, problems) in cases.items():
        result = classify_corpus(records)
        assert result.completeness_problems(6) == problems, name
        for n in (5, 6, 20):
            assert result.completeness_problems(n) == _completeness_problems_reference(result, n), (name, n)


def test_path_class_validation():
    with pytest.raises(ParameterDomainError):
        verify_path_class(7, classify_corpus([]))
    with pytest.raises(ParameterDomainError):
        verify_path_class(3, classify_corpus([]))


@pytest.mark.parametrize("lemma,check", [
    ("COR-wheel", verify_wheel_uniqueness), ("P-path-class", verify_path_class),
])
def test_corpus_checks_refuse_by_the_registry_rule(lemma, check):
    """`Check.covers` is the one rule for which orders a corpus check runs
    on: the check refuses exactly the orders its registry entry leaves out."""
    empty = classify_corpus([])
    for n in range(13):
        if CHECKS[lemma].covers(n):
            assert check(n, empty).status == "inconclusive", (lemma, n)
        else:
            with pytest.raises(ParameterDomainError):
                check(n, empty)


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------

def test_run_all_without_corpora():
    reports = run_all()
    ids = [r.lemma_id for r in reports]
    assert ids == [
        "L2-union", "L3-cycle", "L4-gamma", "L5-alpha", "REL2-beta",
        "REL3-theta", "L6-ord3", "R1-remark", "T5-partitions", "T5-ten-cases",
    ]
    assert all(r.passed for r in reports)


def test_run_all_with_corpora(corpus):
    reports = run_all(corpora={6: corpus(6)})
    ids = [r.lemma_id for r in reports]
    assert ids.count("COR-wheel") == 1
    assert ids.count("P-path-class") == 1
    assert all(r.passed for r in reports)


def _spy_on_shared_walks(monkeypatch):
    """Count the calls of each producer of a shared walk, by name and arguments."""
    calls = collections.Counter()

    def spy(name):
        real = getattr(checks, name)
        return lambda *args: calls.update([(name, *args)]) or real(*args)

    for name in ("_cycle_rows", "_minus_three_walk", "_case_certificates"):
        monkeypatch.setattr(checks, name, spy(name))
    return calls


def test_run_all_walks_each_shared_walk_once(monkeypatch):
    """One `run_all` walks D(C_1..C_200), the walk at -3 to 1000 and the
    ten case certificates once each, for the three, three and two checks
    that read them; it leaves no walk behind, and a check run alone walks
    fresh at each call."""
    calls = _spy_on_shared_walks(monkeypatch)
    assert all(r.passed for r in run_all())
    assert calls == {("_cycle_rows", 200): 1, ("_minus_three_walk", 1000): 1, ("_case_certificates", 3): 1}
    assert checks._run_walks is None
    calls.clear()
    assert verify_alpha().passed and verify_alpha().passed
    assert calls == {("_cycle_rows", 200): 2}


def test_run_all_leaves_no_shared_walk_when_a_check_raises(monkeypatch):
    calls = _spy_on_shared_walks(monkeypatch)

    def planted(n_max):
        raise RuntimeError("planted")

    monkeypatch.setattr(checks, "verify_remark", planted)
    with pytest.raises(RuntimeError, match="planted"):
        run_all()
    assert checks._run_walks is None and calls[("_minus_three_walk", 1000)] == 1
    calls.clear()
    assert verify_alpha(50).passed and verify_alpha(50).passed
    assert calls == {("_cycle_rows", 50): 2}


def _without_timing(report):
    return {k: v for k, v in report.to_json_dict().items() if k != "timing_ms"}


def _plant_cycle_coefficient(monkeypatch):
    """D(C_12) from the walk with x^3 added."""
    walk = checks.cycle_polynomials

    def planted():
        for n, p in enumerate(walk(), 1):
            yield p + IntPolynomial((0, 0, 0, 1)) if n == 12 else p

    monkeypatch.setattr(checks, "cycle_polynomials", planted)


def _plant_beta_of_7(monkeypatch):
    """closed_jet(7) with beta one too high: parts of 7 enter the
    certificates of cases 1, 3, 5, 6, 9 and 10, and four of them lose
    their witness."""
    real = checks.closed_jet
    monkeypatch.setattr(checks, "closed_jet", lambda n: (real(7)[0], real(7)[1] + 1, real(7)[2]) if n == 7 else real(n))


@pytest.mark.parametrize("plant, alone, failing", [
    (_plant_b_step, {"L6-ord3": lambda: verify_ord3_table(1000), "R1-remark": lambda: verify_remark(1000),
                     "T5-partitions": lambda: verify_cycle_uniqueness_by_elimination(1000)},
     {"L6-ord3", "R1-remark"}),
    (_plant_cycle_coefficient, {"L5-alpha": lambda: verify_alpha(200), "REL2-beta": lambda: verify_beta(200),
                                "REL3-theta": lambda: verify_theta(200)},
     {"L5-alpha", "REL2-beta", "REL3-theta"}),
    (_plant_beta_of_7, {"T5-ten-cases": lambda: verify_ten_case_table(60),
                        "T5-partitions": lambda: verify_cycle_uniqueness_by_elimination(1000)},
     {"REL2-beta", "T5-ten-cases", "T5-partitions"}),
], ids=["b-step", "cycle-coefficient", "closed-jet"])
def test_a_planted_fault_reaches_every_reader_of_a_shared_walk(monkeypatch, plant, alone, failing):
    """Inside `run_all`, each check that reads a planted walk reports what
    it reports when it runs alone: a wrong b_n step fails L6 and R1 but not
    T5-partitions, a planted coefficient fails L5, REL2 and REL3, and a
    planted closed-form beta fails both T5 checks (and REL2, which checks
    the closed forms)."""
    plant(monkeypatch)
    reports = {r.lemma_id: r for r in run_all()}
    for lemma, check in alone.items():
        assert _without_timing(reports[lemma]) == _without_timing(check()), lemma
    assert {lemma for lemma, r in reports.items() if not r.passed} == failing
