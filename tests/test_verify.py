import hashlib
import itertools
import json
import math
import random
from functools import cache, lru_cache

import pytest

from dompoly.cycles import alpha, cycle_jets, cycle_polynomial, cycle_polynomials
from dompoly.errors import InputError, ParameterDomainError, SizeGuardError
from dompoly.graphs import Graph, cycle, disjoint_union, encode_graph6, complete, parse_graph6, path, wheel
from dompoly.oracle import domination_polynomial
from dompoly.polynomials import IntPolynomial, ord_p
from dompoly import cycles, oracle, verify
from dompoly.verify import (
    CHECKS,
    FINGERPRINT_MODULUS,
    FINGERPRINT_POINT,
    TEN_CASES,
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
    verify_cycle_uniqueness_range,
    verify_gamma_additivity_and_ceiling,
    verify_ord3_table,
    verify_path_class,
    verify_remark,
    verify_ten_case_table,
    verify_theta,
    verify_union_product,
    verify_wheel_uniqueness,
)


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


@lru_cache(maxsize=None)
def _count_partitions(n: int, max_part: int, min_part: int) -> int:
    """Independent count via the standard two-variable recurrence."""
    if n == 0:
        return 1
    total = 0
    for first in range(min_part, min(n, max_part) + 1):
        total += _count_partitions(n - first, first, min_part)
    return total


@pytest.mark.parametrize("min_part,n_max", ((1, 35), (3, 60)))
def test_partition_count_matches_recurrence(min_part, n_max):
    for n in range(1, n_max + 1):
        expected = _count_partitions(n, n, min_part)
        assert sum(1 for _ in enumerate_partitions(n, min_part)) == expected


def _naive_partitions(n: int, largest: int, min_part: int):
    if n == 0:
        return [()]
    return [
        (first, *rest)
        for first in range(min(n, largest), min_part - 1, -1)
        for rest in _naive_partitions(n - first, first, min_part)
    ]


@pytest.mark.parametrize("min_part", (1, 3))
def test_enumerate_partitions_matches_naive_recursion(min_part):
    for n in range(1, 31):
        assert list(enumerate_partitions(n, min_part)) == _naive_partitions(n, n, min_part), n


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
    real = verify.partition_polynomial
    monkeypatch.setattr(verify, "partition_polynomial", lambda parts: built.append(parts) or real(parts))
    for n in range(min_part, n_max + 1):
        built.clear()
        compared = [parts for parts, outcome in match_partitions(n, min_part) if outcome is not None]
        assert built == compared, n


def _without_work_counters(report):
    out = report.to_json_dict()
    out.pop("timing_ms")
    out["details"] = {k: v for k, v in out["details"].items() if k != "full_compares"}
    return out


def test_fingerprint_filter_only_rejects(monkeypatch):
    """Modulo 1 every fingerprint is 0, so nothing is filtered out; the
    answer stays the same, so a match is always decided by the full compare."""
    filtered = verify_cycle_uniqueness_range(3, 20)
    monkeypatch.setattr(verify, "FINGERPRINT_MODULUS", 1)
    unfiltered = verify_cycle_uniqueness_range(3, 20)
    assert unfiltered.details["full_compares"] == unfiltered.details["partitions_checked"]
    assert filtered.details["full_compares"] < unfiltered.details["full_compares"]
    assert _without_work_counters(filtered) == _without_work_counters(unfiltered)


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
    for name in ("enumerate_partitions", "match_partitions"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: calls.append(name))
    assert verify_gamma_additivity_and_ceiling(200).passed
    assert verify_ten_case_table(60).passed
    assert calls == []


def test_scalar_reports():
    assert verify_alpha(120).passed
    assert verify_beta(120).passed
    assert verify_theta(120).passed


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
    jets = verify.cycle_jets

    def planted(t, k=0):
        for n, jet in enumerate(jets(t, k), start=1):
            yield (jet[0] + 1, *jet[1:]) if t == -3 and n == 7 else jet

    monkeypatch.setattr(verify, "cycle_jets", planted)
    rep = verify_ord3_table(40)
    assert rep.status == "fail"
    assert [(ex["check"], ex["n"], ex["ord3"]) for ex in rep.counterexamples] == [("ord3-bound", 7, 0)]
    rep = verify_remark(40)
    assert [(ex["check"], ex["n"]) for ex in rep.counterexamples] == [("exact-ord3", 7)]


def _plant_b_mod_9(monkeypatch, n, value):
    """B_MOD_9 with the entry for n (mod 27) replaced by value."""
    table = list(cycles.B_MOD_9)
    table[(n - 1) % 27] = value
    monkeypatch.setattr(cycles, "B_MOD_9", tuple(table))


def test_remark_fails_on_a_raised_prediction(monkeypatch):
    """b_17 mod 9 is 4; planted as 3, it raises predicted_ord3(17) by one."""
    predicted = verify.predicted_ord3(17)
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
    rep = verify_cycle_uniqueness_range(6, 6)
    assert rep.passed
    assert rep.details["partitions_checked"] == 2
    # the lone rival {3,3} differs at x^3: 14 vs 18
    assert cycle_polynomial(6).coefficient(3) == 14
    assert partition_polynomial((3, 3)).coefficient(3) == 18


def test_cycle_uniqueness_12():
    rep = verify_cycle_uniqueness_range(12, 12)
    assert rep.passed
    assert rep.details["partitions_checked"] == 9
    # only the trivial partition survives the fingerprint
    assert rep.details["full_compares"] == 1


def test_cycle_uniqueness_range():
    rep = verify_cycle_uniqueness_range(3, 25)
    assert rep.passed
    assert rep.range_checked == (3, 25)


def test_cycle_uniqueness_min_part_one():
    rep = verify_cycle_uniqueness_range(8, 8, min_part=1)
    assert rep.passed
    assert rep.details["min_part"] == 1


def _answer(report):
    return report.status, report.counterexamples


@pytest.mark.parametrize("min_part,n_max", ((3, 40), (1, 25)))
def test_elimination_agrees_with_enumeration(min_part, n_max):
    for n in range(3, n_max + 1):
        eliminated = verify_cycle_uniqueness_by_elimination(n, min_part)
        assert _answer(eliminated) == _answer(verify_cycle_uniqueness_range(n, n, min_part)), n
        assert eliminated.range_checked == (3, n)
    eliminated = verify_cycle_uniqueness_by_elimination(n_max, min_part)
    assert _answer(eliminated) == _answer(verify_cycle_uniqueness_range(3, n_max, min_part))
    assert _answer(eliminated) == ("pass", [])
    assert eliminated.range_checked == (3, n_max)


@pytest.mark.parametrize("min_part", (1, 3))
def test_elimination_default_range(monkeypatch, min_part):
    """The default range passes by the ten certificates, with no partition
    enumerated; cases 7 and 10 fall at theta, case 1 mod 4, the rest by sign."""
    calls = []
    for name in ("enumerate_partitions", "match_partitions", "partition_polynomial"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: calls.append(name))
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
    walk = zip(range(1, 61), cycle_polynomials())
    jets = {
        m: (p.eval_at(-1), p.derivative().eval_at(-1), p.derivative().derivative().eval_at(-1))
        for m, p in walk
    }
    for pattern, case in TEN_CASES.items():
        certificate = verify._case_certificate(pattern, min_part)
        least = [min_part + (r - min_part) % 4 for r in pattern[1]]
        component = ("beta", "theta").index(certificate["component"]) + 1
        for k in itertools.product(range(4), repeat=3):
            parts = [4 * k_i + m for k_i, m in zip(k, least)]
            f, g, h = (jets[m] for m in parts)
            product = verify._jet_product(verify._jet_product(f, g), h)
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
    theta = [verify.closed_jet(n)[2] for n in range(41)]
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
    monkeypatch.setattr(verify, "TEN_CASES", {p: c for p, c in TEN_CASES.items() if c != 4})


def _plant_tripled_minus_three_jet(monkeypatch):
    jets = verify.cycle_jets

    def planted(t, k=0):
        for jet in jets(t, k):
            yield (3 * jet[0], *jet[1:]) if t == -3 else jet

    monkeypatch.setattr(verify, "cycle_jets", planted)


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
    for n_max in (0, 8, 9, 10, 17, 30):
        naive = [
            (n1, n2, n3)
            for n1 in range(3, n_max + 1) for n2 in range(3, n1 + 1) for n3 in range(3, n2 + 1)
            if n1 + n2 + n3 <= n_max
        ]
        assert list(verify._triples(n_max)) == naive, n_max


def test_jet_product_is_the_jet_of_the_product():
    def jet(p, t):
        return (p.eval_at(t), p.derivative().eval_at(t), p.derivative().derivative().eval_at(t))

    rng = random.Random(8)
    for _ in range(50):
        f = IntPolynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6))))
        g = IntPolynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6))))
        for t in (-1, 0, 2):
            assert verify._jet_product(jet(f, t), jet(g, t)) == jet(f * g, t), (f, g, t)


def test_ten_case_table_reads_no_fingerprint_and_compares_nothing(monkeypatch):
    """At -1 the 2-jet alone eliminates every triple to n = 150."""
    calls = []

    def spy(name):
        real = getattr(verify, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("match_partitions", "partition_polynomial", "cycle_jets"):
        monkeypatch.setattr(verify, name, spy(name))
    rep = verify_ten_case_table(150)
    assert rep.passed and rep.range_checked == (9, 150)
    assert rep.details["full_compares"] == 0
    assert calls == []


def test_ten_case_jet_only_rejects(monkeypatch):
    """With beta and theta planted as 0 every alpha-compatible triple's jet
    agrees with n's; the exact compare then decides each of them, and finds
    no product equal to D(C_n), so the jet never decides a match."""
    compared = []

    real = verify.partition_polynomial

    def product(parts):
        compared.append(parts)
        return real(parts)

    for row in range(4):
        _plant_jet_row(monkeypatch, row, 1, (0, 0, 0))
        _plant_jet_row(monkeypatch, row, 2, (0, 0, 0))
    monkeypatch.setattr(verify, "partition_polynomial", product)
    rep = verify_ten_case_table(40)
    alpha_compatible = [
        (n1, n2, n3) for n1, n2, n3 in verify._triples(40)
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
    for parts in verify._triples(40):
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
    real = verify.closed_jet
    planted = (real(40)[0], -79, real(40)[2])
    monkeypatch.setattr(verify, "closed_jet", lambda n: planted if n == 40 else real(n))
    jets = {n: real(n) for n in (3, 16, 21)}
    assert verify._jet_product(verify._jet_product(jets[21], jets[16]), jets[3])[1] == -79
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


def test_classification_walks_each_record_before_reading_the_next(monkeypatch):
    """By either route: the oracle's byte tables up to TRUTH_TABLE_MAX_ORDER,
    `parse_graph6` then `domination_profile` above it."""
    walked = []
    for name in ("graph6_profile", "domination_profile"):
        def spy(*args, name=name, walk=getattr(verify, name), **kw):
            key = walk(*args, **kw)
            if key is not None:
                walked.append((name, len(key)))
            return key

        monkeypatch.setattr(verify, name, spy)

    def records(graphs):
        for i, g in enumerate(graphs):
            assert len(walked) == i  # every record drawn so far is walked
            yield encode_graph6(g)

    for route, graphs, guard in (
        ("graph6_profile", (cycle(4), path(5), wheel(6)), None),
        ("domination_profile", (cycle(11), path(11), wheel(11)), 11),
    ):
        walked.clear()
        result = classify_corpus(records(graphs), corpus_guard=guard)
        assert walked == [(route, g.n) for g in graphs] and len(result.classes) == 3


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
        yield record[:-1] + bytes([record[-1] | 1])  # the lowest bit; padding unless 6 | n(n-1)/2
    yield b""


def test_classification_by_byte_tables_matches_the_parse_route(monkeypatch):
    """Classes, parse errors (index, record, message) and refusals are the
    same with the oracle's byte-table route turned off, on seeded graphs of
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
    monkeypatch.setattr(verify, "graph6_profile", lambda record, guard: None)
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
    tables = cache(oracle._graph6_table.__wrapped__)
    monkeypatch.setattr(oracle, "_graph6_table", tables)
    result = classify_corpus(mixed).to_json_dict()
    assert result["parse_errors"] == []
    assert sorted(map(json.dumps, result["classes"])) == sorted(map(json.dumps, union))
    assert (tables.cache_info().misses, tables.cache_info().hits) == (5, len(mixed) - 5)
    # Order 11 is above the cutoff: parse_graph6 reads it and no table is built.
    classify_corpus([encode_graph6(cycle(11))], corpus_guard=11)
    assert tables.cache_info().misses == 5


def test_classification_keys_records_by_profile(monkeypatch, classified, corpus):
    """Records are grouped by the oracle's profile; no record builds a
    polynomial of its own."""
    expected = classified(6).to_json_dict()

    def no_polynomial(g, **kw):
        raise AssertionError("classification built a polynomial per record")

    monkeypatch.setattr(verify, "domination_polynomial", no_polynomial)
    assert classify_corpus(corpus(6)).to_json_dict() == expected


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
