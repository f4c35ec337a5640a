"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is integer equality (tolerance zero). Each test prints a
single PASS/FAIL line with its runtime; run with `pytest -s` (or -rA) to
see them. Corpus-backed criteria read the complete order-4..8 corpora
from data/corpora/.
"""

import time
from itertools import islice

from dompoly.cycles import (
    alpha,
    b_values,
    beta,
    cycle_jets,
    cycle_polynomial,
    cycle_polynomials,
    predicted_ord3,
    theta,
)
from dompoly.graphs import cycle, parse_graph6, wheel
from dompoly.oracle import domination_number, domination_polynomial
from dompoly.polynomials import ord_p
from dompoly.verify import (
    verify_cycle_uniqueness_by_elimination,
    verify_path_class,
    verify_ten_case_table,
    verify_union_product,
)

import reference

B_MOD9_FIRST_30 = (1, 1, 3, 3, 7, 6, 2, 7, 3, 7, 7, 3, 3, 4, 6,
                   5, 4, 3, 4, 4, 3, 3, 1, 6, 8, 1, 3, 1, 1, 3)


def _criterion(num, description, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:2d}] {status}  {elapsed:6.2f}s (< {limit:g}s)  {description}")
    assert ok, f"criterion {num}: {description}"
    assert elapsed < limit, f"criterion {num}: took {elapsed:.2f}s, limit {limit}s"


def test_criterion_01_oracle_recurrence_equivalence():
    t0 = time.perf_counter()
    ok = all(
        domination_polynomial(cycle(n)) == cycle_polynomial(n)
        for n in range(1, 16)
    )
    _criterion(1, "brute-force D(C_n) == recurrence, 1 <= n <= 15",
               ok, time.perf_counter() - t0, 10)


def test_criterion_02_union_product_law():
    t0 = time.perf_counter()
    report = verify_union_product(max_order=8)
    _criterion(2, "D(G+H) == D(G)*D(H), 200 random pairs of order <= 8",
               report.passed, time.perf_counter() - t0, 30)


def test_criterion_03_gamma_ceiling():
    t0 = time.perf_counter()
    ok = all(
        domination_number(cycle(n)) == (n + 2) // 3 for n in range(1, 16)
    )
    _criterion(3, "oracle gamma(C_n) == ceil(n/3), 1 <= n <= 15",
               ok, time.perf_counter() - t0, 5)


def test_criterion_04_closed_forms_match_derivative_evaluations():
    t0 = time.perf_counter()
    ok = True
    for n, p in zip(range(1, 201), cycle_polynomials()):
        d1 = p.derivative()
        d2 = d1.derivative()
        ok = ok and alpha(n) == p.eval_at(-1)
        ok = ok and beta(n) == d1.eval_at(-1)
        ok = ok and theta(n) == d2.eval_at(-1)
    _criterion(4, "alpha/beta/theta closed forms == D, D', D'' at -1, n <= 200",
               ok, time.perf_counter() - t0, 10)


def test_criterion_05_ord3_golden_vector_period_and_table():
    t0 = time.perf_counter()
    b = list(islice(b_values(), 1000))   # b[n - 1] = b_n
    ok = tuple(b_n % 9 for b_n in b[:30]) == B_MOD9_FIRST_30
    for t in range(1, 974):
        ok = ok and (b[t + 26] - b[t - 1]) % 9 == 0
    for n, (a_n,) in zip(range(1, 1001), cycle_jets(-3)):
        ok = ok and ord_p(a_n, 3) == predicted_ord3(n)
        ok = ok and b[n - 1] % 9 != 0
    _criterion(5, "b mod 9 golden vector, period 27, ord_3 table with "
                  "exceptional set {4,13,22} mod 27, 9 never divides b",
               ok, time.perf_counter() - t0, 5)


def test_criterion_06_cycle_uniqueness_over_partitions():
    t0 = time.perf_counter()
    report = verify_cycle_uniqueness_by_elimination(40)
    rivals = [parts for n in range(3, 41) for parts in reference.cycle_partition_rivals(n)]
    _criterion(6, "only the trivial cycle partition matches D(C_n), 3 <= n <= 40",
               report.passed and rivals == [], time.perf_counter() - t0, 120)


def test_criterion_07_cycle_class_singleton_over_corpora(corpus, classified):
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 9):
        result = classified(n)
        total = sum(c.class_size for c in result.classes)
        ok = ok and total == {4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}[n]
        cls = result.class_of(domination_polynomial(cycle(n)))
        ok = ok and cls is not None and cls.class_size == 1
        if ok:
            member = parse_graph6(cls.members[0])
            ok = all(member.degree(v) == 2 for v in range(member.n))
            ok = ok and len(member.component_masks()) == 1
    _criterion(7, "class of C_n is a singleton over complete corpora, 4 <= n <= 8",
               ok, time.perf_counter() - t0, 300)


def test_criterion_08_wheel_class_singleton_over_corpora(classified):
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 9):
        cls = classified(n).class_of(domination_polynomial(wheel(n)))
        ok = ok and cls is not None and cls.class_size == 1
    _criterion(8, "class of W_n is a singleton over complete corpora, 4 <= n <= 8",
               ok, time.perf_counter() - t0, 300)


def test_criterion_09_path_class_of_size_two(classified):
    t0 = time.perf_counter()
    report = verify_path_class(6, classified(6))
    ok = report.passed and any(
        report.details["companion_variant_matches"].values()
    )
    _criterion(9, "class of P_6 has exactly 2 members; a companion "
                  "construction realizes the second",
               ok, time.perf_counter() - t0, 30)


def test_criterion_10_ten_case_table_completeness():
    t0 = time.perf_counter()
    report = verify_ten_case_table(60)
    ok = report.passed and report.details["alpha_compatible"] > 0
    _criterion(10, "every alpha-compatible triple (sum <= 60) is in the "
                   "ten-case table and eliminated; no product equals D(C_n)",
               ok, time.perf_counter() - t0, 120)
