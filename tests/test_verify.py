import random
from functools import lru_cache

import pytest

from dompoly.cycles import alpha, cycle_polynomial, cycle_polynomials, cycle_residues
from dompoly.errors import ParameterDomainError, SizeGuardError
from dompoly.graphs import cycle, disjoint_union, encode_graph6, complete, parse_graph6, path, wheel
from dompoly.oracle import domination_polynomial
from dompoly.polynomials import IntPolynomial
from dompoly import verify
from dompoly.verify import (
    FINGERPRINT_MODULUS,
    FINGERPRINT_POINT,
    TEN_CASES,
    classify_corpus,
    enumerate_partitions,
    match_partitions,
    partition_matches_cycle,
    partition_polynomial,
    path_companion,
    run_all,
    verify_alpha,
    verify_beta,
    verify_cycle_recurrence,
    verify_cycle_uniqueness,
    verify_cycle_uniqueness_by_divisibility,
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
    fingerprints = cycle_residues(FINGERPRINT_POINT, FINGERPRINT_MODULUS)
    for p, poly, fingerprint in zip(range(1, 201), cycle_polynomials(), fingerprints):
        assert fingerprint == poly.eval_at(FINGERPRINT_POINT) % FINGERPRINT_MODULUS, p


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


def test_fingerprint_filter_agrees_on_triples():
    cycle_polys = dict(zip(range(1, 46), cycle_polynomials()))
    for n1 in range(3, 40):
        for n2 in range(3, n1 + 1):
            for n3 in range(3, min(n2, 45 - n1 - n2) + 1):
                parts = (n1, n2, n3)
                exhaustive = partition_polynomial(parts) == cycle_polys[sum(parts)]
                assert partition_matches_cycle(parts) == exhaustive, parts


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
    rep = verify_union_product(pairs=40, max_order=7)
    assert rep.passed and rep.lemma_id == "L2-union"
    assert rep.counterexamples == []


def test_cycle_recurrence_report():
    assert verify_cycle_recurrence(12).passed


def test_gamma_report():
    rep = verify_gamma_additivity_and_ceiling(14)
    assert rep.passed


def test_scalar_reports():
    assert verify_alpha(120).passed
    assert verify_beta(120).passed
    assert verify_theta(120).passed


def test_ord3_and_remark_reports():
    assert verify_ord3_table(400).passed
    assert verify_remark(400).passed


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
    rep = verify_cycle_uniqueness(6)
    assert rep.passed
    assert rep.details["partitions_checked"] == 2
    # the lone rival {3,3} differs at x^3: 14 vs 18
    assert cycle_polynomial(6).coefficient(3) == 14
    assert partition_polynomial((3, 3)).coefficient(3) == 18


def test_cycle_uniqueness_12():
    rep = verify_cycle_uniqueness(12)
    assert rep.passed
    assert rep.details["partitions_checked"] == 9
    # only the trivial partition survives the fingerprint
    assert rep.details["full_compares"] == 1


def test_cycle_uniqueness_range():
    rep = verify_cycle_uniqueness_range(3, 25)
    assert rep.passed
    assert rep.range_checked == (3, 25)


def test_cycle_uniqueness_min_part_one():
    rep = verify_cycle_uniqueness(8, min_part=1)
    assert rep.passed
    assert rep.details["min_part"] == 1


def _answer(report):
    return report.status, report.counterexamples


@pytest.mark.parametrize("min_part,n_max", ((3, 40), (1, 25)))
def test_divisibility_sieve_agrees_with_enumeration(min_part, n_max):
    for n in range(3, n_max + 1):
        sieve = verify_cycle_uniqueness_by_divisibility(n, n, min_part)
        assert _answer(sieve) == _answer(verify_cycle_uniqueness(n, min_part)) == ("pass", []), n
        assert sieve.details["enumerated"] == []
    sieve = verify_cycle_uniqueness_by_divisibility(3, n_max, min_part)
    assert _answer(sieve) == _answer(verify_cycle_uniqueness_range(3, n_max, min_part))
    assert sieve.range_checked == (3, n_max)


def test_divisibility_sieve_default_range():
    rep = verify_cycle_uniqueness_by_divisibility()
    assert rep.passed and rep.range_checked == (3, 1000)
    details = rep.details
    assert details["route"] == "divisibility"
    assert details["pairs_tested"] == 997 * 998 // 2
    assert details["pairs_tested"] >= details["residue_survivors"] >= details["value_survivors"]
    assert details["exact_divisions"] == details["value_survivors"]
    assert details["divisors"] == details["enumerated"] == []
    assert details["min_part"] == 3
    assert "partitions_checked" not in details and "full_compares" not in details


def _sieve_without_stages(monkeypatch):
    """No modulus and no point: every pair reaches the exact division."""
    monkeypatch.setattr(verify, "SIEVE_MODULI", ())
    monkeypatch.setattr(verify, "SIEVE_POINTS", ())


@pytest.mark.parametrize("min_part", (1, 3))
def test_divisibility_sieve_stages_only_reject(monkeypatch, min_part):
    """With stages 1 and 2 emptied, exact division alone rejects every pair,
    and the answer is the same."""
    sieved = verify_cycle_uniqueness_by_divisibility(3, 20, min_part)
    _sieve_without_stages(monkeypatch)
    divided = verify_cycle_uniqueness_by_divisibility(3, 20, min_part)
    assert divided.details["residue_survivors"] == divided.details["pairs_tested"]
    assert divided.details["exact_divisions"] == divided.details["pairs_tested"] == 153
    assert divided.details["divisors"] == []
    assert sieved.details["exact_divisions"] < divided.details["exact_divisions"]
    assert _answer(sieved) == _answer(divided) == ("pass", [])


def test_divisibility_sieve_decides_a_planted_divisor_by_enumeration(monkeypatch):
    _sieve_without_stages(monkeypatch)
    divides = verify._monic_divides
    monkeypatch.setattr(
        verify, "_monic_divides",
        lambda d, f: (d.degree, f.degree) == (5, 12) or divides(d, f),
    )
    enumerated = []

    def spy(n, min_part=3):
        enumerated.append((n, min_part))
        return enumerate_partitions(n, min_part)

    monkeypatch.setattr(verify, "enumerate_partitions", spy)
    rep = verify_cycle_uniqueness_by_divisibility(3, 15)
    assert rep.details["divisors"] == [[5, 12]]
    assert rep.details["enumerated"] == [12]
    assert enumerated == [(12, 3)]
    assert _answer(rep) == ("pass", [])

    # A counterexample the enumeration finds is reported as the reference
    # route reports it.
    matches = verify.match_partitions

    def planted(n, min_part=3):
        for parts, outcome in matches(n, min_part):
            yield parts, parts == (9, 3) or outcome

    monkeypatch.setattr(verify, "match_partitions", planted)
    rep = verify_cycle_uniqueness_by_divisibility(3, 15)
    assert rep.status == "fail"
    assert [ex["partition"] for ex in rep.counterexamples] == [[9, 3]]
    assert _answer(rep) == _answer(verify_cycle_uniqueness_range(12, 12))


@pytest.mark.parametrize("point,value", ((-2, 0), (1, 1)))
def test_divisibility_sieve_enumerates_when_small_parts_could_match(monkeypatch, point, value):
    """With min_part 1, D(C_n, -2) = 0 (a part 2 could divide) or
    D(C_n, 1) = 1 (D(C_n) could be x^n) sends that n to enumeration."""
    jets = verify.cycle_jets

    def planted(t, k=0):
        for n, jet in enumerate(jets(t, k), start=1):
            yield (value,) if (t, n) == (point, 7) else jet

    monkeypatch.setattr(verify, "cycle_jets", planted)
    assert verify_cycle_uniqueness_by_divisibility(3, 10, 1).details["enumerated"] == [7]
    assert verify_cycle_uniqueness_by_divisibility(3, 10, 3).details["enumerated"] == []


def test_monic_divides():
    c3 = cycle_polynomial(3)
    assert verify._monic_divides(c3, partition_polynomial((4, 3)))
    assert verify._monic_divides(IntPolynomial.x(), cycle_polynomial(9))
    assert not verify._monic_divides(c3, cycle_polynomial(7))
    assert not verify._monic_divides(cycle_polynomial(4), partition_polynomial((3, 3, 3)))


def test_divisibility_sieve_validation():
    with pytest.raises(ParameterDomainError):
        verify_cycle_uniqueness_by_divisibility(2, 10)
    with pytest.raises(ParameterDomainError):
        verify_cycle_uniqueness_by_divisibility(3, 10, min_part=2)


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

    for name in ("match_partitions", "partition_matches_cycle", "cycle_residues"):
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

    def matches(parts):
        compared.append(parts)
        return partition_matches_cycle(parts)

    monkeypatch.setattr(verify, "beta", lambda n: 0)
    monkeypatch.setattr(verify, "theta", lambda n: 0)
    monkeypatch.setattr(verify, "partition_matches_cycle", matches)
    rep = verify_ten_case_table(40)
    alpha_compatible = [
        (n1, n2, n3) for n1, n2, n3 in verify._triples(40)
        if alpha(n1 + n2 + n3) == alpha(n1) * alpha(n2) * alpha(n3)
    ]
    assert compared == alpha_compatible
    assert rep.details["full_compares"] == rep.details["alpha_compatible"] == len(compared) > 0
    assert all(ex["check"] != "product-equals-cycle" for ex in rep.counterexamples)


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
