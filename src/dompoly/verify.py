"""Desk-scale verification harness.

Each check here takes a finite range, compares an identity or uniqueness
claim against exact computation, and returns a `VerificationReport` whose
counterexample payloads carry enough data (partitions, graph6 records,
full coefficient vectors) to reproduce any failure independently.

The headline check is cycle uniqueness: among disjoint unions of cycles
(the 2-regular graphs), only the one-part partition {n} reproduces
D(C_n, x); and over a complete small-order corpus, no graph at all shares
a cycle's polynomial. The ten-case table check replays the elimination
of three-part partitions at -1: the 2-jet (D, D', D'') of a product of
cycle polynomials there is the Leibniz product of the parts' jets, which
is compared with D(C_n)'s closed-form jet component by component. Only a
triple whose whole jet agrees would get the exact polynomial compare.

T5-partitions enumerates no partition: it replays the paper's
elimination (`verify_cycle_uniqueness_by_elimination`). alpha at -1, the
lowest index and ord_3 at -3 leave only three-part partitions, and in
each of the ten alpha-compatible residue patterns of three parts mod 4
the jet difference at -1 is a polynomial in the parts that is never 0.
The closed forms (`cycles.JET_TABLE`, read through `closed_jet`) and the
ord_3 table it reads are checked against the cycle jets at every n up to
the range's end; L5-alpha, REL2-beta and REL3-theta check the closed forms
too, each by three routes: `closed_jet`, the jet walk at -1, and
D^(j)(C_n, -1) read from the coefficients of a `cycle_polynomials` walk
as one weighted sum (weights (-1)^(i-j) * i!/(i-j)!, built once per check).
L6-ord3 (n <= 30) and R1-remark (every n) check `cycles.B_MOD_9`,
read through `b_mod_9`, against `b_values`.

Enumeration is the reference route (`verify_cycle_uniqueness_range`) and
the route of `search-partitions`. Both take each partition from
`match_partitions`, fingerprint first, full compare second: the
product of the parts' values D(C_p, t) mod 2^61-1 at one fixed point t
must equal D(C_n, t) mod 2^61-1 before the exact compare. Equal
polynomials have equal values, so the fingerprint only ever rejects.
Every exact compare, here and in T5-ten-cases, is
`partition_polynomial(parts) == cycle_polynomial(n)`, coefficient by
coefficient. One `cycle_jets` walk to n gives a search's fingerprints,
and nothing is cached between searches.
"""

from __future__ import annotations

import math
import time
from itertools import combinations_with_replacement, islice
from operator import itemgetter, mul
from random import Random
from typing import Callable, Iterable, Iterator

from .cycles import (
    b_mod_9,
    b_value_by_factoring,
    b_values,
    closed_jet,
    cycle_jets,
    cycle_polynomial,
    cycle_polynomials,
    ord3_bounds,
    predicted_ord3,
)
from .errors import Graph6FormatError, Graph6ParseError, ParameterDomainError, SizeGuardError
from .graphs import Graph, cycle, disjoint_union, parse_graph6, path, wheel
from .oracle import (
    DEFAULT_GUARD,
    LANES,
    MAX_ORDER,
    domination_number,
    domination_polynomial,
    domination_profile,
    graph6_lane_lengths,
    graph6_profiles,
)
from .polynomials import IntPolynomial, ord_p

__all__ = [
    "Check",
    "CHECKS",
    "VerificationReport",
    "EquivalenceClassReport",
    "CorpusClassification",
    "enumerate_partitions",
    "partition_polynomial",
    "match_partitions",
    "verify_union_product",
    "verify_cycle_recurrence",
    "verify_gamma_additivity_and_ceiling",
    "verify_alpha",
    "verify_beta",
    "verify_theta",
    "verify_ord3_table",
    "verify_remark",
    "verify_cycle_uniqueness_range",
    "verify_cycle_uniqueness_by_elimination",
    "verify_ten_case_table",
    "UNLABELED_GRAPH_COUNTS",
    "classify_corpus",
    "verify_wheel_uniqueness",
    "verify_path_class",
    "run_all",
]

DEFAULT_CORPUS_GUARD = 9

# Graphs on n unlabeled vertices for n = 0, 1, 2, ... (OEIS A000088): the
# record count of a complete order-n corpus.
UNLABELED_GRAPH_COUNTS = (
    1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168, 1018997864, 165091172592,
)


class VerificationReport:
    """One check's outcome. `status` is "pass", "fail", or "inconclusive"
    for a corpus check whose corpus cannot be certified complete."""

    def __init__(self, lemma_id: str, range_checked: tuple[int, int], status: str,
                 counterexamples: list[dict], timing_ms: int, details: dict | None = None):
        self.lemma_id = lemma_id
        self.range_checked = range_checked
        self.status = status
        self.counterexamples = counterexamples
        self.timing_ms = timing_ms
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "lemma_id": self.lemma_id,
            "range": list(self.range_checked),
            "status": self.status,
            "counterexamples": self.counterexamples,
            "timing_ms": self.timing_ms,
        }
        if self.details:
            out["details"] = self.details
        return out


def _report(lemma_id, lo, hi, counterexamples, t0, details=None) -> VerificationReport:
    return VerificationReport(
        lemma_id=lemma_id,
        range_checked=(lo, hi),
        status="pass" if not counterexamples else "fail",
        counterexamples=counterexamples,
        timing_ms=int((time.perf_counter() - t0) * 1000),
        details=details or {},
    )


# ---------------------------------------------------------------------------
# Cycle partitions
# ---------------------------------------------------------------------------

def enumerate_partitions(n: int, min_part: int = 3) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts >= min_part, non-increasing,
    in decreasing lexicographic order. min_part is 3 (cycle components of
    a simple 2-regular graph) or 1 (the C_1=K_1, C_2=K_2 convention)."""
    if min_part not in (1, 3):
        raise ParameterDomainError(f"min_part must be 1 or 3, got {min_part}")
    if n < 1:
        raise ParameterDomainError(f"partition target must be >= 1, got {n}")
    return _partitions(n, min_part)


def _partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts >= k, each the successor of the last
    in one list: pop parts until one can shrink, then refill the popped
    total with the largest parts that leave a rest still fillable.

    A total splits into parts in [k, largest] exactly when its fewest
    parts, ceil(total / largest) of them, can each be >= k.
    """
    if n < k:
        return
    parts = [n]
    while True:
        yield tuple(parts)
        total = 0
        while True:
            if not parts:
                return
            last = parts.pop()
            total += last
            largest = last - 1
            if largest >= k and -(-total // largest) * k <= total:
                break
        while total:
            first = min(largest, total)
            rest = total - first
            while rest and -(-rest // first) * k > rest:
                first -= 1
                rest += 1
            parts.append(first)
            total = rest
            largest = first


def partition_polynomial(parts: Iterable[int]) -> IntPolynomial:
    """Product of cycle polynomials over the parts (1 for no parts), in the
    parts' order; one walk up to the largest part supplies the factors."""
    parts = tuple(parts)
    if parts and min(parts) < 1:
        raise ParameterDomainError(f"cycle parts must be >= 1, got {list(parts)}")
    factors = [None, *islice(cycle_polynomials(), max(parts, default=0))]
    return math.prod((factors[p] for p in parts), start=IntPolynomial.one())


# A fingerprint is D(C_p, t) mod a prime at one fixed point t. Evaluation
# at t is a ring map, so by the product law (L2) a partition whose
# polynomial equals D(C_n) has the same fingerprint product as D(C_n).
# The point stays away from -1, 0 and 1: at -1, D(C_n) takes only the
# values 3 and -1 (L5-alpha), so that point would separate almost nothing.
FINGERPRINT_MODULUS = 2**61 - 1
FINGERPRINT_POINT = 1_000_003


def match_partitions(n: int, min_part: int = 3) -> Iterator[tuple[tuple[int, ...], bool | None]]:
    """Yield (parts, outcome) for every partition of n into parts >=
    min_part, in `enumerate_partitions` order.

    The outcome is None when the parts' fingerprint product differs from
    D(C_n)'s, so no full compare ran; otherwise it is the exact compare,
    `partition_polynomial(parts) == cycle_polynomial(n)`. One `cycle_jets`
    walk to n gives every fingerprint.
    """
    partitions = enumerate_partitions(n, min_part)  # checks n >= 1 before the walk
    modulus = FINGERPRINT_MODULUS
    fingerprints = [0, *(v % modulus for (v,) in islice(cycle_jets(FINGERPRINT_POINT), n))]
    for parts in partitions:
        if math.prod(fingerprints[p] for p in parts) % modulus != fingerprints[n]:
            yield parts, None
        else:
            yield parts, partition_polynomial(parts) == cycle_polynomial(n)


# ---------------------------------------------------------------------------
# Identity checks over the cycle family
# ---------------------------------------------------------------------------

def _random_graph(rng: Random, max_order: int) -> Graph:
    n = rng.randint(1, max_order)
    p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.85))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _refuse_past_reach(walk: str, max_n: int, per_n: int, guard: int):
    """Refuse, before any walk, walks to order per_n * max_n that the oracle
    would refuse under `guard` or `MAX_ORDER`."""
    reach = min(guard, MAX_ORDER)
    if per_n * max_n > reach:
        raise SizeGuardError(
            f"{walk} = {per_n * max_n}, above {reach}, the lesser of the enumeration guard "
            f"({guard}) and the oracle's ceiling {MAX_ORDER} (--guard-override raises the "
            f"guard); lower --max-n to {reach // per_n}"
        )


UNION_PAIRS = 200
UNION_SEED = 20250810


def verify_union_product(max_order: int = 8, guard: int = DEFAULT_GUARD) -> VerificationReport:
    """D(G + H) == D(G) * D(H) on `UNION_PAIRS` random pairs of order <=
    max_order, drawn from `UNION_SEED`, both sides brute force.

    The oracle picks its route by order: factors of order up to
    `TRUTH_TABLE_MAX_ORDER` (10) count by truth tables, and unions above it
    by the pair sum. At the default max_order of 8, unions reach order 16,
    so the check also cross-checks the two routes against each other.
    """
    _refuse_past_reach("L2-union walks unions of order up to 2 * --max-n", max_order, 2, guard)
    t0 = time.perf_counter()
    rng = Random(UNION_SEED)
    bad = []
    for i in range(UNION_PAIRS):
        g = _random_graph(rng, max_order)
        h = _random_graph(rng, max_order)
        combined = domination_polynomial(disjoint_union(g, h), guard=guard)
        product = domination_polynomial(g, guard=guard) * domination_polynomial(h, guard=guard)
        if combined != product:
            bad.append({
                "pair_index": i,
                "g_edges": g.edges(), "g_order": g.n,
                "h_edges": h.edges(), "h_order": h.n,
                "union_polynomial": combined.coefficient_strings(),
                "product_polynomial": product.coefficient_strings(),
            })
    return _report("L2-union", 1, max_order, bad, t0, {"pairs": UNION_PAIRS, "seed": UNION_SEED})


def verify_cycle_recurrence(
    n_max: int = 15, guard: int = DEFAULT_GUARD
) -> VerificationReport:
    """Recurrence D(C_n) against the subset-enumeration oracle, n <= n_max."""
    _refuse_past_reach("L3-cycle walks C_n up to --max-n", n_max, 1, guard)
    t0 = time.perf_counter()
    bad = []
    for n, by_recurrence in zip(range(1, n_max + 1), cycle_polynomials()):
        by_oracle = domination_polynomial(cycle(n), guard=guard)
        if by_recurrence != by_oracle:
            bad.append({
                "n": n,
                "recurrence": by_recurrence.coefficient_strings(),
                "oracle": by_oracle.coefficient_strings(),
            })
    return _report("L3-cycle", 1, n_max, bad, t0)


def verify_gamma_additivity_and_ceiling(n_max: int = 15) -> VerificationReport:
    """gamma(C_n) = ceil(n/3) by oracle and by the lowest index of D(C_n).

    Two sub-checks: the oracle value for n <= min(n_max, DEFAULT_GUARD),
    and, on one `cycle_polynomials` walk, the lowest nonzero coefficient
    index of D(C_n) for every n <= n_max. The second covers additivity
    over cycle partitions: in Z[x] the lowest coefficients of the factors
    multiply to a nonzero integer, so lowest indices add over products.
    Every cycle partition's product thus starts at x^(sum of ceil(p/3)),
    and any partition whose product equals D(C_n) meets the ceiling
    identity, at every n <= n_max, with no partition enumerated.
    """
    t0 = time.perf_counter()
    bad = []
    for n in range(1, min(n_max, DEFAULT_GUARD) + 1):
        got = domination_number(cycle(n))
        if got != (n + 2) // 3:
            bad.append({"check": "oracle-gamma", "n": n, "gamma": got})
    for n, poly in zip(range(1, n_max + 1), cycle_polynomials()):
        lowest = next((i for i, c in enumerate(poly) if c), None)
        if lowest != (n + 2) // 3:
            bad.append({"check": "lowest-index", "n": n, "lowest_index": lowest,
                        "polynomial": poly.coefficient_strings()})
    return _report("L4-gamma", 1, n_max, bad, t0)


def _derivative_weights(j: int, size: int) -> list[int]:
    """w_0, ..., w_{size-1} with w_i = (-1)^(i-j) * i!/(i-j)! (0 for i < j):
    the j-th derivative of sum c_i x^i at -1 is sum c_i * w_i."""
    return [-math.perm(i, j) if (i - j) % 2 else math.perm(i, j) for i in range(size)]


def _scalar_identity_report(lemma_id, n_max, j):
    """Component j of `closed_jet` vs. the cycle jet at -1 vs. D^(j)(C_n, -1)
    evaluated from the polynomial's coefficients, as one weighted sum with
    the weights built once for degrees up to n_max."""
    t0 = time.perf_counter()
    bad = []
    weights = _derivative_weights(j, n_max + 1)
    walk = zip(range(1, n_max + 1), cycle_jets(-1, j), cycle_polynomials())
    for n, jet, p in walk:
        if len(p.coeffs) > len(weights):
            # Only a walk off degree n gets here; the sum must read every coefficient.
            weights = _derivative_weights(j, len(p.coeffs))
        cf, rec, evaluated = closed_jet(n)[j], jet[j], sum(map(mul, p.coeffs, weights))
        if not (cf == rec == evaluated):
            bad.append({
                "n": n, "closed_form": str(cf), "recurrence": str(rec),
                "evaluation": str(evaluated),
            })
    return _report(lemma_id, 1, n_max, bad, t0)


def verify_alpha(n_max: int = 200) -> VerificationReport:
    return _scalar_identity_report("L5-alpha", n_max, 0)


def verify_beta(n_max: int = 200) -> VerificationReport:
    return _scalar_identity_report("REL2-beta", n_max, 1)


def verify_theta(n_max: int = 200) -> VerificationReport:
    return _scalar_identity_report("REL3-theta", n_max, 2)


def _ord3_within(a: int, low: int, high: int) -> bool:
    """Whether 3^low divides a and 3^(high+1) does not: low <= ord_3(a) <= high."""
    quotient, rest = divmod(a, 3**low)
    return not rest and quotient % 3 ** (high - low + 1) != 0


def verify_ord3_table(n_max: int = 1000) -> VerificationReport:
    """ord_3(a_n) stays within the three-branch table; b_n basics.

    Checks, for every n in range: ord_3(a_n) is within `ord3_bounds(n)`,
    and where it is, b_n from the recurrence equals b_n from factoring
    a_n; 9 does not divide b_n; and the first 30 values of b_n mod 9
    equal the golden vector, `b_mod_9`.
    """
    t0 = time.perf_counter()
    bad = []
    for n, (a_n,), b_rec in zip(range(1, n_max + 1), cycle_jets(-3), b_values()):
        lo, hi = ord3_bounds(n)
        if not _ord3_within(a_n, lo, hi):
            # Outside the table, 3^ceil(n/3) may not divide a_n: no b_n to compare.
            bad.append({"check": "ord3-bound", "n": n, "ord3": ord_p(a_n, 3),
                        "allowed": [*range(lo, hi + 1)]})
        elif b_rec != (b_fac := b_value_by_factoring(n, a_n)):
            bad.append({"check": "b-routes", "n": n, "recurrence": str(b_rec), "factoring": str(b_fac)})
        if b_rec % 9 == 0:
            bad.append({"check": "nine-divides-b", "n": n, "b": str(b_rec)})
        if n <= 30 and b_rec % 9 != b_mod_9(n):
            bad.append({"check": "golden-vector", "n": n, "b_mod_9": b_rec % 9, "expected": b_mod_9(n)})
    return _report("L6-ord3", 1, n_max, bad, t0)


def verify_remark(n_max: int = 1000) -> VerificationReport:
    """The exact ord_3 classification and the mod-9 period of b.

    b_n mod 9 from the recurrence equals `b_mod_9(n)`, one period of 27,
    at every n in range, and ord_3(a_n) equals `predicted_ord3(n)`, which
    reads the same period to resolve the table's n = 3k+1 branch.
    """
    t0 = time.perf_counter()
    bad = []
    for n, (a_n,), b_n in zip(range(1, n_max + 1), cycle_jets(-3), b_values()):
        if b_n % 9 != b_mod_9(n):
            bad.append({"check": "period-27", "n": n, "b_mod_9": b_n % 9, "expected": b_mod_9(n)})
        predicted = predicted_ord3(n)
        if not _ord3_within(a_n, predicted, predicted):
            bad.append({"check": "exact-ord3", "n": n, "ord3": ord_p(a_n, 3), "predicted": predicted})
    return _report("R1-remark", 1, n_max, bad, t0)


# ---------------------------------------------------------------------------
# Uniqueness among unions of cycles
# ---------------------------------------------------------------------------

def verify_cycle_uniqueness_range(
    n_min: int = 3, n_max: int = 40, min_part: int = 3
) -> VerificationReport:
    """For every n in n_min..n_max, only the trivial partition {n} reproduces
    D(C_n,x): the reference route, which enumerates every partition."""
    if n_min < 3:
        raise ParameterDomainError(f"cycle uniqueness check needs n >= 3, got {n_min}")
    t0 = time.perf_counter()
    bad = []
    total = full_compares = 0
    for n in range(n_min, n_max + 1):
        trivial_matched = False
        for parts, outcome in match_partitions(n, min_part):
            total += 1
            full_compares += outcome is not None
            if not outcome:
                continue
            if parts == (n,):
                trivial_matched = True
                continue
            bad.append({
                "n": n,
                "partition": list(parts),
                "partition_polynomial": partition_polynomial(parts).coefficient_strings(),
                "cycle_polynomial": cycle_polynomial(n).coefficient_strings(),
            })
        if not trivial_matched:
            bad.append({"n": n, "error": "trivial partition did not match itself"})
    return _report(
        "T5-partitions", n_min, n_max, bad, t0,
        {"partitions_checked": total, "full_compares": full_compares, "min_part": min_part},
    )


# The ten admissible residue patterns for n = n1+n2+n3 (everything mod 4),
# keyed by (n mod 4, sorted part residues). A triple is alpha-compatible
# exactly when its pattern is one of these.
TEN_CASES = {
    (0, (0, 1, 3)): 1,
    (0, (0, 2, 2)): 2,
    (1, (1, 1, 3)): 3,
    (1, (1, 2, 2)): 4,
    (1, (3, 3, 3)): 5,
    (2, (1, 2, 3)): 6,
    (2, (2, 2, 2)): 7,
    (3, (1, 1, 1)): 8,
    (3, (1, 3, 3)): 9,
    (3, (2, 2, 3)): 10,
}


def _part_pairs(n_max: int) -> Iterator[tuple[int, int, range]]:
    """The part triples n1 >= n2 >= n3 >= 3 with n1 + n2 + n3 <= n_max, in
    order, as (n1, n2, the range of n3) for each pair that has an n3."""
    for n1 in range(3, n_max - 5):
        for n2 in range(3, min(n1, n_max - n1 - 3) + 1):
            yield n1, n2, range(3, min(n2, n_max - n1 - n2) + 1)


def _jet_product(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """The 2-jet (value, D', D'') of a product from its factors' jets at one
    point, by the Leibniz rule: (fg)' = f'g + fg', (fg)'' = f''g + 2f'g' + fg''."""
    (a, b, c), (a2, b2, c2) = f, g
    return (a * a2, a * b2 + b * a2, a * c2 + 2 * b * b2 + c * a2)


def verify_ten_case_table(n_max: int = 60) -> VerificationReport:
    """Three-part partitions: table completeness and case elimination.

    For every triple of parts >= 3 with sum <= n_max, the product's 2-jet
    at -1 (alpha, beta, theta) is the Leibniz product of the parts' jets
    and is compared with n's. Every alpha-compatible triple's residue
    pattern must be one of the ten cases, and its case must eliminate it:
    at the jet index j its `_case_certificate` reads (1 for beta, 2 for
    theta), the product's jet must agree with n's below j and differ at j.
    A triple whose whole jet agrees gets the exact compare, which must
    find the product polynomial different from D(C_n,x).
    """
    t0 = time.perf_counter()
    bad = []
    case_counts = {k: 0 for k in range(1, 11)}
    total = full_compares = compatible = 0
    jets = {n: closed_jet(n) for n in range(3, n_max + 1)}
    reads = {c: _case_certificate(p, 3)["component"] for p, c in TEN_CASES.items()}
    # The parts' residues mod 4, in order, mapped to their pattern and its
    # case (None outside the table).
    residues = [(r1, r2, r3) for r1 in range(4) for r2 in range(4) for r3 in range(4)]
    patterns = {rs: (sum(rs) % 4, tuple(sorted(rs))) for rs in residues}
    cases = {rs: (pattern, TEN_CASES.get(pattern)) for rs, pattern in patterns.items()}
    for n1, n2, n3s in _part_pairs(n_max):
        fg = _jet_product(jets[n1], jets[n2])
        for n3 in n3s:
            total += 1
            n = n1 + n2 + n3
            h, want = jets[n3], jets[n]
            # A triple whose alpha product differs from n's alpha cannot match
            # n's jet and gets no case: its Leibniz product is never built.
            if fg[0] * h[0] != want[0]:
                continue
            jet = _jet_product(fg, h)
            if jet == want:
                full_compares += 1
                if partition_polynomial((n1, n2, n3)) == cycle_polynomial(n):
                    bad.append({"check": "product-equals-cycle", "n": n, "partition": [n1, n2, n3]})
            compatible += 1
            pattern, case = cases[n1 % 4, n2 % 4, n3 % 4]
            if case is None:
                bad.append({
                    "check": "pattern-outside-table", "n": n,
                    "partition": [n1, n2, n3], "pattern": [pattern[0], list(pattern[1])],
                })
                continue
            case_counts[case] += 1
            j = 1 if reads[case] == "beta" else 2
            if jet[:j] != want[:j] or jet[j] == want[j]:
                bad.append({
                    "check": "case-not-eliminated", "n": n, "case": case,
                    "partition": [n1, n2, n3], "component": reads[case],
                    "product_jet": list(map(str, jet)), "jet_n": list(map(str, want)),
                })
    return _report(
        "T5-ten-cases", 9, n_max, bad, t0,
        {
            "triples_checked": total,
            "full_compares": full_compares,
            "alpha_compatible": compatible,
            "case_counts": {str(k): v for k, v in case_counts.items()},
        },
    )


# Why three parts. Say D(C_n) is the product of D(C_m) over k >= 2 parts.
# Evaluation and the lowest index of a nonzero coefficient respect products.
# (a) alpha is -1 or 3 at each part and at n, so k is odd. (b) D(C_m) starts
# at x^ceil(m/3): D(C_1..3) start at x, and the recurrence, whose coefficients
# are nonnegative, adds one to the least of the three before. With s(m) = -m
# mod 3, ceil(m/3) = (m + s(m))/3, so the parts' s sum to s(n) <= 2. (c) So
# the parts' delta(m) = ord_3(D(C_m, -3)) - ceil(m/3) sum to delta(n) <= 1
# (L6's table); as delta(m) = 1 where s(m) = 0, every s + delta >= 1: k = 3.
# This holds wherever the closed forms and the table do; the route checks both.

# The exponent triples of degree <= 2, lexicographic: each after those below it.
_POINTS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]


def _case_certificate(pattern, min_part: int) -> dict:
    """One case's jet difference, product minus n's, in the basis 1, k_i,
    C(k_i,2), k_i*k_j (nonnegative for k >= 0): beta's, or theta's where
    beta's is 0. Its witness of never being 0 is "sign" (every coefficient
    of the nonzero constant's sign), "mod 4" (4 divides every coefficient
    but the constant) or None."""
    least = [min_part + (r - min_part) % 4 for r in pattern[1]]
    differences = {}
    for k in _POINTS:
        parts = [4 * k_i + m for k_i, m in zip(k, least)]
        f, g, h = map(closed_jet, parts)
        product = _jet_product(_jet_product(f, g), h)
        differences[k] = [p - q for p, q in zip(product, closed_jet(sum(parts)))]
    for j, component in ((1, "beta"), (2, "theta")):
        # Basis polynomial m at point k is prod C(k_i, m_i): 0 unless m <= k,
        # and 1 at k = m, so the coefficients come by forward substitution.
        coeffs = {}
        for k in _POINTS:
            coeffs[k] = differences[k][j] - sum(
                c * math.prod(map(math.comb, k, m)) for m, c in coeffs.items()
            )
        if any(coeffs.values()):
            break
    constant, others = coeffs[0, 0, 0], [c for m, c in coeffs.items() if any(m)]
    sign = constant and all(c * constant >= 0 for c in others)
    mod4 = constant % 4 and all(c % 4 == 0 for c in others)
    witness = "sign" if sign else "mod 4" if mod4 else None
    return {
        "pattern": [pattern[0], list(pattern[1])],
        "component": component,
        "difference": {
            "*".join(("", f"k{i}", f"C(k{i},2)")[e] for i, e in enumerate(m, 1) if e) or "1": c
            for m, c in coeffs.items() if c
        },
        "witness": witness,
    }


def verify_cycle_uniqueness_by_elimination(n_max: int = 1000, min_part: int = 3) -> VerificationReport:
    """For every n in 3..n_max, only the trivial partition {n} reproduces
    D(C_n,x), by the paper's elimination; no partition is enumerated.

    A walk to n_max checks the premises: the 2-jet at -1 is `closed_jet(n)`
    and ord_3(D(C_n, -3)) is within `ord3_bounds(n)`. The reduction above
    leaves three parts, with residues mod 4 in an alpha-compatible pattern;
    recomputed from `closed_jet`, those patterns must be the `TEN_CASES`. On
    each class mod 4, alpha, beta and theta have degree 0, 1 and 2 in n, so
    with part i = 4*k_i + r_i, r_i the least part >= min_part of its class,
    each case's jet difference is a polynomial of degree <= 2 in (k1, k2,
    k3): `_case_certificate` reads it from ten `_jet_product` evaluations.
    """
    if min_part not in (1, 3):
        raise ParameterDomainError(f"min_part must be 1 or 3, got {min_part}")
    t0 = time.perf_counter()
    bad = []
    for n, jet, (a_n,) in zip(range(1, n_max + 1), cycle_jets(-1, 2), cycle_jets(-3)):
        if jet != closed_jet(n):
            bad.append({"check": "closed-form-jet", "n": n, "jet": list(map(str, jet)),
                        "closed_form": list(map(str, closed_jet(n)))})
        low, high = ord3_bounds(n)
        if not _ord3_within(a_n, low, high):
            bad.append({"check": "ord3-table", "n": n, "allowed": [low, high]})
    compatible = {(sum(rs) % 4, rs) for rs in combinations_with_replacement(range(4), 3)
                  if closed_jet(4 + sum(rs) % 4)[0] == math.prod(closed_jet(4 + r)[0] for r in rs)}
    if compatible != set(TEN_CASES):
        bad.append({"check": "ten-cases-table", "alpha_compatible": sorted(compatible)})
    cases = {str(case): _case_certificate(pattern, min_part) for pattern, case in TEN_CASES.items()}
    bad += [{"check": "case-witness", "case": int(case), **certificate}
            for case, certificate in cases.items() if certificate["witness"] is None]
    details = {"route": "elimination", "cases": cases, "min_part": min_part}
    return _report("T5-partitions", 3, n_max, bad, t0, details)


# ---------------------------------------------------------------------------
# Corpus classification
# ---------------------------------------------------------------------------

class EquivalenceClassReport:
    def __init__(self, key_polynomial: IntPolynomial, members: list[str]):
        self.key_polynomial = key_polynomial
        self.members = members

    @property
    def class_size(self) -> int:
        return len(self.members)

    def to_json_dict(self) -> dict:
        return {
            "key_polynomial": self.key_polynomial.coefficient_strings(),
            "class_size": self.class_size,
            "members": self.members,
        }


class CorpusClassification:
    def __init__(self, classes: list[EquivalenceClassReport], parse_errors: list[dict]):
        self.classes = classes
        self.parse_errors = parse_errors
        self._by_key = {c.key_polynomial.coeffs: c for c in classes}

    def class_of(self, poly: IntPolynomial) -> EquivalenceClassReport | None:
        return self._by_key.get(poly.coeffs)

    def completeness_problems(self, n: int) -> list[str]:
        """Why the classified records cannot be the complete order-n corpus.

        Empty when there are no parse errors, every record has order n (the
        degree of its key polynomial, as d(G, n) = 1), no record repeats
        another byte for byte, and the record count is the number of graphs
        on n unlabeled vertices. Two records of isomorphic graphs are not
        detected, so a corpus that lists one graph twice under different
        labellings and omits another still certifies. Isomorphic graphs
        share their polynomial, so an isomorphism test between the members
        of each class would find such pairs, with no canonical labelling;
        this package has no such test yet.
        """
        problems = []
        if self.parse_errors:
            problems.append(f"unparseable records: {len(self.parse_errors)}")
        members, wrong_order = [], 0
        for c in self.classes:
            members += c.members
            if c.key_polynomial.degree != n:
                wrong_order += len(c.members)
        if wrong_order:
            problems.append(f"records not of order {n}: {wrong_order}")
        # Byte-identical records share their polynomial, so their class:
        # repeats counted over all members are the per-class repeats.
        repeated = len(members) - len(set(members))
        if repeated:
            problems.append(f"repeated records: {repeated}")
        records = len(self.parse_errors) + len(members)
        expected = UNLABELED_GRAPH_COUNTS[n] if n < len(UNLABELED_GRAPH_COUNTS) else "unknown"
        if records != expected:
            problems.append(f"records: {records}, graphs of order {n}: {expected}")
        return problems

    def to_json_dict(self) -> dict:
        return {
            "classes": [c.to_json_dict() for c in self.classes],
            "parse_errors": self.parse_errors,
        }


def classify_corpus(
    records: Iterable[bytes], *, corpus_guard: int | None = None
) -> CorpusClassification:
    """Group bare graph6 records (bytes, as `iter_graph6_records` yields
    them) into exact polynomial-equivalence classes.

    Records are grouped by their domination profile, which determines the
    polynomial; each class builds its key polynomial once. A record the
    oracle's byte lanes read (an order up to TRUTH_TABLE_MAX_ORDER and
    `corpus_guard`, of its order's length) waits with the others of its
    order until LANES of them are drawn or the input ends, and they are
    walked at once by `graph6_profiles`, with no Graph built. A batch with a
    byte outside 63..126 or a set padding bit, and any other record, goes
    through `parse_graph6`, the guard check and `domination_profile`, so
    errors and refusals are theirs. Per-record parse failures are
    collected, not fatal, and listed in index order. An order above
    `corpus_guard` (None means DEFAULT_CORPUS_GUARD, 9; a full order-10
    corpus is ~12M graphs) is fatal, since it means the whole file is at
    the wrong scale. The oracle runs under the same guard, which every
    record that passes it meets.

    A record the lanes cannot read is walked before the next is drawn, and
    at most LANES records per order wait unwalked, so memory holds the
    classes and those batches, not every parsed graph.

    Classes come back sorted by descending size, then by key polynomial
    (degree, then coefficients); members are sorted strings, so output is
    deterministic regardless of input order.
    """
    if corpus_guard is None:
        corpus_guard = DEFAULT_CORPUS_GUARD
    groups: dict[tuple[int, ...], list[bytes]] = {}
    errors: list[dict] = []

    def parse_route(idx: int, rec: bytes):
        try:
            g = parse_graph6(rec)
        except (Graph6ParseError, Graph6FormatError) as exc:
            errors.append({"index": idx, "record": rec.decode("ascii", errors="replace"),
                           "error": str(exc)})
            return
        if g.n > corpus_guard:
            raise SizeGuardError(
                f"corpus record {idx} has order {g.n} above the corpus guard "
                f"({corpus_guard}); raise it via corpus_guard (CLI: --guard-override)"
            )
        groups.setdefault(domination_profile(g, guard=corpus_guard), []).append(rec)

    def walk(indices: list[int], batch: list[bytes]):
        profiles = graph6_profiles(batch)
        if profiles is None:
            for idx, rec in zip(indices, batch):
                parse_route(idx, rec)
        else:
            for key, rec in zip(profiles, batch):
                groups.setdefault(key, []).append(rec)
        indices.clear()
        batch.clear()

    lengths = graph6_lane_lengths(corpus_guard)
    pending = {head: ([], []) for head in lengths}
    for idx, rec in enumerate(records):
        head = rec[:1]
        if len(rec) == lengths.get(head):
            indices, batch = pending[head]
            indices.append(idx)
            batch.append(rec)
            if len(batch) == LANES:
                walk(indices, batch)
        else:
            parse_route(idx, rec)
    for indices, batch in pending.values():
        if batch:
            walk(indices, batch)
    # A batch that fell back was parsed after the records drawn behind it.
    errors.sort(key=itemgetter("index"))

    # The null graph's empty profile is the polynomial 1, as in
    # `domination_polynomial`; every other profile ends in d(G, n) = 1. So
    # a profile's length is its polynomial's degree, and profiles of one
    # length sort as their polynomials' coefficients do. Every member
    # parsed, so it is ASCII with no newline.
    ordered = sorted(groups.items(), key=lambda item: (-len(item[1]), len(item[0]), item[0]))
    classes = [
        EquivalenceClassReport(
            IntPolynomial._of((0, *key) if key else (1,)),
            b"\n".join(sorted(members)).decode("ascii").split("\n"),
        )
        for key, members in ordered
    ]
    return CorpusClassification(classes, errors)


def _certified(
    rep: VerificationReport, result: CorpusClassification, n: int
) -> VerificationReport:
    """A corpus check decides nothing over a corpus not certified complete:
    its status becomes "inconclusive", and `details` lists the problems."""
    problems = result.completeness_problems(n)
    if problems:
        rep.status = "inconclusive"
        rep.details["corpus_problems"] = problems
    return rep


def verify_wheel_uniqueness(
    n: int, result: CorpusClassification, guard: int = DEFAULT_GUARD
) -> VerificationReport:
    """Over a complete order-n corpus, W_n's class must be a singleton.

    `result` is the corpus's `classify_corpus` output, and W_n's walk runs
    under `guard`. The report is inconclusive unless the corpus certifies
    as complete (`CorpusClassification.completeness_problems`).
    """
    _require_covered("COR-wheel", n)
    t0 = time.perf_counter()
    target = domination_polynomial(wheel(n), guard=guard)
    cls = result.class_of(target)
    bad = []
    if cls is None:
        bad.append({"n": n, "error": "corpus contains no graph with the wheel polynomial",
                    "wheel_polynomial": target.coefficient_strings()})
    elif cls.class_size != 1:
        bad.append({
            "n": n, "class_size": cls.class_size, "members": cls.members,
            "wheel_polynomial": target.coefficient_strings(),
        })
    details = {"corpus_size": sum(c.class_size for c in result.classes),
               "parse_errors": len(result.parse_errors)}
    return _certified(_report("COR-wheel", n, n, bad, t0, details), result, n)


def path_companion(n: int, variant: str) -> Graph:
    """The order-n companion candidates: a cycle of order n-2 plus two new
    vertices attached to two adjacent cycle vertices.

    variant "one-each": each new vertex is joined to one of the two
    adjacent cycle vertices. variant "both-to-both": both new vertices
    are joined to both.
    """
    if n < 6:
        raise ParameterDomainError(f"companion construction needs n >= 6, got {n}")
    base = cycle(n - 2)
    extra = {
        "one-each": [(n - 2, 0), (n - 1, 1)],
        "both-to-both": [(n - 2, 0), (n - 2, 1), (n - 1, 0), (n - 1, 1)],
    }[variant]
    return Graph.from_edges(n, base.edges() + extra)


def verify_path_class(
    n: int, result: CorpusClassification, guard: int = DEFAULT_GUARD
) -> VerificationReport:
    """P_n (for 3 | n) has a class of exactly two members over the corpus
    that `result` classifies.

    Both companion constructions are built and compared against D(P_n) by
    brute force under `guard`; the report records which variant (if
    either) matches, so the construction is decided by computation rather
    than assumption.
    As for the wheel, an uncertified corpus makes the report inconclusive.
    """
    _require_covered("P-path-class", n)
    t0 = time.perf_counter()
    target = domination_polynomial(path(n), guard=guard)
    variant_matches = {}
    for variant in ("one-each", "both-to-both"):
        companion = path_companion(n, variant)
        variant_matches[variant] = domination_polynomial(companion, guard=guard) == target

    cls = result.class_of(target)
    bad = []
    size = 0 if cls is None else cls.class_size
    if size != 2:
        bad.append({
            "n": n,
            "class_size": size,
            "members": [] if cls is None else cls.members,
            "path_polynomial": target.coefficient_strings(),
        })
    if not any(variant_matches.values()):
        bad.append({
            "n": n,
            "error": "neither companion construction matches the path polynomial",
            "path_polynomial": target.coefficient_strings(),
        })
    details = {"companion_variant_matches": variant_matches}
    return _certified(_report("P-path-class", n, n, bad, t0, details), result, n)


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------

class Check:
    """One claim of the paper, runnable by its id.

    A range check (`default_n` set) covers min_n..max_n and runs as
    `run(max_n)`. A corpus check (`default_n` None) covers one order n out
    of min_n, min_n + step, ... and runs as `run(n, classify_corpus(records))`
    over the complete corpus of that order. `covers` is the only rule for
    those orders: the corpus checks, `run_all` and the CLI (which refuses an
    uncovered order before reading a corpus) all read it. Either way, the
    keyword parameters its runner declares (`guard`, `min_part`) are the
    only options it reads, and their defaults live there. Each runner looks
    its `verify_*` function up by module-global name when called, so a
    wrapper bound to that name (a profiler, say) sees the call.
    """

    def __init__(self, claim: str, run: Callable[..., VerificationReport], min_n: int,
                 default_n: int | None = None, step: int = 1):
        self.claim = claim
        self.run = run
        self.min_n = min_n
        self.default_n = default_n
        self.step = step

    def covers(self, n: int) -> bool:
        return n >= self.min_n and (n - self.min_n) % self.step == 0


def _require_covered(lemma_id: str, n: int) -> None:
    """Refuse an order the corpus check `lemma_id` does not cover, by its
    registry entry's rule."""
    check = CHECKS[lemma_id]
    if not check.covers(n):
        orders = ", ".join(str(check.min_n + i * check.step) for i in range(3))
        raise ParameterDomainError(f"{lemma_id} covers n = {orders}, ...; got {n}")


# In `run_all` order: range checks first, then the corpus checks.
CHECKS: dict[str, Check] = {
    "L2-union": Check(
        "domination polynomial of a disjoint union equals the product over components",
        lambda n, guard=DEFAULT_GUARD: verify_union_product(max_order=n, guard=guard),
        1, 8,
    ),
    "L3-cycle": Check(
        "three-term cycle recurrence reproduces the brute-force cycle polynomial",
        lambda n, guard=DEFAULT_GUARD: verify_cycle_recurrence(n, guard=guard),
        1, 15,
    ),
    "L4-gamma": Check(
        "gamma(C_n) = ceil(n/3), and gamma adds over cycle partitions",
        lambda n: verify_gamma_additivity_and_ceiling(n), 1, 15,
    ),
    "L5-alpha": Check(
        "D(C_n,-1) closed form (3 when 4|n, else -1)",
        lambda n: verify_alpha(n), 1, 200,
    ),
    "REL2-beta": Check(
        "D'(C_n,-1) closed form (-n, n, 0, 0 by n mod 4)",
        lambda n: verify_beta(n), 1, 200,
    ),
    "REL3-theta": Check(
        "D''(C_n,-1) closed form by n mod 4",
        lambda n: verify_theta(n), 1, 200,
    ),
    "L6-ord3": Check(
        "ord_3 of D(C_n,-3) follows the ceil(n/3) table; 9 never divides b_n",
        lambda n: verify_ord3_table(n), 1, 1000,
    ),
    "R1-remark": Check(
        "mod-27 residues {4,13,22} pin down the ambiguous ord_3 branch; b mod 9 has period 27",
        lambda n: verify_remark(n), 1, 1000,
    ),
    "T5-partitions": Check(
        "only the trivial cycle partition reproduces D(C_n,x)",
        lambda n, min_part=3: verify_cycle_uniqueness_by_elimination(n, min_part), 3, 1000,
    ),
    "T5-ten-cases": Check(
        "every alpha-compatible part triple falls in the 10-case table and is eliminated",
        lambda n: verify_ten_case_table(n), 9, 60,
    ),
    "COR-wheel": Check(
        "the wheel's polynomial-equivalence class over a complete corpus is a singleton",
        lambda n, result, guard=DEFAULT_GUARD: verify_wheel_uniqueness(n, result, guard), 4,
    ),
    "P-path-class": Check(
        "the path's class has exactly two members; the companion construction realizes it",
        lambda n, result, guard=DEFAULT_GUARD: verify_path_class(n, result, guard), 6, step=3,
    ),
}


def run_all(
    *, corpora: dict[int, list[bytes]] | None = None, guard: int | None = None
) -> list[VerificationReport]:
    """Run every check in `CHECKS` at its default range.

    `corpora` maps graph order to graph6 records of the complete corpus
    of that order. Each order some corpus check covers is classified once,
    and every corpus check runs on each classified order it covers; a
    corpus check with no such order is omitted. A `guard` replaces the
    corpus guard of the classification and the enumeration guard of the
    corpus checks' walks; the range checks keep their own.
    """
    reports = [c.run(c.default_n) for c in CHECKS.values() if c.default_n is not None]
    corpus_checks = [c for c in CHECKS.values() if c.default_n is None]
    walk_guard = DEFAULT_GUARD if guard is None else guard
    classified = {
        n: classify_corpus(records, corpus_guard=guard)
        for n, records in sorted((corpora or {}).items())
        if any(c.covers(n) for c in corpus_checks)
    }
    for check in corpus_checks:
        reports += [
            check.run(n, result, walk_guard) for n, result in classified.items() if check.covers(n)
        ]
    return reports
