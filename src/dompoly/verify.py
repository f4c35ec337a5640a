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

T5-partitions enumerates no partition: the divisibility sieve
(`verify_cycle_uniqueness_by_divisibility`) shows that no D(C_p) with
3 <= p < n divides D(C_n) in Z[x], which a product of cycle polynomials
equal to D(C_n) would need of each factor. Each rejection is a ring map
out of Z[x] (reduction mod a small prime at a residue, evaluation at an
integer) under which D(C_p) does not divide D(C_n); a pair no map
rejects gets exact long division, and an n with a true divisor is
decided by enumeration.

Enumeration is the reference route (`verify_cycle_uniqueness_range`) and
the route of the other searches that enumerate partitions (L4-gamma's
ceiling identity, `search-partitions`). All of them take each partition
from `match_partitions`, fingerprint first, full compare second: the
product of the parts' values D(C_p, t) mod 2^61-1 at one fixed point t
must equal D(C_n, t) mod 2^61-1 before the product polynomial is built
and compared with D(C_n, x) coefficient by coefficient. Equal
polynomials have equal values, so the fingerprint only ever rejects; a
match is always decided by the exact compare. One `cycle_residues` walk
to n gives a search's fingerprints, and nothing is cached between searches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import islice
from random import Random
from typing import Callable, Iterable, Iterator

from .cycles import (
    alpha,
    b_value_by_factoring,
    b_values,
    beta,
    cycle_jets,
    cycle_polynomial,
    cycle_polynomials,
    cycle_residues,
    ord3_classification,
    theta,
)
from .errors import Graph6FormatError, Graph6ParseError, ParameterDomainError, SizeGuardError
from .graphs import Graph, _bits, cycle, disjoint_union, parse_graph6, path, wheel
from .oracle import DEFAULT_GUARD, domination_number, domination_polynomial
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
    "partition_matches_cycle",
    "verify_union_product",
    "verify_cycle_recurrence",
    "verify_gamma_additivity_and_ceiling",
    "verify_alpha",
    "verify_beta",
    "verify_theta",
    "verify_ord3_table",
    "verify_remark",
    "verify_cycle_uniqueness",
    "verify_cycle_uniqueness_range",
    "verify_cycle_uniqueness_by_divisibility",
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


@dataclass
class VerificationReport:
    """One check's outcome. `status` is "pass", "fail", or "inconclusive"
    for a corpus check whose corpus cannot be certified complete."""

    lemma_id: str
    range_checked: tuple[int, int]
    status: str
    counterexamples: list[dict]
    timing_ms: int
    details: dict = field(default_factory=dict)

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


def _items_at(walk: Iterator, wanted: set[int]) -> dict:
    """The items of a walk that starts at n = 1, at the indices in `wanted`."""
    return {n: item for n, item in zip(range(1, max(wanted, default=0) + 1), walk) if n in wanted}


def _product(parts: tuple[int, ...], factors) -> IntPolynomial:
    """Product of factors[p] over the parts, in the parts' order."""
    return math.prod((factors[p] for p in parts), start=IntPolynomial.one())


def partition_polynomial(parts: Iterable[int]) -> IntPolynomial:
    """Product of cycle polynomials over the parts (1 for no parts), in the
    parts' order; one walk up to the largest part supplies the factors."""
    parts = tuple(parts)
    if parts and min(parts) < 1:
        raise ParameterDomainError(f"cycle parts must be >= 1, got {list(parts)}")
    return _product(parts, _items_at(cycle_polynomials(), set(parts)))


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
    D(C_n)'s, so no full compare ran; otherwise it is whether the product
    polynomial equals D(C_n). One `cycle_residues` walk to n gives every
    fingerprint and one `cycle_polynomials` walk every factor.
    """
    partitions = enumerate_partitions(n, min_part)  # checks n >= 1 before the walks
    modulus = FINGERPRINT_MODULUS
    fingerprints = [0, *islice(cycle_residues(FINGERPRINT_POINT, modulus), n)]
    factors = [None, *islice(cycle_polynomials(), n)]
    for parts in partitions:
        if math.prod(fingerprints[p] for p in parts) % modulus != fingerprints[n]:
            yield parts, None
        else:
            yield parts, _product(parts, factors) == factors[n]


def partition_matches_cycle(parts: tuple[int, ...]) -> bool:
    """Whether the product of D(C_p) over the parts equals D(C_n), n =
    sum(parts), by the exact compare; one walk to n supplies every factor."""
    if not parts or min(parts) < 1:
        raise ParameterDomainError(f"cycle parts must be >= 1, got {list(parts)}")
    n = sum(parts)
    factors = _items_at(cycle_polynomials(), {*parts, n})
    return _product(parts, factors) == factors[n]


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


def verify_union_product(
    pairs: int = 200, max_order: int = 8, seed: int = 20250810, guard: int = DEFAULT_GUARD
) -> VerificationReport:
    """D(G + H) == D(G) * D(H) on random pairs, both sides brute force."""
    t0 = time.perf_counter()
    rng = Random(seed)
    bad = []
    for i in range(pairs):
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
    return _report("L2-union", 1, max_order, bad, t0, {"pairs": pairs, "seed": seed})


def verify_cycle_recurrence(
    n_max: int = 15, guard: int = DEFAULT_GUARD
) -> VerificationReport:
    """Recurrence D(C_n) against the subset-enumeration oracle."""
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
    """gamma(C_n) = ceil(n/3) by oracle, plus additivity over partitions.

    Three sub-checks: the oracle value for n <= min(n_max, 15); the ceiling
    identity on any partition whose polynomial matches D(C_n) (only the
    trivial one ever does); and, for every cycle partition of n <= 20, the
    lowest nonzero coefficient index of the partition polynomial equals
    the sum of per-part ceilings.
    """
    t0 = time.perf_counter()
    bad = []
    for n in range(1, min(n_max, 15) + 1):
        got = domination_number(cycle(n))
        if got != (n + 2) // 3:
            bad.append({"check": "oracle-gamma", "n": n, "gamma": got})
    for n in range(3, n_max + 1):
        for parts, outcome in match_partitions(n):
            if outcome and sum((p + 2) // 3 for p in parts) != (n + 2) // 3:
                bad.append({"check": "ceiling-identity", "n": n, "partition": list(parts)})
    factors = _items_at(cycle_polynomials(), set(range(3, min(n_max, 20) + 1)))
    for n in range(3, min(n_max, 20) + 1):
        for parts in enumerate_partitions(n, 3):
            poly = _product(parts, factors)
            lowest = next(i for i, c in enumerate(poly) if c != 0)
            if lowest != sum((p + 2) // 3 for p in parts):
                bad.append({
                    "check": "partition-gamma", "n": n, "partition": list(parts),
                    "lowest_index": lowest,
                    "polynomial": poly.coefficient_strings(),
                })
    return _report("L4-gamma", 1, n_max, bad, t0)


def _scalar_identity_report(lemma_id, n_max, closed_form, derivative_order):
    """Closed form vs. the cycle jet at -1 vs. the differentiated polynomial."""
    t0 = time.perf_counter()
    bad = []
    walk = zip(range(1, n_max + 1), cycle_jets(-1, derivative_order), cycle_polynomials())
    for n, jet, p in walk:
        for _ in range(derivative_order):
            p = p.derivative()
        evaluated = p.eval_at(-1)
        cf = closed_form(n)
        rec = jet[derivative_order]
        if not (cf == rec == evaluated):
            bad.append({
                "n": n, "closed_form": str(cf), "recurrence": str(rec),
                "evaluation": str(evaluated),
            })
    return _report(lemma_id, 1, n_max, bad, t0)


def verify_alpha(n_max: int = 200) -> VerificationReport:
    return _scalar_identity_report("L5-alpha", n_max, alpha, 0)


def verify_beta(n_max: int = 200) -> VerificationReport:
    return _scalar_identity_report("REL2-beta", n_max, beta, 1)


def verify_theta(n_max: int = 200) -> VerificationReport:
    return _scalar_identity_report("REL3-theta", n_max, theta, 2)


# First 30 values of b_n mod 9; the golden vector the b recurrence must hit.
_B_MOD9_FIRST_30 = (
    1, 1, 3, 3, 7, 6, 2, 7, 3, 7, 7, 3, 3, 4, 6,
    5, 4, 3, 4, 4, 3, 3, 1, 6, 8, 1, 3, 1, 1, 3,
)


def verify_ord3_table(n_max: int = 1000) -> VerificationReport:
    """ord_3(a_n) stays within the three-branch table; b_n basics.

    Checks, for every n in range: ord_3(a_n) is ceil(n/3)+1 when 3 | n,
    ceil(n/3) when n = 3k+2, and one of the two when n = 3k+1; b_n from
    the recurrence equals b_n from factoring a_n; 9 does not divide b_n;
    and the first 30 values of b_n mod 9 equal the golden vector.
    """
    t0 = time.perf_counter()
    bad = []
    for n, (a_n,), b_rec in zip(range(1, n_max + 1), cycle_jets(-3), b_values()):
        base = (n + 2) // 3
        got = ord_p(a_n, 3)
        allowed = {0: {base + 1}, 1: {base, base + 1}, 2: {base}}[n % 3]
        if got not in allowed:
            bad.append({"check": "ord3-bound", "n": n, "ord3": got, "allowed": sorted(allowed)})
        b_fac = b_value_by_factoring(n, a_n)
        if b_rec != b_fac:
            bad.append({"check": "b-routes", "n": n, "recurrence": str(b_rec), "factoring": str(b_fac)})
        if b_rec % 9 == 0:
            bad.append({"check": "nine-divides-b", "n": n, "b": str(b_rec)})
        if n <= 30 and b_rec % 9 != _B_MOD9_FIRST_30[n - 1]:
            bad.append({
                "check": "golden-vector", "n": n,
                "b_mod_9": b_rec % 9, "expected": _B_MOD9_FIRST_30[n - 1],
            })
    return _report("L6-ord3", 1, n_max, bad, t0)


def verify_remark(n_max: int = 1000) -> VerificationReport:
    """The exact ord_3 classification and the mod-9 period of b.

    b_{t+27} == b_t (mod 9) for all t with t+27 in range, and
    ord_3(a_n) equals the predicted value, where the n = 3k+1 branch is
    resolved by n mod 27 in {4, 13, 22}.
    """
    t0 = time.perf_counter()
    bad = []
    b = list(islice(b_values(), max(n_max, 0)))
    for t, (b_t, b_t27) in enumerate(zip(b, b[27:]), start=1):
        if (b_t27 - b_t) % 9 != 0:
            bad.append({"check": "period-27", "t": t,
                        "b_t_mod_9": b_t % 9, "b_t27_mod_9": b_t27 % 9})
    for n, (a_n,) in zip(range(1, n_max + 1), cycle_jets(-3)):
        predicted = ord3_classification(n).predicted_ord
        got = ord_p(a_n, 3)
        if got != predicted:
            bad.append({"check": "exact-ord3", "n": n, "ord3": got, "predicted": predicted})
    return _report("R1-remark", 1, n_max, bad, t0)


# ---------------------------------------------------------------------------
# Uniqueness among unions of cycles
# ---------------------------------------------------------------------------

def verify_cycle_uniqueness(n: int, min_part: int = 3) -> VerificationReport:
    """Exactly one partition of n (the trivial {n}) reproduces D(C_n,x)."""
    return verify_cycle_uniqueness_range(n, n, min_part)


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


# The divisibility sieve. D(C_p) is monic with integer coefficients, so a
# product of them equal to D(C_n) makes each factor divide D(C_n) in Z[x];
# every ring map out of Z[x] keeps that, and each stage of the sieve rejects
# a pair (p, n) only where one such map shows that D(C_p) does not divide
# D(C_n). Stage 1 maps x to each residue mod each of SIEVE_MODULI, stage 2
# to each integer of SIEVE_POINTS.
SIEVE_MODULI = (2, 3, 5, 7, 11, 13, 17, 19, 23)
SIEVE_POINTS = (1, 2, 3, -2, 5, 7)


def _residue_survivors(n_min: int, n_max: int) -> dict[int, int]:
    """For each n in n_min..n_max, a bitmask of the p in 3..n-1 such that
    every (q, r) with D(C_p, r) = 0 mod q has D(C_n, r) = 0 mod q too."""
    modulus = math.prod(SIEVE_MODULI)
    survivors = {n: (1 << n) - 8 for n in range(n_min, n_max + 1)}
    if not survivors:
        return survivors
    # The residue r of every modulus q > r is reached by evaluating at t = r,
    # so the points 1..max(q)-1 cover every nonzero residue, and one walk
    # mod the product serves all the moduli: gcd(D(C_n, t), modulus) is the
    # product of the moduli that divide D(C_n, t).
    for t in range(1, max(SIEVE_MODULI, default=1)):
        key = [0, *(math.gcd(v, modulus) for v in islice(cycle_residues(t, modulus), n_max))]
        with_key: dict[int, int] = {}
        for p in range(3, n_max):
            with_key[key[p]] = with_key.get(key[p], 0) | 1 << p
        allowed = {
            kn: sum(ps for kp, ps in with_key.items() if kn % kp == 0)
            for kn in set(key[n_min:])
        }
        for n in survivors:
            survivors[n] &= allowed[key[n]]
    return survivors


def _monic_divides(divisor: IntPolynomial, dividend: IntPolynomial) -> bool:
    """Whether the monic `divisor` divides `dividend` in Z[x], by long division."""
    d = divisor.coeffs
    k = len(d) - 1
    rem = list(dividend.coeffs)
    for top in range(len(rem) - 1, k - 1, -1):
        c = rem[top]
        if c:
            for j in range(k):
                rem[top - k + j] -= c * d[j]
    return not any(rem[:k])


def verify_cycle_uniqueness_by_divisibility(
    n_min: int = 3, n_max: int = 1000, min_part: int = 3
) -> VerificationReport:
    """For every n in n_min..n_max, only the trivial partition {n} reproduces
    D(C_n,x), proved by showing that no D(C_p) with 3 <= p < n divides D(C_n).

    Pairs (p, n) pass three stages: residue signatures mod SIEVE_MODULI,
    divisibility of the values at SIEVE_POINTS, and exact long division.
    An n with a true divisor is decided by enumerating its partitions, as
    is, with min_part 1, an n where D(C_n, -2) = 0 (a part 2 could divide,
    as D(C_2) = x(x + 2)) or D(C_n, 1) = 1 (D(C_n) could be x^n, the
    product of n parts 1).

    Time and memory grow about quadratically in n_max, as stage 1 keeps a
    bitmask over every p < n for each n: in-process on a 2-CPU machine
    with CPython 3.11, 0.025 s at n_max = 1000 and 4.7 s with 50 MB peak
    RSS at n_max = 10000.
    """
    if n_min < 3:
        raise ParameterDomainError(f"cycle uniqueness check needs n >= 3, got {n_min}")
    if min_part not in (1, 3):
        raise ParameterDomainError(f"min_part must be 1 or 3, got {min_part}")
    t0 = time.perf_counter()
    pairs = [
        (p, n) for n, mask in _residue_survivors(n_min, n_max).items() for p in _bits(mask)
    ]
    residue_survivors = len(pairs)
    for t in SIEVE_POINTS:
        if not pairs:
            break
        jet = _items_at(cycle_jets(t), {i for pair in pairs for i in pair})
        pairs = [(p, n) for p, n in pairs if jet[p][0] == 0 or jet[n][0] % jet[p][0] == 0]
    value_survivors = len(pairs)
    divisors = []
    if pairs:
        poly = _items_at(cycle_polynomials(), {i for pair in pairs for i in pair})
        divisors = [[p, n] for p, n in pairs if _monic_divides(poly[p], poly[n])]
    undecided = {n for _, n in divisors}
    if min_part == 1:
        walk = zip(range(1, n_max + 1), cycle_jets(-2), cycle_jets(1))
        undecided.update(
            n for n, (at_minus_two,), (at_one,) in walk
            if n >= n_min and (at_minus_two == 0 or at_one == 1)
        )
    bad = [
        ex for n in sorted(undecided)
        for ex in verify_cycle_uniqueness(n, min_part).counterexamples
    ]
    return _report(
        "T5-partitions", n_min, n_max, bad, t0,
        {
            "route": "divisibility",
            "moduli": list(SIEVE_MODULI),
            "points": list(SIEVE_POINTS),
            "pairs_tested": sum(n - 3 for n in range(n_min, n_max + 1)),
            "residue_survivors": residue_survivors,
            "value_survivors": value_survivors,
            "exact_divisions": value_survivors,
            "divisors": divisors,
            "enumerated": sorted(undecided),
            "min_part": min_part,
        },
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

# Cases eliminated at the first-derivative level; the remaining two (7 and
# 10) have identically-zero betas on both sides and fall only at the
# second derivative.
_BETA_ELIMINATED = frozenset({1, 2, 3, 4, 5, 6, 8, 9})


def _triples(n_max: int) -> Iterator[tuple[int, int, int]]:
    """The part triples n1 >= n2 >= n3 >= 3 with n1 + n2 + n3 <= n_max."""
    for n1 in range(3, n_max - 5):
        for n2 in range(3, min(n1, n_max - n1 - 3) + 1):
            for n3 in range(3, min(n2, n_max - n1 - n2) + 1):
                yield (n1, n2, n3)


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
    pattern must be one of the ten cases; triples in cases 1-6, 8, 9 must
    mismatch at the first derivative, and triples in cases 7 and 10 must
    pass that but mismatch at the second. A triple whose whole jet agrees
    gets the exact compare, which must find the product polynomial
    different from D(C_n,x).
    """
    t0 = time.perf_counter()
    bad = []
    case_counts = {k: 0 for k in range(1, 11)}
    total = full_compares = compatible = 0
    jets = {n: (alpha(n), beta(n), theta(n)) for n in range(3, n_max + 1)}
    for n1, n2, n3 in _triples(n_max):
        total += 1
        n = n1 + n2 + n3
        product, want = _jet_product(_jet_product(jets[n1], jets[n2]), jets[n3]), jets[n]
        if product == want:
            full_compares += 1
            if partition_matches_cycle((n1, n2, n3)):
                bad.append({"check": "product-equals-cycle", "n": n, "partition": [n1, n2, n3]})
        if product[0] != want[0]:
            continue
        compatible += 1
        pattern = (n % 4, tuple(sorted((n1 % 4, n2 % 4, n3 % 4))))
        case = TEN_CASES.get(pattern)
        if case is None:
            bad.append({
                "check": "pattern-outside-table", "n": n,
                "partition": [n1, n2, n3], "pattern": [pattern[0], list(pattern[1])],
            })
            continue
        case_counts[case] += 1
        beta_matches = product[1] == want[1]
        if case in _BETA_ELIMINATED:
            if beta_matches:
                bad.append({
                    "check": "beta-unexpectedly-matches", "n": n, "case": case,
                    "partition": [n1, n2, n3], "beta_product": str(product[1]),
                })
            continue
        # Cases 7 and 10: betas vanish on both sides, so the first
        # derivative cannot separate; the second one must.
        if not beta_matches:
            bad.append({
                "check": "beta-unexpectedly-differs", "n": n, "case": case,
                "partition": [n1, n2, n3], "beta_product": str(product[1]),
            })
            continue
        if product[2] == want[2]:
            bad.append({
                "check": "theta-matches", "n": n, "case": case,
                "partition": [n1, n2, n3],
                "theta_product": str(product[2]), "theta_n": str(want[2]),
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


# ---------------------------------------------------------------------------
# Corpus classification
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceClassReport:
    key_polynomial: IntPolynomial
    members: list[str]

    @property
    def class_size(self) -> int:
        return len(self.members)

    def to_json_dict(self) -> dict:
        return {
            "key_polynomial": self.key_polynomial.coefficient_strings(),
            "class_size": self.class_size,
            "members": self.members,
        }


@dataclass
class CorpusClassification:
    classes: list[EquivalenceClassReport]
    parse_errors: list[dict]

    def class_of(self, poly: IntPolynomial) -> EquivalenceClassReport | None:
        for cls in self.classes:
            if cls.key_polynomial == poly:
                return cls
        return None

    def completeness_problems(self, n: int) -> list[str]:
        """Why the classified records cannot be the complete order-n corpus.

        Empty when there are no parse errors, every record has order n (the
        degree of its key polynomial, as d(G, n) = 1), no record repeats
        another byte for byte, and the record count is the number of graphs
        on n unlabeled vertices. Two records of isomorphic graphs are not
        detected: telling them apart needs canonical labelling, which this
        package does not have.
        """
        problems = []
        if self.parse_errors:
            problems.append(f"unparseable records: {len(self.parse_errors)}")
        wrong_order = sum(c.class_size for c in self.classes if c.key_polynomial.degree != n)
        if wrong_order:
            problems.append(f"records not of order {n}: {wrong_order}")
        repeated = sum(c.class_size - len(set(c.members)) for c in self.classes)
        if repeated:
            problems.append(f"repeated records: {repeated}")
        records = len(self.parse_errors) + sum(c.class_size for c in self.classes)
        expected = UNLABELED_GRAPH_COUNTS[n] if n < len(UNLABELED_GRAPH_COUNTS) else "unknown"
        if records != expected:
            problems.append(f"records: {records}, graphs of order {n}: {expected}")
        return problems

    def to_json_dict(self) -> dict:
        return {
            "classes": [c.to_json_dict() for c in self.classes],
            "parse_errors": self.parse_errors,
        }


def _record_text(record: bytes | str) -> str:
    if isinstance(record, bytes):
        return record.decode("ascii", errors="replace")
    return record


def classify_corpus(
    records: Iterable[bytes | str],
    *,
    corpus_guard: int = DEFAULT_CORPUS_GUARD,
) -> CorpusClassification:
    """Group graph6 records into exact polynomial-equivalence classes.

    Per-record parse failures are collected, not fatal. An order above
    `corpus_guard` (default 9; a full order-10 corpus is ~12M graphs) is
    fatal, since it means the whole file is at the wrong scale. The oracle
    runs under the same guard, which every record that passes it meets.

    Classes come back sorted by descending size, then by key polynomial
    (degree, then coefficients); members are sorted strings, so output is
    deterministic regardless of input order.
    """
    parsed: list[tuple[str, Graph]] = []
    errors: list[dict] = []
    for idx, rec in enumerate(records):
        try:
            g = parse_graph6(rec)
        except (Graph6ParseError, Graph6FormatError) as exc:
            errors.append({
                "index": idx,
                "record": _record_text(rec),
                "error": str(exc),
            })
            continue
        if g.n > corpus_guard:
            raise SizeGuardError(
                f"corpus record {idx} has order {g.n} above the corpus guard "
                f"({corpus_guard}); raise it via corpus_guard (CLI: --guard-override)"
            )
        parsed.append((_record_text(rec), g))

    groups: dict[tuple[int, ...], list[str]] = {}
    for text, g in parsed:
        key = domination_polynomial(g, guard=corpus_guard).coeffs
        groups.setdefault(key, []).append(text)

    classes = [
        EquivalenceClassReport(IntPolynomial(key), sorted(members))
        for key, members in groups.items()
    ]
    classes.sort(key=lambda c: (-c.class_size, c.key_polynomial.degree, c.key_polynomial.coeffs))
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


def verify_wheel_uniqueness(n: int, result: CorpusClassification) -> VerificationReport:
    """Over a complete order-n corpus, W_n's class must be a singleton.

    `result` is the corpus's `classify_corpus` output. The report is
    inconclusive unless it certifies as complete
    (`CorpusClassification.completeness_problems`).
    """
    if n < 4:
        raise ParameterDomainError(f"wheel uniqueness needs n >= 4, got {n}")
    t0 = time.perf_counter()
    target = domination_polynomial(wheel(n))
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


def verify_path_class(n: int, result: CorpusClassification) -> VerificationReport:
    """P_n (for 3 | n) has a class of exactly two members over the corpus
    that `result` classifies.

    Both companion constructions are built and compared against D(P_n) by
    brute force; the report records which variant (if either) matches, so
    the construction is decided by computation rather than assumption.
    As for the wheel, an uncertified corpus makes the report inconclusive.
    """
    if n % 3 != 0 or n < 6:
        raise ParameterDomainError(
            f"path class check needs n >= 6 with 3 | n, got {n}"
        )
    t0 = time.perf_counter()
    target = domination_polynomial(path(n))
    variant_matches = {}
    for variant in ("one-each", "both-to-both"):
        companion = path_companion(n, variant)
        variant_matches[variant] = domination_polynomial(companion) == target

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


@dataclass(frozen=True)
class Check:
    """One claim of the paper, runnable by its id.

    A range check (`default_n` set) covers min_n..max_n and runs as
    `run(max_n)`; the keyword parameters its runner declares (`guard`,
    `min_part`) are the only options it reads, and their defaults live
    there. A corpus check (`default_n` None) covers one order n out of
    min_n, min_n + step, ... and runs as `run(n, classify_corpus(records))`
    over the complete corpus of that order. Each runner looks its
    `verify_*` function up by module-global name when called, so a wrapper
    bound to that name (a profiler, say) sees the call.
    """

    claim: str
    run: Callable[..., VerificationReport]
    min_n: int
    default_n: int | None = None
    step: int = 1

    def covers(self, n: int) -> bool:
        return n >= self.min_n and (n - self.min_n) % self.step == 0


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
        lambda n, min_part=3: verify_cycle_uniqueness_by_divisibility(3, n, min_part), 3, 1000,
    ),
    "T5-ten-cases": Check(
        "every alpha-compatible part triple falls in the 10-case table and is eliminated",
        lambda n: verify_ten_case_table(n), 9, 60,
    ),
    "COR-wheel": Check(
        "the wheel's polynomial-equivalence class over a complete corpus is a singleton",
        lambda n, result: verify_wheel_uniqueness(n, result), 4,
    ),
    "P-path-class": Check(
        "the path's class has exactly two members; the companion construction realizes it",
        lambda n, result: verify_path_class(n, result), 6, step=3,
    ),
}


def run_all(*, corpora: dict[int, list[bytes]] | None = None) -> list[VerificationReport]:
    """Run every check in `CHECKS` at its default range.

    `corpora` maps graph order to graph6 records of the complete corpus
    of that order. Each order some corpus check covers is classified once,
    and every corpus check runs on each classified order it covers; a
    corpus check with no such order is omitted.
    """
    reports = [c.run(c.default_n) for c in CHECKS.values() if c.default_n is not None]
    corpus_checks = [c for c in CHECKS.values() if c.default_n is None]
    classified = {
        n: classify_corpus(records)
        for n, records in sorted((corpora or {}).items())
        if any(c.covers(n) for c in corpus_checks)
    }
    for check in corpus_checks:
        reports += [check.run(n, result) for n, result in classified.items() if check.covers(n)]
    return reports
