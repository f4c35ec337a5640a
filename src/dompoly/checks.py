"""The checks that walk no graph, and the registry of every check.

Each check here takes a finite range, compares an identity or uniqueness
claim over the cycle family against exact computation, and returns a
`VerificationReport` whose counterexample payloads carry enough data
(partitions, full coefficient vectors) to reproduce any failure
independently. The checks that build, read or walk graphs (L2-union,
L3-cycle, L4-gamma and the corpus checks) live in `dompoly.verify`, which
re-exports everything here; this module imports only `errors` and
`cycles`, and `CHECKS` loads `dompoly.verify` only to run a check there.
`IntPolynomial` loads only where an exact compare runs, and `ord_p` only
where the walk at -3 finds a_n off its product identity or 9 dividing b_n.

The headline check is cycle uniqueness: among disjoint unions of cycles
(the 2-regular graphs), only the one-part partition {n} reproduces
D(C_n, x). The ten-case table check replays the elimination of
three-part partitions at -1: the 2-jet (D, D', D'') of a product of
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
read through `b_mod_9`, against `b_values`; they and T5-partitions read
ord_3 of a_n = D(C_n, -3) off one exact walk, `_minus_three_walk`.

Within one `dompoly.verify.run_all` call, the range checks share three
walks through `_shared`: the coefficients of D(C_1..C_n) that L5, REL2
and REL3 read, `_minus_three_walk`'s rows that L6, R1 and T5-partitions
read, and the ten `_case_certificate`s that both T5 checks read. Each is
walked once per range and kept only while `run_all` runs the range
checks. A check run alone finds nothing kept and walks fresh, so a
fault planted in a walk reaches it as before.

Enumeration is the route of `search-partitions`, which takes each
partition from `match_partitions`, fingerprint first, full compare
second: the product of the parts' values D(C_p, t) mod 2^61-1 at one
fixed point t must equal D(C_n, t) mod 2^61-1 before the exact compare.
Equal polynomials have equal values, so the fingerprint only ever
rejects. Every exact compare, here and in T5-ten-cases, is
`partition_polynomial(parts) == cycle_polynomial(n)`, coefficient by
coefficient. One `cycle_jets` walk to n gives a search's fingerprints,
and nothing is cached between searches. The slow reference route that
enumerates every partition and lists those whose product equals D(C_n)
is not part of the package: the tests hold it, in `tests/reference.py`,
and check the elimination against it.
"""

from __future__ import annotations

import math
import time
from itertools import combinations_with_replacement, islice
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .cycles import (
    b_mod_9,
    b_values,
    closed_jet,
    cycle_jets,
    cycle_polynomial,
    cycle_polynomials,
    ord3_bounds,
    predicted_ord3,
)
from .errors import ParameterDomainError

if TYPE_CHECKING:
    from .polynomials import IntPolynomial

__all__ = [
    "Check",
    "CHECKS",
    "VerificationReport",
    "enumerate_partitions",
    "partition_polynomial",
    "match_partitions",
    "verify_alpha",
    "verify_beta",
    "verify_theta",
    "verify_ord3_table",
    "verify_remark",
    "verify_cycle_uniqueness_by_elimination",
    "verify_ten_case_table",
]


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
# Walks shared by the checks of one `run_all` call
# ---------------------------------------------------------------------------

# The rows of each shared walk, keyed by its producer and arguments, while
# `dompoly.verify.run_all` runs the range checks; None at any other time.
# A module global, not a runner parameter, so a check run alone (by the
# CLI, say) finds it None and walks fresh.
_run_walks: dict[tuple, list] | None = None


def _shared(producer: Callable[..., Iterable], *args) -> Iterable:
    """The rows of `producer(*args)`: inside `run_all`, walked once and read
    by every check there; outside it, walked fresh at each call."""
    if _run_walks is None:
        return producer(*args)
    key = (producer, *args)
    if key not in _run_walks:
        _run_walks[key] = list(producer(*args))
    return _run_walks[key]


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
    from .polynomials import IntPolynomial

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

def _derivative_weights(j: int, size: int) -> list[int]:
    """w_0, ..., w_{size-1} with w_i = (-1)^(i-j) * i!/(i-j)! (0 for i < j):
    the j-th derivative of sum c_i x^i at -1 is sum c_i * w_i."""
    return [-math.perm(i, j) if (i - j) % 2 else math.perm(i, j) for i in range(size)]


def _cycle_rows(n_max: int) -> Iterator[tuple[int, ...]]:
    """The coefficients of D(C_1), ..., D(C_n_max), one `cycle_polynomials`
    walk."""
    return (p.coeffs for p in islice(cycle_polynomials(), n_max))


def _scalar_identity_report(lemma_id, n_max, j):
    """Component j of `closed_jet` vs. the cycle jet at -1 vs. D^(j)(C_n, -1)
    evaluated from the polynomial's coefficients, as one weighted sum with
    the weights built once for degrees up to n_max."""
    t0 = time.perf_counter()
    bad = []
    weights = _derivative_weights(j, n_max + 1)
    walk = zip(range(1, n_max + 1), cycle_jets(-1, j), _shared(_cycle_rows, n_max))
    for n, jet, coeffs in walk:
        if len(coeffs) > len(weights):
            # Only a walk off degree n gets here; the sum must read every coefficient.
            weights = _derivative_weights(j, len(coeffs))
        cf, rec, evaluated = closed_jet(n)[j], jet[j], sum(map(mul, coeffs, weights))
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


def _minus_three_walk(n_max: int) -> Iterator[tuple[int, int, int, bool, int]]:
    """Yield (n, a_n, b_n, holds, ord_3(a_n)) for n = 1..n_max, a_n from the
    jet at -3 and b_n from `b_values`: holds is a_n = (-1)^n * 3^ceil(n/3) *
    b_n, one product per n. Where it holds and 9 does not divide b_n,
    ord_3(a_n) is ceil(n/3) + [3 divides b_n]; elsewhere, `ord_p(a_n, 3)`.
    So ord_3 is exact, and a wrong b_n moves only `holds`."""
    power = 1
    for n, (a_n,), b_n in zip(range(1, n_max + 1), cycle_jets(-3), b_values()):
        if n % 3 == 1:
            power *= 3
        holds = a_n == (-power * b_n if n % 2 else power * b_n)
        if holds and b_n % 9:
            ord3 = (n + 2) // 3 + (b_n % 3 == 0)
        else:
            from .polynomials import ord_p

            ord3 = ord_p(a_n, 3)
        yield n, a_n, b_n, holds, ord3


def verify_ord3_table(n_max: int = 1000) -> VerificationReport:
    """ord_3(a_n) stays within the three-branch table; b_n basics.

    Checks, for every n in range: ord_3(a_n) is within `ord3_bounds(n)`,
    and where it is, a_n = (-1)^n * 3^ceil(n/3) * b_n with b_n from the
    recurrence; 9 does not divide b_n; and the first 30 values of b_n mod 9
    equal the golden vector, `b_mod_9`.
    """
    t0 = time.perf_counter()
    bad = []
    for n, a_n, b_rec, holds, ord3 in _shared(_minus_three_walk, n_max):
        lo, hi = ord3_bounds(n)
        if not lo <= ord3 <= hi:
            # Outside the table, 3^ceil(n/3) may not divide a_n: no b_n to compare.
            bad.append({"check": "ord3-bound", "n": n, "ord3": ord3, "allowed": [*range(lo, hi + 1)]})
        elif not holds:
            b_fac = (a_n if n % 2 == 0 else -a_n) // 3 ** ((n + 2) // 3)
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
    for n, _, b_n, _, ord3 in _shared(_minus_three_walk, n_max):
        if b_n % 9 != b_mod_9(n):
            bad.append({"check": "period-27", "n": n, "b_mod_9": b_n % 9, "expected": b_mod_9(n)})
        if ord3 != (predicted := predicted_ord3(n)):
            bad.append({"check": "exact-ord3", "n": n, "ord3": ord3, "predicted": predicted})
    return _report("R1-remark", 1, n_max, bad, t0)


# ---------------------------------------------------------------------------
# Uniqueness among unions of cycles
# ---------------------------------------------------------------------------

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
    reads = {case: certificate["component"] for case, certificate in _shared(_case_certificates, 3)}
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


def _case_certificates(min_part: int) -> Iterator[tuple[int, dict]]:
    """(case, `_case_certificate`) for each of the ten cases, in `TEN_CASES`
    order."""
    return ((case, _case_certificate(pattern, min_part)) for pattern, case in TEN_CASES.items())


def verify_cycle_uniqueness_by_elimination(n_max: int = 1000, min_part: int = 3) -> VerificationReport:
    """For every n in 3..n_max, only the trivial partition {n} reproduces
    D(C_n,x), by the paper's elimination; no partition is enumerated.

    A walk to n_max checks the premises: the 2-jet at -1 is `closed_jet(n)`
    and ord_3(a_n), a_n = D(C_n, -3), is within `ord3_bounds(n)`; a wrong
    `b_values` leaves this premise, which concerns a_n alone, as it is. The
    reduction above leaves three parts, with residues mod 4 in an
    alpha-compatible pattern; recomputed from `closed_jet`, those patterns
    must be the `TEN_CASES`. On each class mod 4, alpha, beta and theta have
    degree 0, 1 and 2 in n, so with part i = 4*k_i + r_i, r_i the least part
    >= min_part of its class, each case's jet difference is a polynomial of
    degree <= 2 in (k1, k2, k3): `_case_certificate` reads it from ten
    `_jet_product` evaluations.
    """
    if min_part not in (1, 3):
        raise ParameterDomainError(f"min_part must be 1 or 3, got {min_part}")
    t0 = time.perf_counter()
    bad = []
    for (n, _, _, _, ord3), jet in zip(_shared(_minus_three_walk, n_max), cycle_jets(-1, 2)):
        if jet != closed_jet(n):
            bad.append({"check": "closed-form-jet", "n": n, "jet": list(map(str, jet)),
                        "closed_form": list(map(str, closed_jet(n)))})
        low, high = ord3_bounds(n)
        if not low <= ord3 <= high:
            bad.append({"check": "ord3-table", "n": n, "allowed": [low, high]})
    compatible = {(sum(rs) % 4, rs) for rs in combinations_with_replacement(range(4), 3)
                  if closed_jet(4 + sum(rs) % 4)[0] == math.prod(closed_jet(4 + r)[0] for r in rs)}
    if compatible != set(TEN_CASES):
        bad.append({"check": "ten-cases-table", "alpha_compatible": sorted(compatible)})
    cases = {str(case): certificate for case, certificate in _shared(_case_certificates, min_part)}
    bad += [{"check": "case-witness", "case": int(case), **certificate}
            for case, certificate in cases.items() if certificate["witness"] is None]
    details = {"route": "elimination", "cases": cases, "min_part": min_part}
    return _report("T5-partitions", 3, n_max, bad, t0, details)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

class Check:
    """One claim of the paper, runnable by its id.

    A range check (`default_n` set) covers min_n..max_n and runs as
    `run(max_n)`. A corpus check (`default_n` None) covers one order n out
    of min_n, min_n + step, ... and runs as `run(n, classify_corpus(records))`
    over the complete corpus of that order. `covers` is the only rule for
    those orders: the corpus checks, `run_all` and the CLI (which refuses an
    uncovered order before reading a corpus) all read it. `runner` names
    the check's `verify_*` function and `options` the keyword parameters
    it reads (`guard`, `min_part`), whose defaults live in the runner.
    `run` looks the runner up at each call, in this module or else in
    `dompoly.verify`, so a wrapper bound to that name (a profiler, say)
    sees the call; an option passed as None is dropped, and a `guard`
    left None takes the walk's default, `oracle.DEFAULT_GUARD`.
    """

    def __init__(self, claim: str, runner: str, min_n: int, default_n: int | None = None,
                 step: int = 1, options: tuple[str, ...] = ()):
        self.claim = claim
        self.runner = runner
        self.min_n = min_n
        self.default_n = default_n
        self.step = step
        self.options = options

    def run(self, *args, **options) -> VerificationReport:
        runner = globals().get(self.runner)
        if runner is None:
            from . import verify

            runner = getattr(verify, self.runner)
        return runner(*args, **{k: v for k, v in options.items() if v is not None})

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
        "verify_union_product", 1, 8, options=("guard",),
    ),
    "L3-cycle": Check(
        "three-term cycle recurrence reproduces the brute-force cycle polynomial",
        "verify_cycle_recurrence", 1, 15, options=("guard",),
    ),
    "L4-gamma": Check(
        "gamma(C_n) = ceil(n/3), and gamma adds over cycle partitions",
        "verify_gamma_additivity_and_ceiling", 1, 15,
    ),
    "L5-alpha": Check("D(C_n,-1) closed form (3 when 4|n, else -1)", "verify_alpha", 1, 200),
    "REL2-beta": Check("D'(C_n,-1) closed form (-n, n, 0, 0 by n mod 4)", "verify_beta", 1, 200),
    "REL3-theta": Check("D''(C_n,-1) closed form by n mod 4", "verify_theta", 1, 200),
    "L6-ord3": Check(
        "ord_3 of D(C_n,-3) follows the ceil(n/3) table; 9 never divides b_n",
        "verify_ord3_table", 1, 1000,
    ),
    "R1-remark": Check(
        "mod-27 residues {4,13,22} pin down the ambiguous ord_3 branch; b mod 9 has period 27",
        "verify_remark", 1, 1000,
    ),
    "T5-partitions": Check(
        "only the trivial cycle partition reproduces D(C_n,x)",
        "verify_cycle_uniqueness_by_elimination", 3, 1000, options=("min_part",),
    ),
    "T5-ten-cases": Check(
        "every alpha-compatible part triple falls in the 10-case table and is eliminated",
        "verify_ten_case_table", 9, 60,
    ),
    "COR-wheel": Check(
        "the wheel's polynomial-equivalence class over a complete corpus is a singleton",
        "verify_wheel_uniqueness", 4, options=("guard",),
    ),
    "P-path-class": Check(
        "the path's class has exactly two members; the companion construction realizes it",
        "verify_path_class", 6, step=3, options=("guard",),
    ),
}
