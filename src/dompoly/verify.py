"""The checks that build, read or walk graphs, and the full suite.

L2-union, L3-cycle and L4-gamma compare the cycle family and graph
products against the brute-force oracle. Corpus classification groups a
graph6 corpus by exact domination polynomial, and the corpus checks
decide their claims over it: over a complete small-order corpus, W_n's
class is a singleton (COR-wheel) and P_n's has exactly two members, one
of them a companion construction (P-path-class). A corpus not certified
complete makes a corpus check inconclusive. `run_all` runs every check in
the registry.

The checks that walk no graph, the cycle-partition routes and the
registry, `CHECKS`, live in `dompoly.checks`, which imports only `errors`
and `cycles`; this module re-exports them, so `dompoly.verify` names
every check, and `__all__` lists every runner a `CHECKS` entry names.
"""

from __future__ import annotations

import time
from functools import cached_property
from itertools import chain, islice
from operator import eq, itemgetter
from random import Random
from typing import Iterable

from . import checks
from .checks import *
from .checks import _report, _require_covered
from .cycles import cycle_polynomials
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
from .polynomials import IntPolynomial

__all__ = [
    *checks.__all__,
    "EquivalenceClassReport",
    "CorpusClassification",
    "verify_union_product",
    "verify_cycle_recurrence",
    "verify_gamma_additivity_and_ceiling",
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


# ---------------------------------------------------------------------------
# Identity checks against the oracle
# ---------------------------------------------------------------------------

def _random_graph(rng: Random, max_order: int) -> Graph:
    # One draw per pair u < v, in order; the masks are valid as built.
    n = rng.randint(1, max_order)
    p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.85))
    closed = [1 << v for v in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                closed[u] |= 1 << v
                closed[v] |= 1 << u
    return Graph._valid(n, tuple(closed))


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
    by the split. At the default max_order of 8, unions reach order 16,
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
    """A classified corpus: the batches of order n >= 1 that the oracle's
    bit lanes walked, each kept as (n, records, profiles), record r's
    profile being bytes r*n to r*n + n - 1 of the buffer that
    `oracle.graph6_profiles` gave; every other record grouped by its
    profile; and the records that did not parse.

    Memory holds the records, one byte per count of a walked record, and no
    report: an `EquivalenceClassReport`, with its key polynomial and its
    decoded, sorted member list, is built only when it is read. `classes`
    groups every record, merging the walked and parsed records of one
    profile into one class, and builds and keeps every report on its first
    read. `class_of` finds a key's walked records with `bytes.find`, a hit
    counting only at a multiple of n, and builds that one report, each
    call. `member_count` and `completeness_problems` count batch by batch
    and group by group and group nothing, but to count repeated records
    `completeness_problems` sorts one list of every record: 8 bytes a
    record, plus up to half that while it sorts. A sorted corpus sorts in
    one pass; 100,000 records in random order take about 35 ms. So a
    corpus check, which reads one class and the counts, builds one report
    however many classes the corpus has.

    The null graph's empty profile is the polynomial 1, as in
    `domination_polynomial`; every other profile (d(G, 1), ..., d(G, n))
    is the polynomial's coefficients after d(G, 0) = 0, ending in
    d(G, n) = 1. So a profile's length is its polynomial's degree.
    """

    def __init__(self, groups: dict[tuple[int, ...], list[bytes]],
                 lanes: list[tuple[int, list[bytes], bytes]], parse_errors: list[dict]):
        self._groups = groups
        self._lanes = lanes
        self.parse_errors = parse_errors

    @cached_property
    def classes(self) -> list[EquivalenceClassReport]:
        """Every class, sorted by descending size, then by key polynomial
        (degree, then coefficients); built on first read."""
        walked: dict[bytes, list[bytes]] = {}
        for n, records, profiles in self._lanes:
            for i, rec in zip(range(0, len(profiles), n), records):
                walked.setdefault(profiles[i:i + n], []).append(rec)
        groups = dict(self._groups)
        for key, members in walked.items():
            groups[tuple(key)] = groups.get(tuple(key), []) + members
        # Profiles of one length sort as their polynomials' coefficients do.
        ordered = sorted(groups.items(), key=lambda item: (-len(item[1]), len(item[0]), item[0]))
        return [_class_report(key, members) for key, members in ordered]

    @property
    def member_count(self) -> int:
        """The records classified: every record but the parse errors."""
        walked = sum(len(records) for _, records, _ in self._lanes)
        return walked + sum(map(len, self._groups.values()))

    def class_of(self, poly: IntPolynomial) -> EquivalenceClassReport | None:
        c = poly.coeffs
        key = () if c == (1,) else c[1:] if c[:1] == (0,) else None
        if key is None:
            return None
        members, n = [*self._groups.get(key, ())], len(key)
        # A walked count is one byte, so no other key is in a buffer.
        if n and all(0 <= k < 256 for k in key):
            needle = bytes(key)
            for order, records, profiles in self._lanes:
                i = profiles.find(needle) if order == n else -1
                while i >= 0:
                    if not i % n:
                        members.append(records[i // n])
                    i = profiles.find(needle, i - i % n + n)
        return _class_report(key, members) if members else None

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
        wrong_order = sum(len(members) for key, members in self._groups.items() if len(key) != n)
        wrong_order += sum(len(records) for order, records, _ in self._lanes if order != n)
        if wrong_order:
            problems.append(f"records not of order {n}: {wrong_order}")
        # Sorted, byte-identical records sit side by side, whichever route
        # each took: a batch that fell back can repeat a walked record.
        ordered = sorted(chain(*self._groups.values(), *(records for _, records, _ in self._lanes)))
        repeated = sum(map(eq, ordered, islice(ordered, 1, None)))
        if repeated:
            problems.append(f"repeated records: {repeated}")
        records = len(self.parse_errors) + self.member_count
        expected = UNLABELED_GRAPH_COUNTS[n] if n < len(UNLABELED_GRAPH_COUNTS) else "unknown"
        if records != expected:
            problems.append(f"records: {records}, graphs of order {n}: {expected}")
        return problems

    def to_json_dict(self) -> dict:
        return {
            "classes": [c.to_json_dict() for c in self.classes],
            "parse_errors": self.parse_errors,
        }


def _class_report(key: tuple[int, ...], members: list[bytes]) -> EquivalenceClassReport:
    # Every member parsed, so it is ASCII with no newline.
    return EquivalenceClassReport(
        IntPolynomial._of((0, *key) if key else (1,)),
        b"\n".join(sorted(members)).decode("ascii").split("\n"),
    )


def classify_corpus(
    records: Iterable[bytes], *, corpus_guard: int | None = None
) -> CorpusClassification:
    """Group bare graph6 records (bytes, as `iter_graph6_records` yields
    them) into exact polynomial-equivalence classes.

    Records are classified by their domination profile, which determines
    the polynomial; each class builds its key polynomial once. A record the
    oracle's bit lanes read (an order up to TRUTH_TABLE_MAX_ORDER and
    `corpus_guard`, of its order's length) waits with the others of its
    order until LANES of them are drawn or the input ends, and they are
    walked at once by `graph6_profiles`, with no Graph built; the batch is
    kept with its profile buffer, and none of its records is grouped here.
    A batch with a byte outside 63..126 or a set padding bit, and any other
    record, goes through `parse_graph6`, the guard check and
    `domination_profile`, so errors and refusals are theirs, and is grouped
    by its profile. Per-record parse failures are collected, not fatal, and
    listed in index order. An order above `corpus_guard` (None means
    DEFAULT_CORPUS_GUARD, 9; a full order-10 corpus is ~12M graphs) is
    fatal, since it means the whole file is at the wrong scale. The oracle
    runs under the same guard, which every record that passes it meets.

    A record the lanes cannot read is walked before the next is drawn, and
    at most LANES records per order wait unwalked, so memory holds the
    records, the walked batches' profile buffers and the parsed records'
    groups, not every parsed graph. No class report is built here: the
    result builds each when it is read (see `CorpusClassification`). Its
    `classes` are sorted by descending size, then by key polynomial
    (degree, then coefficients), and members are sorted strings, so output
    is deterministic regardless of input order.
    """
    if corpus_guard is None:
        corpus_guard = DEFAULT_CORPUS_GUARD
    groups: dict[tuple[int, ...], list[bytes]] = {}
    lanes: list[tuple[int, list[bytes], bytes]] = []
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

    def walk(head: int):
        # The batch is handed over, not copied: a new one takes its place.
        indices, batch = pending[head]
        pending[head] = [], []
        profiles = graph6_profiles(batch)
        if profiles is None:
            for idx, rec in zip(indices, batch):
                parse_route(idx, rec)
        elif profiles:
            lanes.append((head - 63, batch, profiles))
        else:  # order 0, whose one profile is ()
            groups.setdefault((), []).extend(batch)

    # Indexed by order byte: per record, a list index is cheaper than a dict get.
    lengths = [None] * 256
    for head, length in graph6_lane_lengths(corpus_guard).items():
        lengths[head[0]] = length
    pending = {head: ([], []) for head, length in enumerate(lengths) if length}
    for idx, rec in enumerate(records):
        if rec and len(rec) == lengths[rec[0]]:
            indices, batch = pending[rec[0]]
            indices.append(idx)
            batch.append(rec)
            if len(batch) == LANES:
                walk(rec[0])
        else:
            parse_route(idx, rec)
    for head in pending:
        if pending[head][1]:
            walk(head)
    # A batch that fell back was parsed after the records drawn behind it.
    errors.sort(key=itemgetter("index"))

    return CorpusClassification(groups, lanes, errors)


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
    details = {"corpus_size": result.member_count,
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

    While the range checks run, the walks they share (`checks._shared`:
    D(C_1..C_200)'s coefficients, the walk at -3 to 1000 and the ten case
    certificates) are made once each, and they are dropped before the
    corpora are classified, also when a check raises. A check run alone
    walks fresh.
    """
    checks._run_walks = {}
    try:
        reports = [c.run(c.default_n) for c in CHECKS.values() if c.default_n is not None]
    finally:
        checks._run_walks = None
    corpus_checks = [c for c in CHECKS.values() if c.default_n is None]
    classified = {
        n: classify_corpus(records, corpus_guard=guard)
        for n, records in sorted((corpora or {}).items())
        if any(c.covers(n) for c in corpus_checks)
    }
    for check in corpus_checks:
        reports += [
            check.run(n, result, guard=guard) for n, result in classified.items() if check.covers(n)
        ]
    return reports
