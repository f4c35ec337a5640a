"""Ground-truth dominating-set counting by exhaustive subset enumeration.

This is the reference everything else is checked against, so it counts
every vertex subset and uses no structure of the graph beyond its closed
neighborhoods. A subset S dominates exactly when it meets every closed
neighborhood N[v]. `domination_profile` picks one of three routes by the
order n alone: truth tables up to order 10, the split up to order 24, the
pair sum above it.

Orders up to TRUTH_TABLE_MAX_ORDER (10) count by truth tables: a 2^n-bit
int with one bit per subset S (Knuth, TAOCP 4A, 7.1.3). Once per order
and process, the first walk of that order builds `meets[m]`, the table of
the subsets that meet the mask m, for every m, and the table of each
subset size k. The dominating sets are then the AND of meets[N[v]] over
the vertices v, and d(G,k) is the popcount of that table ANDed with size
k's. A walk costs n ANDs and n popcounts of 2^n-bit ints; in-process on
a 2-CPU machine, the walks of the 13,591 corpus graphs of orders 4..8
took 0.03 s against 0.27 s by the pair sum below. What the tables cost
is their build, 4^n bits per order. The cutoff is the measured
crossover: on random graphs of orders 6..13, a truth-table walk took
5-9x less than a pair sum (6 us against 55 us at order 10), and the
build took 0.35-0.55 ms at order 10, 0.9-1.4 ms at 11 and 2.4-3.7 ms at
12, where the tables hold 0.18, 0.63 and 2.4 MB. `verify all` walks 23
graphs of order 10, whose savings (1.1 ms) repay that order's build, and
18 of order 11, whose savings (1.1 ms) about match its build. All the
tables up to order 10 hold about 0.26 MB.

`graph6_profiles` walks up to LANES graph6 records of one such order at
once, for `classify_corpus`, straight from their bytes: each record is
one bit of every int, eight records to a byte (broadword, as above, but
one bit lane per graph). Each edge is an int read from a column of record
bytes by `bytes.translate`, with the edge's position and bit read from
`graphs._g6_layout`, the table graph6's decoder and encoder read too, so
the layout is stated once. Each d(G, k) is a bit-sliced counter, a few
ints of bit planes, unpacked into one byte per record once the walk ends.
A batch pays 2^n pairs of half subsets, each 2n operations on LANES/8-byte
ints and a carry that is mostly short, whatever its size: in-process on a
2-CPU machine (CPython 3.11.7, one CPU, fastest of five runs), 0.3 ms for
one order-8 record, 4.2 ms for a full batch of them and 1.0 ms for one
order-10 record. The 13,591 corpus records of orders 4..8 took 4.3 ms
that way, against 7.8 ms at 2048 records a byte lane each and 0.035 s one
record at a time through a per-order byte table. A full order-10 batch's
walk peaks at 1.9 MB (tracemalloc).

Orders 11 to SPLIT_MAX_ORDER (24) count by the split. Its low side is the
first TRUTH_TABLE_MAX_ORDER vertices, read through the order-10 truth
tables: the low subsets that dominate v are meets[N[v] & low], so no other
table is built. Its high side is the other n - 10 <= 14 vertices, whose
subsets are grouped by cover as in the pair sum below. The low subsets
that complete a high subset are those that dominate every vertex its
cover misses: the AND of those vertices' low tables, read from three
tables of ANDs, one per third of the vertex mask. High covers whose ANDs
are equal add their size polynomials in one dict, `completing`, and each
distinct AND is counted by size with one popcount against each sizes[k].
A walk costs one step per high cover, at most 2^14, and eleven popcounts
of 1024-bit ints per distinct AND. In-process on a 2-CPU machine
(CPython 3.11.7), the four seed-1 `oracle-walk` graphs of perfbench
(random, orders 21-23) took 3.6 ms against the pair sum's 21 ms, and a
perfect matching across the halves at order 24 took 6 ms against 0.51 s.
A graph with few distinct half-covers pays more than by the pair sum,
which builds two cover tables of 2^12: C_24 took 0.8 ms against 0.45 ms
and the edgeless graph of order 24 5.9 ms against 2.4 ms. The worst case
found has every one of the 2^14 high covers give a distinct AND (a K_10
low side, each high vertex joined to 3 of it): 53 ms against 28 ms, with
`completing` holding 4.1 MB.

Orders above SPLIT_MAX_ORDER sum over pairs of half-covers. The vertices are
split into a low and a high half. For each half, the subsets are grouped
by their cover (the union of their closed neighborhoods), and each group
keeps the size polynomial of its subsets. A subset of the whole graph is
a pair (low part, high part), and it dominates exactly when the two
covers together reach every vertex, so the profile is a sum over pairs of
distinct half-covers (meet in the middle). Pairs are skipped when one
cover misses a vertex that no subset of the other half reaches. The cost
is one step per surviving pair, at most 2^n, plus the two half tables;
in-process on a 2-CPU machine, K_40 took under 0.01 s and W_40 about
0.1 s. Everything runs serially in one process. The domination number is
the profile's lowest nonzero index, so `gamma` costs what `poly` costs:
C_40 takes about 0.05 s, but a universal vertex plus a perfect matching
across the halves, order 25 (gamma 1), takes 0.5-0.7 s, where stopping at
the first dominating set took under 0.1 ms; the split counts the same
construction at order 24 in about 7 ms.

Orders above a guard (default 24) are refused unless the caller raises
the guard explicitly, and orders above MAX_ORDER are refused whatever the
guard.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from operator import and_, or_
from typing import Iterable

from .errors import SizeGuardError
from .graphs import Graph, _g6_layout
from .polynomials import IntPolynomial

__all__ = [
    "DEFAULT_GUARD",
    "domination_profile",
    "domination_polynomial",
    "domination_number",
    "graph6_lane_lengths",
    "graph6_profiles",
    "LANES",
]

DEFAULT_GUARD = 24

# No guard reaches past this order, and the refusal comes before anything is
# allocated. The pair sum stays within 2^n steps, and a graph whose halves
# are joined by a perfect matching reaches that bound: every half-cover is
# distinct and none can be skipped, so order 40 would again take days.
MAX_ORDER = 40

# Orders up to this one count by truth tables, orders above it by the split
# or the pair sum: the crossover measured on random graphs (see the module
# docstring).
TRUTH_TABLE_MAX_ORDER = 10

# Orders above TRUTH_TABLE_MAX_ORDER and up to this one, the default guard,
# count by the split: its cover table holds at most 2^14 high covers.
SPLIT_MAX_ORDER = 24


def _check_guard(n: int, guard: int):
    # The ceiling first: raising the guard cannot help an order above it.
    if n > MAX_ORDER:
        raise SizeGuardError(
            f"order {n} exceeds {MAX_ORDER}, the largest order any guard lets "
            f"a 2^n enumeration reach"
        )
    if n > guard:
        raise SizeGuardError(
            f"order {n} exceeds the enumeration guard ({guard}); raise it via "
            f"the guard argument (CLI: --guard-override)"
        )


def _cover_table(closed: tuple[int, ...], width: int) -> dict[int, int]:
    """Each union of the given closed neighborhoods over a subset of them,
    mapped to the size polynomial sum(x^|s|) of the subsets s with that
    union, packed `width` bits per coefficient."""
    table = {0: 1}
    for nb in closed:
        # The snapshot holds the subsets without this vertex, so each is
        # extended by it exactly once.
        for cover, sizes in list(table.items()):
            table[cover | nb] = table.get(cover | nb, 0) + (sizes << width)
    return table


@cache
def _truth_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`meets` and `sizes` for order n: bit S of meets[m] is set when the
    subset S meets the mask m, and bit S of sizes[k] when |S| = k."""
    all_subsets = (1 << (1 << n)) - 1
    # Bit S of member[v] is bit v of S: runs of 2^v clear bits then 2^v
    # set bits, the period repeated across the table by a repunit.
    member = [
        (((1 << (1 << v)) - 1) << (1 << v)) * (all_subsets // ((1 << (2 << v)) - 1))
        for v in range(n)
    ]
    meets = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        meets[m] = meets[m ^ low] | member[low.bit_length() - 1]
    sizes = [0] * (n + 1)
    for subset in range(1 << n):
        sizes[subset.bit_count()] |= 1 << subset
    return tuple(meets), tuple(sizes)


def _truth_table_profile(closed: tuple[int, ...]) -> tuple[int, ...]:
    """d(G,1), ..., d(G,n): the subsets that meet every N[v], by size."""
    meets, sizes = _truth_tables(len(closed))
    dominating = reduce(and_, [meets[nb] for nb in closed], (1 << len(meets)) - 1)
    return tuple((dominating & size).bit_count() for size in sizes[1:])


# Records of one order walked at once by `graph6_profiles`, one bit lane
# each, eight to a byte, so a full batch's ints hold 2048 bytes. The counts
# are unpacked into one byte lane per record, and d(G, k) <= C(n, k) <=
# C(10, 5) = 252 for every order n up to TRUTH_TABLE_MAX_ORDER, so no count
# carries into the next lane.
LANES = 16384


def graph6_lane_lengths(guard: int) -> dict[bytes, int]:
    """The records `graph6_profiles` reads: each order byte up to
    TRUTH_TABLE_MAX_ORDER and `guard`, mapped to its record length."""
    top = min(TRUTH_TABLE_MAX_ORDER, guard)
    return {bytes([63 + n]): _g6_layout(n)[0] for n in range(top + 1)}


@cache
def _graph6_layout(n: int) -> tuple[int, tuple[bytes, ...], tuple[tuple[int, bytes, int, int], ...]]:
    """Order n's graph6 layout, from `graphs._g6_layout`: the record length;
    for each body position, the bytes allowed there (63..126, padding bits
    clear); and each edge (u, v) as (position, a translate table giving
    that edge's bit, u, v)."""
    length, edges = _g6_layout(n)
    # bits[b] maps each byte c in 63..126 to bit b of c - 63.
    bits = [bytes(63) + bytes(c >> b & 1 for c in range(64)) + bytes(129) for b in range(6)]
    # The bits of each position that hold an edge; the others are padding.
    used = [0] * length
    for _, _, i, b in edges:
        used[i] |= 1 << b
    allowed = tuple(bytes(c for c in range(63, 127) if not c - 63 & ~used[i]) for i in range(1, length))
    return length, allowed, tuple((i, bits[b], u, v) for u, v, i, b in edges)


def _lane_covers(rows: list[list[int]], n: int) -> list[tuple[int, list[int]]]:
    """(|S|, cover) for each subset S of the vertices whose rows are given:
    cover[v] is the OR of row[v] over the rows of S."""
    covers = [(0, [0] * n)]
    for row in rows:
        covers += [(k + 1, list(map(or_, cover, row))) for k, cover in covers]
    return covers


def graph6_profiles(batch: list[bytes]) -> Iterable[tuple[int, ...]] | None:
    """`domination_profile(parse_graph6(r))` for each of up to LANES records
    of one order n <= TRUTH_TABLE_MAX_ORDER, each of the length that
    `graph6_lane_lengths` gives; None when some body byte is outside 63..126
    or sets a padding bit, which `parse_graph6` refuses, and None when the
    records' order bytes differ, as orders of one record length can (0 and
    1, 2 and 3), since the walk reads every record at the first one's order.

    The records are walked at once, one bit lane each: with w = ceil(m/8)
    bytes per int, record t*w + j is bit t of byte j. Edge (u, v)'s int
    holds 1 in the lanes of the records with that edge, read from a column
    of record bytes, w records at a time. A subset S dominates a lane when
    each N[v] meets S, that is when the OR of the rows of S has 1 in that
    lane at every v; the vertices split into halves, S is a pair of half
    subsets, and d(G, |S|) gains the AND of the pair's ORs, lane by lane.
    Each d(G, k) is kept in C(n, k).bit_length() bit planes, plane i
    holding bit i of every lane's count, and gains an AND by a ripple
    carry that stops when nothing carries. Once the walk ends, bit t of
    every byte of the planes is gathered into byte lanes, record t*w + j
    in byte j.
    """
    n, m = batch[0][0] - 63, len(batch)
    length, allowed, edges = _graph6_layout(n)
    records = b"".join(batch)
    columns = [records[i::length] for i in range(length)]
    if columns[0].count(batch[0][0]) < m:
        return None
    for column, ok in zip(columns[1:], allowed):
        if column.translate(None, ok):
            return None
    if not n:
        return [()] * m
    w = -(-m // 8)
    # The lanes past record m - 1 read as edgeless graphs and are dropped.
    ones = (1 << 8 * w) - 1
    rows = [[ones if u == v else 0 for v in range(n)] for u in range(n)]
    for i, bit, u, v in edges:
        column = columns[i].translate(bit)
        rows[u][v] = rows[v][u] = reduce(
            or_, [int.from_bytes(column[t * w:t * w + w], "little") << t for t in range(8)])
    planes = [[0] * math.comb(n, k).bit_length() for k in range(n + 1)]
    highs = _lane_covers(rows[n // 2:], n)
    for a, low in _lane_covers(rows[:n // 2], n):
        for b, high in highs:
            carry, counter = reduce(and_, map(or_, low, high)), planes[a + b]
            i = 0
            while carry:
                plane = counter[i]
                counter[i], carry = plane ^ carry, plane & carry
                i += 1
    lane = ones // 255
    counts = [
        b"".join(reduce(or_, [(plane >> t & lane) << i for i, plane in enumerate(counter)])
                 .to_bytes(w, "little") for t in range(8))[:m]
        for counter in planes[1:]
    ]
    return zip(*counts)


def _pair_sum_profile(closed: tuple[int, ...]) -> tuple[int, ...]:
    """d(G,1), ..., d(G,n) by the sum over pairs of half-covers."""
    n = len(closed)
    # Each coefficient counts subsets of one size, at most C(n, k) < 2^n, so
    # n + 1 bits per coefficient leave no carry between them.
    width = n + 1
    h = (n + 1) // 2
    low, high = _cover_table(closed[:h], width), _cover_table(closed[h:], width)
    full = (1 << n) - 1
    # A half-cover can pair only if it reaches every vertex the other half
    # cannot, so the others are dropped before the pair sum.
    low_reach, high_reach = reduce(or_, low), reduce(or_, high)
    lows = [(cl, ls) for cl, ls in low.items() if cl | high_reach == full]
    total = 0
    for ch, hs in high.items():
        if ch | low_reach == full:
            total += hs * sum([ls for cl, ls in lows if cl | ch == full])
    coeff = (1 << width) - 1
    return tuple(total >> (width * k) & coeff for k in range(1, n + 1))


def _and_table(tables: list[int], ones: int) -> list[int]:
    """The AND of each subset of `tables` (`ones` for the empty subset),
    indexed by the subset's mask."""
    ands = [ones]
    for table in tables:
        ands += [a & table for a in ands]
    return ands


def _split_profile(closed: tuple[int, ...]) -> tuple[int, ...]:
    """d(G,1), ..., d(G,n) for n >= TRUTH_TABLE_MAX_ORDER: truth tables on
    the low vertices, a cover table on the high ones, which holds up to
    2^(n - 10) covers."""
    n, low = len(closed), TRUTH_TABLE_MAX_ORDER
    meets, sizes = _truth_tables(low)
    # As in the pair sum, n + 1 bits per coefficient leave no carry.
    width = n + 1
    # The low subsets that dominate v, one bit per subset of the low
    # vertices, and the AND of those tables over each set of vertices in
    # each third of a vertex mask.
    ones = (1 << (1 << low)) - 1
    dominators = [meets[nb & (1 << low) - 1] for nb in closed]
    step = -(-n // 3)
    ands0, ands1, ands2 = (_and_table(dominators[b:b + step], ones) for b in (0, step, 2 * step))
    part, full = (1 << step) - 1, (1 << n) - 1
    # The low subsets that complete a high subset are those that dominate
    # every vertex its cover misses. High covers with the same completing
    # table add their size polynomials, and each table is counted once.
    completing: dict[int, int] = {}
    for cover, high_sizes in _cover_table(closed[low:], width).items():
        missed = full ^ cover
        table = ands0[missed & part] & ands1[missed >> step & part] & ands2[missed >> 2 * step]
        if table:
            completing[table] = completing.get(table, 0) + high_sizes
    total = 0
    for table, high_sizes in completing.items():
        total += high_sizes * sum([(table & size).bit_count() << (width * k) for k, size in enumerate(sizes)])
    coeff = (1 << width) - 1
    return tuple(total >> (width * k) & coeff for k in range(1, n + 1))


def domination_profile(g: Graph, *, guard: int = DEFAULT_GUARD) -> tuple[int, ...]:
    """Exact counts (d(G,1), ..., d(G,n)) by exhaustive enumeration: by
    truth tables up to TRUTH_TABLE_MAX_ORDER, by the split up to
    SPLIT_MAX_ORDER, by the pair sum above it.

    The null graph yields ().
    """
    _check_guard(g.n, guard)
    if g.n <= TRUTH_TABLE_MAX_ORDER:
        return _truth_table_profile(g.closed)
    if g.n <= SPLIT_MAX_ORDER:
        return _split_profile(g.closed)
    return _pair_sum_profile(g.closed)


def domination_polynomial(g: Graph, *, guard: int = DEFAULT_GUARD) -> IntPolynomial:
    """Exhaustive domination polynomial; constant 1 for the null graph.

    The null-graph convention makes the components product law hold with
    an empty product; the graph is not factored into components, so the
    enumeration stays an independent ground truth for that law.
    """
    counts = domination_profile(g, guard=guard)
    # Every nonempty profile ends in d(G, n) = 1, so the tuple is canonical.
    return IntPolynomial._of((0, *counts)) if counts else IntPolynomial.one()


def domination_number(g: Graph, *, guard: int = DEFAULT_GUARD) -> int | None:
    """Least size of a dominating set, or None for the null graph: the
    profile's lowest nonzero index, at the profile's cost. That cost can far
    exceed a search that stops at the first dominating set: a universal
    vertex plus a perfect matching across the halves (gamma 1) takes about
    7 ms at order 24 by the split, but 0.5-0.7 s at order 25 by the pair
    sum."""
    counts = domination_profile(g, guard=guard)
    return next((k for k, c in enumerate(counts, start=1) if c), None)
