"""Ground-truth dominating-set counting by exhaustive subset enumeration.

This is the reference everything else is checked against, so it counts
every vertex subset and uses no structure of the graph beyond its closed
neighborhoods. A subset S dominates exactly when it meets every closed
neighborhood N[v]. `domination_profile` picks one of two routes by the
order n alone.

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

`graph6_profile` feeds that walk straight from a graph6 record's bytes,
for `classify_corpus`. A byte table per order, built on first use from
`parse_graph6`'s decodes of one-bit records, holds each body byte's share
of the packed closed neighborhoods, so a record's rows are the sum of its
bytes' entries and no Graph is built. The 13,591 corpus records took
0.04 s that way, decoding included, against 0.11 s through `parse_graph6`
and `domination_profile`. The byte tables up to order 10 hold 0.15 MB.

Orders above the cutoff sum over pairs of half-covers. The vertices are
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
the first dominating set took under 0.1 ms.

Orders above a guard (default 24) are refused unless the caller raises
the guard explicitly, and orders above MAX_ORDER are refused whatever the
guard.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import and_, getitem, or_

from .errors import Graph6ParseError, SizeGuardError
from .graphs import Graph, encode_graph6, parse_graph6
from .polynomials import IntPolynomial

__all__ = [
    "DEFAULT_GUARD",
    "domination_profile",
    "domination_polynomial",
    "domination_number",
    "graph6_profile",
]

DEFAULT_GUARD = 24

# No guard reaches past this order, and the refusal comes before anything is
# allocated. The pair sum stays within 2^n steps, and a graph whose halves
# are joined by a perfect matching reaches that bound: every half-cover is
# distinct and none can be skipped, so order 40 would again take days.
MAX_ORDER = 40

# Orders up to this one count by truth tables, orders above it by the pair
# sum: the crossover measured on random graphs (see the module docstring).
TRUTH_TABLE_MAX_ORDER = 10


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


@cache
def _graph6_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Order n's graph6 byte table: entry [i][b] is what byte value b at
    position i of a record adds to the packed closed neighborhoods (N[v] at
    bits v*n), or at least the flag 2^(n*n) where `parse_graph6` would
    refuse that byte. Position 0, the order byte, adds the diagonal."""
    flag = 1 << n * n
    edgeless = encode_graph6(Graph(n, [1 << v for v in range(n)]))
    diagonal = sum(1 << v * (n + 1) for v in range(n))
    table = [[flag] * 256 for _ in edgeless]
    table[0][edgeless[0]] = diagonal
    for i in range(1, len(edgeless)):
        # Each bit b of the byte from a one-bit record; the values with bit
        # b set add its edges to those below 2^b.
        values = [0]
        for b in range(6):
            try:
                g = parse_graph6(edgeless[:i] + bytes([edgeless[i] + (1 << b)]) + edgeless[i + 1:])
            except Graph6ParseError:  # a padding bit
                bit = flag
            else:
                bit = sum(nb << v * n for v, nb in enumerate(g.closed)) - diagonal
            values += [v + bit for v in values]
        table[i][63:127] = values
    return tuple(map(tuple, table))


def graph6_profile(record: bytes, guard: int) -> tuple[int, ...] | None:
    """`domination_profile(parse_graph6(record), guard=guard)` for a record
    of order at most TRUTH_TABLE_MAX_ORDER and `guard`, read through the
    order's byte table into the truth-table walk with no Graph built; None
    for any record the table cannot read, which `parse_graph6` decodes or
    refuses."""
    n = record[0] - 63 if record else -1
    if not 0 <= n <= TRUTH_TABLE_MAX_ORDER or n > guard:
        return None
    table = _graph6_table(n)
    if len(record) != len(table):
        return None
    packed = sum(map(getitem, table, record))
    if packed >> n * n:
        return None
    meets, sizes = _truth_tables(n)
    full = (1 << n) - 1
    dominating = -1
    # The last row holds its own vertex, so `packed` stays nonzero for n rows.
    while packed:
        dominating &= meets[packed & full]
        packed >>= n
    return tuple([(dominating & size).bit_count() for size in sizes[1:]])


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


def domination_profile(g: Graph, *, guard: int = DEFAULT_GUARD) -> tuple[int, ...]:
    """Exact counts (d(G,1), ..., d(G,n)) by exhaustive enumeration: by
    truth tables up to TRUTH_TABLE_MAX_ORDER, by the pair sum above it.

    The null graph yields ().
    """
    _check_guard(g.n, guard)
    if g.n <= TRUTH_TABLE_MAX_ORDER:
        return _truth_table_profile(g.closed)
    return _pair_sum_profile(g.closed)


def domination_polynomial(g: Graph, *, guard: int = DEFAULT_GUARD) -> IntPolynomial:
    """Exhaustive domination polynomial; constant 1 for the null graph.

    The null-graph convention makes the components product law hold with
    an empty product; the graph is not factored into components, so the
    enumeration stays an independent ground truth for that law.
    """
    counts = domination_profile(g, guard=guard)
    return IntPolynomial((0,) + counts) if counts else IntPolynomial.one()


def domination_number(g: Graph, *, guard: int = DEFAULT_GUARD) -> int | None:
    """Least size of a dominating set, or None for the null graph: the
    profile's lowest nonzero index, at the profile's cost."""
    counts = domination_profile(g, guard=guard)
    return next((k for k, c in enumerate(counts, start=1) if c), None)
