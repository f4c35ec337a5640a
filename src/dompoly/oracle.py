"""Ground-truth dominating-set counting by subset enumeration.

This is the reference everything else is checked against, so it stays
deliberately dumb: walk every nonempty vertex subset as a bitmask, OR the
closed neighborhoods together, compare with the full-vertex mask. Two
half-subset lookup tables make the per-mask work constant. The walk is
one serial loop in one process.

The enumeration is 2^n, so orders above a guard (default 24, ~16M masks)
are refused unless the caller raises the guard explicitly, and orders
above MAX_ORDER are refused whatever the guard.
"""

from __future__ import annotations

from itertools import combinations

from .errors import SizeGuardError
from .graphs import Graph
from .polynomials import IntPolynomial

__all__ = [
    "DEFAULT_GUARD",
    "domination_profile",
    "domination_polynomial",
    "domination_number",
]

DEFAULT_GUARD = 24

# No guard reaches past this order, and the refusal comes before anything is
# allocated. A 2^40 walk already takes about two days at ~6M masks/s, though
# its two 2^20-entry half tables are small; each further order doubles the
# time, and near order 60 the half tables alone no longer fit in memory.
MAX_ORDER = 40


def _check_guard(n: int, guard: int):
    if n > guard:
        raise SizeGuardError(
            f"order {n} exceeds the enumeration guard ({guard}); raise it via "
            f"the guard argument (CLI: --guard-override)"
        )
    if n > MAX_ORDER:
        raise SizeGuardError(
            f"order {n} exceeds {MAX_ORDER}, the largest order any guard lets "
            f"a 2^n enumeration reach"
        )


def _cover_table(closed: tuple[int, ...]) -> list[int]:
    """The union of the given closed neighborhoods over every subset of them."""
    table = [0] * (1 << len(closed))
    for s in range(1, len(table)):
        table[s] = table[s & (s - 1)] | closed[(s & -s).bit_length() - 1]
    return table


def domination_profile(g: Graph, *, guard: int = DEFAULT_GUARD) -> tuple[int, ...]:
    """Exact counts (d(G,1), ..., d(G,n)) by brute-force enumeration.

    The null graph yields ().
    """
    n = g.n
    _check_guard(n, guard)
    if n == 0:
        return ()
    # Coverage masks for every subset of the low and high vertex halves.
    h = (n + 1) // 2
    low, high = _cover_table(g.closed[:h]), _cover_table(g.closed[h:])
    full = (1 << n) - 1
    low_mask = (1 << h) - 1
    counts = [0] * (n + 1)
    for m in range(1, 1 << n):
        if low[m & low_mask] | high[m >> h] == full:
            counts[m.bit_count()] += 1
    return tuple(counts[1:])


def domination_polynomial(g: Graph, *, guard: int = DEFAULT_GUARD) -> IntPolynomial:
    """Brute-force domination polynomial; constant 1 for the null graph.

    The null-graph convention makes the components product law hold with
    an empty product; the graph is not factored into components, so the
    walk stays an independent ground truth for that law.
    """
    counts = domination_profile(g, guard=guard)
    return IntPolynomial((0,) + counts) if counts else IntPolynomial.one()


def domination_number(g: Graph, *, guard: int = DEFAULT_GUARD) -> int | None:
    """Least size of a dominating set, or None for the null graph.

    Walks subset sizes in ascending order and stops at the first hit, so
    it is much cheaper than the full profile when gamma is small.
    """
    n = g.n
    _check_guard(n, guard)
    if n == 0:
        return None
    full = (1 << n) - 1
    single = [g.closed[v] for v in range(n)]
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            cover = 0
            for v in combo:
                cover |= single[v]
            if cover == full:
                return size
    raise AssertionError("unreachable: the full vertex set always dominates")
