"""Ground-truth dominating-set counting by exhaustive subset enumeration.

This is the reference everything else is checked against, so it counts
every vertex subset and uses no structure of the graph beyond its closed
neighborhoods. The vertices are split into a low and a high half. For
each half, the subsets are grouped by their cover (the union of their
closed neighborhoods), and each group keeps the size polynomial of its
subsets. A subset of the whole graph is a pair (low part, high part), and
it dominates exactly when the two covers together reach every vertex, so
the profile is a sum over pairs of distinct half-covers (meet in the
middle). Pairs are skipped when one cover misses a vertex that no subset
of the other half reaches. The cost is one step per surviving pair, at
most 2^n, plus the two half tables; in-process on a 2-CPU machine, K_40
took under 0.01 s and W_40 about 0.1 s. Everything runs serially in one
process. The domination number is the profile's lowest nonzero index,
so `gamma` costs what `poly` costs: C_40 takes about 0.05 s, but a
universal vertex plus a perfect matching across the halves, order 25
(gamma 1), takes 0.5-0.7 s, where stopping at the first dominating set
took under 0.1 ms.

Orders above a guard (default 24) are refused unless the caller raises
the guard explicitly, and orders above MAX_ORDER are refused whatever the
guard.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

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
# allocated. The pair sum stays within 2^n steps, and a graph whose halves
# are joined by a perfect matching reaches that bound: every half-cover is
# distinct and none can be skipped, so order 40 would again take days.
MAX_ORDER = 40


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


def domination_profile(g: Graph, *, guard: int = DEFAULT_GUARD) -> tuple[int, ...]:
    """Exact counts (d(G,1), ..., d(G,n)) by exhaustive enumeration.

    The null graph yields ().
    """
    n = g.n
    _check_guard(n, guard)
    if n == 0:
        return ()
    # Each coefficient counts subsets of one size, at most C(n, k) < 2^n, so
    # n + 1 bits per coefficient leave no carry between them.
    width = n + 1
    h = (n + 1) // 2
    low, high = _cover_table(g.closed[:h], width), _cover_table(g.closed[h:], width)
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
