"""Slow reference routes that the tests check the package's fast routes against.

Each route is written once, straight from its definition, and shares no
code with `dompoly`: this module imports the standard library only, and
every route takes and returns plain ints and tuples. A test compares a fast
route's answer with the route here where their ranges overlap.
"""

from __future__ import annotations

import math
from itertools import islice, zip_longest
from typing import Iterator


def cycle_coefficients() -> Iterator[tuple[int, ...]]:
    """The coefficient tuples of D(C_1, x), D(C_2, x), ... by the recurrence
    D_n = x * (D_{n-1} + D_{n-2} + D_{n-3}), seeded with the constants
    D_{-2} = D_{-1} = -1 and D_0 = 3: each coefficient sums the three
    tuples one degree down, padded by `zip_longest`."""
    older, old, last = (-1,), (-1,), (3,)
    while True:
        coeffs = (0, *map(sum, zip_longest(older, old, last, fillvalue=0)))
        yield coeffs
        older, old, last = old, last, coeffs


def direct_jet(coeffs: tuple[int, ...], t: int, k: int) -> tuple[int, ...]:
    """(p(t), p'(t), ..., p^(k)(t)) for p(x) = sum coeffs[i] * x^i: k
    differentiations of the coefficient tuple, each evaluated at t by
    Horner's rule."""
    jet = []
    for _ in range(k + 1):
        value = 0
        for c in reversed(coeffs):
            value = value * t + c
        jet.append(value)
        coeffs = tuple(i * c for i, c in enumerate(coeffs))[1:]
    return tuple(jet)


def leibniz_jets(t: int, k: int) -> Iterator[tuple[int, ...]]:
    """The jets (D, D', ..., D^(k))(C_n, t) for n = 1, 2, ..., by the
    general Leibniz step on whole jets: with S_n = D_{n-1} + D_{n-2} +
    D_{n-3}, D_n^(j)(t) = t * S_n^(j)(t) + j * S_n^(j-1)(t)."""
    zeros = (0,) * k
    older, old, last = (-1, *zeros), (-1, *zeros), (3, *zeros)
    while True:
        s = [a + b + c for a, b, c in zip(older, old, last)]
        jet = (t * s[0], *(t * s[j] + j * s[j - 1] for j in range(1, k + 1)))
        yield jet
        older, old, last = old, last, jet


def partitions(n: int, min_part: int) -> list[tuple[int, ...]]:
    """Every partition of n into parts >= min_part, each non-increasing, in
    decreasing lexicographic order: each first part from the largest down,
    followed by the partitions of the rest into parts no larger. There are
    len(partitions(n, min_part)) of them. The partitions of each rest are
    listed once per call and reused."""
    listed: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def below(m: int, largest: int) -> list[tuple[int, ...]]:
        if (m, largest) not in listed:
            listed[m, largest] = [()] if m == 0 else [
                (first,) + rest
                for first in range(min(m, largest), min_part - 1, -1)
                for rest in below(m - first, first)
            ]
        return listed[m, largest]

    return below(n, n)


def part_triples(n_max: int) -> list[tuple[int, int, int]]:
    """The part triples n1 >= n2 >= n3 >= 3 with n1 + n2 + n3 <= n_max, in
    order, by filtering every triple of parts up to n_max."""
    return [
        (n1, n2, n3)
        for n1 in range(3, n_max + 1) for n2 in range(3, n1 + 1) for n3 in range(3, n2 + 1)
        if n1 + n2 + n3 <= n_max
    ]


def domination_profile(closed: tuple[int, ...]) -> tuple[int, ...]:
    """(d(G, 1), ..., d(G, n)) for the graph whose vertex v has the closed
    neighbourhood bitmask closed[v]: the literal definition, OR the closed
    neighbourhoods of each of the 2^n vertex subsets and count, by size,
    the subsets that reach every vertex."""
    n = len(closed)
    full = (1 << n) - 1
    counts = [0] * (n + 1)
    for mask in range(1, 1 << n):
        cover = 0
        for v in range(n):
            if mask >> v & 1:
                cover |= closed[v]
        if cover == full:
            counts[mask.bit_count()] += 1
    return tuple(counts[1:])


def cycle_partition_rivals(n: int, min_part: int = 3) -> list[tuple[int, ...]]:
    """The partitions of n into parts >= min_part, other than (n,), whose
    product of cycle polynomials equals D(C_n, x), in `partitions` order:
    the enumeration route for cycle-partition uniqueness.

    Each polynomial is compared through its value at t = 2^n. Every
    factor's coefficients are nonnegative and sum below 2^p, which is
    checked here, so a product over parts summing to n has nonnegative
    coefficients summing below 2^n = t. Those coefficients are then the
    base-t digits of its value at t, so equal values mean equal polynomials.
    """
    factors = [(), *islice(cycle_coefficients(), n)]
    for p, coeffs in enumerate(factors[1:], 1):
        if min(coeffs) < 0 or sum(coeffs) >= 1 << p:
            raise ValueError(f"D(C_{p}) has a coefficient out of range: {coeffs}")
    t = 1 << n
    values = [direct_jet(coeffs, t, 0)[0] for coeffs in factors]
    return [
        parts for parts in partitions(n, min_part)
        if parts != (n,) and math.prod(values[p] for p in parts) == values[n]
    ]
