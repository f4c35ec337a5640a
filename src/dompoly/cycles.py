"""Cycle-family machinery: polynomials, derived sequences, ord_3 class.

The domination polynomial of the cycle C_n satisfies, for n >= 4,

    D(C_n,x) = x * (D(C_{n-1},x) + D(C_{n-2},x) + D(C_{n-3},x))

with C_1 = K_1 and C_2 = K_2; seeded with D_{-2} = D_{-1} = -1 and
D_0 = 3, it holds from n = 1. Everything else in this module is a scalar
shadow of that recurrence:

    alpha_n = D(C_n, -1)           beta_n = D'(C_n, -1)
    theta_n = D''(C_n, -1)         a_n    = D(C_n, -3)
    a_n     = (-1)^n * 3^ceil(n/3) * b_n

Each periodic fact is one table: `JET_TABLE`, (alpha, beta, theta) by n
mod 4, read by `closed_jet`; and `B_MOD_9`, one period of b_n mod 9, read
by `b_mod_9` and so by `predicted_ord3`. The routes that check them read
neither: `cycle_polynomials`, `cycle_jets` and its seeds, `b_values` and
`ord3_bounds` (the three-branch ord_3 table).

Nothing is memoized: `cycle_polynomials`, `cycle_jets` and `b_values`
are generators holding three terms; the single-n functions take the n-th
item of a fresh walk, so loops over n walk a generator instead. The
walks are straight-line steps: `cycle_polynomials` adds three coefficient
tuples of known lengths with C-level `map`, `cycle_jets(t)` (k = 0, the
values alone) holds three ints and `cycle_jets(t, 2)` nine, which
`cycle_jets(t, 1)` also walks; only k >= 3 takes the Leibniz step on
whole jets.
`cycle_polynomials` alone imports `IntPolynomial`, so the scalar walks
load no polynomial code.
"""

from __future__ import annotations

from itertools import count, islice
from operator import add
from typing import TYPE_CHECKING, Iterator

from .errors import InternalInconsistencyError, ParameterDomainError

if TYPE_CHECKING:
    from .polynomials import IntPolynomial

__all__ = [
    "cycle_polynomials",
    "cycle_polynomial",
    "cycle_jets",
    "cycle_jet",
    "JET_TABLE",
    "closed_jet",
    "alpha",
    "beta",
    "theta",
    "b_values",
    "ord3_bounds",
    "B_MOD_9",
    "b_mod_9",
    "predicted_ord3",
]

# The 2-jet (alpha, beta, theta) = (D, D', D'')(C_n, -1). Row r holds, for
# n = r mod 4 and each component, the coefficients (c0, c1, c2) of
# 4 * value = c0 + c1*n + c2*n^2.
JET_TABLE = (
    ((12, 0, 0), (0, -4, 0), (0, -4, 1)),   # 3, -n, n(n-4)/4
    ((-4, 0, 0), (0, 4, 0), (0, 2, -2)),    # -1, n, -n(n-1)/2
    ((-4, 0, 0), (0, 0, 0), (0, 2, 1)),     # -1, 0, n(n+2)/4
    ((-4, 0, 0), (0, 0, 0), (0, 0, 0)),     # -1, 0, 0
)

# b_1, ..., b_27 mod 9: b mod 9 has period 27, so entry (n - 1) % 27 is b_n
# mod 9. No entry is 0, so 9 never divides b_n.
B_MOD_9 = (1, 1, 3, 3, 7, 6, 2, 7, 3, 7, 7, 3, 3, 4, 6, 5, 4, 3, 4, 4, 3, 3, 1, 6, 8, 1, 3)


def _ceil3(n: int) -> int:
    return (n + 2) // 3


def _require_positive(n: int):
    if n < 1:
        raise ParameterDomainError(f"cycle sequences need n >= 1, got {n}")


def _nth(walk: Iterator, n: int):
    """The n-th item (from 1) of a walk that starts at n = 1."""
    _require_positive(n)
    return next(islice(walk, n - 1, None))


def cycle_polynomials() -> Iterator[IntPolynomial]:
    """Yield D(C_1, x), D(C_2, x), ..., holding the last three coefficient
    tuples: D_n's x^(i+1) coefficient sums the x^i ones of D_{n-1..n-3}."""
    from .polynomials import IntPolynomial

    # The constants that `cycle_jets` is seeded with: D_{-2}, D_{-1}, D_0.
    older, old, last = (-1,), (-1,), (3,)
    while True:
        # last is the longest of the three, at most one longer than old and
        # two longer than older (lengths n, n-1, n-2 from D_3 on), so the
        # zero-padded sums read every coefficient. D_n's leading
        # coefficient is 1, so the tuple is canonical as built.
        coeffs = (0, *map(add, map(add, last, old + (0,)), older + (0, 0)))
        yield IntPolynomial._of(coeffs)
        older, old, last = old, last, coeffs


def cycle_polynomial(n: int) -> IntPolynomial:
    """D(C_n, x), exactly: the n-th item of a fresh `cycle_polynomials()`."""
    return _nth(cycle_polynomials(), n)


def cycle_jets(t: int, k: int = 0) -> Iterator[tuple[int, ...]]:
    """Yield the jet (D(C_n,t), D'(C_n,t), ..., D^(k)(C_n,t)) for n = 1, 2, ...

    With S_n = D_{n-1} + D_{n-2} + D_{n-3}, the recurrence D_n = x * S_n
    differentiates by the Leibniz rule to

        D_n^(j)(t) = t * S_n^(j)(t) + j * S_n^(j-1)(t),

    so each step needs only the last three jets: memory stays flat in n.
    At k = 0 that is D_n(t) = t * S_n(t), walked on three ints; k = 2
    writes the step out on nine ints, and k = 1 reads (D, D') off that walk.
    """
    if k < 0:
        raise ParameterDomainError(f"derivative order must be >= 0, got {k}")
    # Run backwards, the recurrence forces the constants D_{-2} = D_{-1} = -1
    # and D_0 = 3; every walk is seeded with them, so it holds from n = 1.
    if k == 0:
        return _value_walk(t)
    if k == 1:
        return ((v, d) for v, d, _ in _two_jet_walk(t))
    return _two_jet_walk(t) if k == 2 else _jet_walk(t, k)


def _value_walk(t: int) -> Iterator[tuple[int]]:
    """`cycle_jets(t, 0)`: (D(C_n, t),) on three ints, with no per-step list."""
    older, old, last = -1, -1, 3
    while True:
        older, old, last = old, last, t * (older + old + last)
        yield (last,)


def _two_jet_walk(t: int) -> Iterator[tuple[int, int, int]]:
    """`cycle_jets(t, 2)`: (D, D', D'')(C_n, t) on nine ints, the Leibniz
    step written out: D_n' = t * S_n' + S_n and D_n'' = t * S_n'' + 2 * S_n'."""
    # (v, d, e) is (D, D', D'') of D_{n-3}, D_{n-2}, D_{n-1} by suffix 3, 2, 1.
    v3, d3, e3, v2, d2, e2, v1, d1, e1 = -1, 0, 0, -1, 0, 0, 3, 0, 0
    while True:
        s, ds, es = v3 + v2 + v1, d3 + d2 + d1, e3 + e2 + e1
        v3, d3, e3, v2, d2, e2 = v2, d2, e2, v1, d1, e1
        v1, d1, e1 = t * s, t * ds + s, t * es + 2 * ds
        yield v1, d1, e1


def _jet_walk(t: int, k: int) -> Iterator[tuple[int, ...]]:
    """`cycle_jets(t, k)` for k >= 3, by the Leibniz step on whole jets."""
    zeros = (0,) * k
    older, old, last = (-1, *zeros), (-1, *zeros), (3, *zeros)
    while True:
        s = [a + b + c for a, b, c in zip(older, old, last)]
        jet = (t * s[0], *(t * s[j] + j * s[j - 1] for j in range(1, k + 1)))
        yield jet
        older, old, last = old, last, jet


def cycle_jet(n: int, t: int, k: int = 0) -> tuple[int, ...]:
    """(D(C_n,t), ..., D^(m)(C_n,t)) with m = min(k, n): the higher
    derivatives of the degree-n D(C_n) vanish, so a huge k costs nothing.
    A bad n is refused first, before min(k, n) can stand in for k."""
    _require_positive(n)
    return next(islice(cycle_jets(t, min(k, n)), n - 1, None))


def closed_jet(n: int) -> tuple[int, int, int]:
    """(alpha, beta, theta)(n), read from `JET_TABLE`. It holds for every
    n >= 1, and at n = -2, -1, 0 it gives the constants `cycle_jets` is
    seeded with."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = JET_TABLE[n % 4]
    a = (a2 * n + a1) * n + a0
    b = (b2 * n + b1) * n + b0
    c = (c2 * n + c1) * n + c0
    if (a | b | c) & 3:
        raise InternalInconsistencyError(f"JET_TABLE row {n % 4} is not 4 times an integer at n = {n}")
    return a >> 2, b >> 2, c >> 2


def alpha(n: int) -> int:
    """D(C_n, -1): 3 when 4 | n, else -1."""
    return closed_jet(n)[0]


def beta(n: int) -> int:
    """D'(C_n, -1): -n, n, 0, 0 by n mod 4."""
    return closed_jet(n)[1]


def theta(n: int) -> int:
    """D''(C_n, -1): n(n-4)/4, -n(n-1)/2, n(n+2)/4, 0 by n mod 4."""
    return closed_jet(n)[2]


def b_values() -> Iterator[int]:
    """Yield b_1, b_2, ... with a_n = (-1)^n * 3^ceil(n/3) * b_n, by the
    3-branch recurrence, holding the last three.

    The recurrence reads no a_n; the checks test the identity against
    `cycle_jets(-3)`, one product per n, and divide a_n only where it fails.
    """
    # b_{-2}, b_{-1}, b_0: the jet's constants D_{-2}, D_{-1}, D_0 at -3,
    # factored the same way.
    older, old, last = -1, 1, 3
    for n in count(1):
        if n % 3 == 0:
            b = 3 * last - 3 * old + older
        elif n % 3 == 1:
            b = last - old + older
        else:
            b = 3 * last - old + older
        yield b
        older, old, last = old, last, b


def ord3_bounds(n: int) -> tuple[int, int]:
    """The least and greatest ord_3(a_n) allowed: ceil(n/3) + 1 when 3 | n,
    ceil(n/3) when n = 3k+2, and either of the two when n = 3k+1."""
    _require_positive(n)
    base = _ceil3(n)
    return base + (n % 3 == 0), base + (n % 3 != 2)


def b_mod_9(n: int) -> int:
    """b_n mod 9, read from `B_MOD_9`."""
    return B_MOD_9[(n - 1) % 27]


def predicted_ord3(n: int) -> int:
    """ord_3(a_n) = ceil(n/3) + ord_3(b_n), where ord_3(b_n) is 1 when 3
    divides `b_mod_9(n)` and 0 otherwise, as 9 never divides b_n."""
    _require_positive(n)
    return _ceil3(n) + (b_mod_9(n) % 3 == 0)
