"""Cycle-family machinery: polynomials, derived sequences, ord_3 class.

The domination polynomial of the cycle C_n satisfies, for n >= 4,

    D(C_n,x) = x * (D(C_{n-1},x) + D(C_{n-2},x) + D(C_{n-3},x))

with C_1 = K_1 and C_2 = K_2; seeded with D_{-2} = D_{-1} = -1 and
D_0 = 3, it holds from n = 1. Everything else in this module is a scalar
shadow of that recurrence:

    alpha_n = D(C_n, -1)           beta_n = D'(C_n, -1)
    theta_n = D''(C_n, -1)         a_n    = D(C_n, -3)
    a_n     = (-1)^n * 3^ceil(n/3) * b_n

Each sequence has two routes, and the test suite cross-asserts both
against direct evaluation of the polynomial (or its derivatives), so a
wrong branch in one cannot survive: alpha, beta and theta are closed
form vs. jet (`cycle_jets`: D, D', ... at one point, stepped through n),
b is its 3-branch recurrence vs. factoring a_n, taken from the jet.
`ord3_bounds` is the one ord_3 table; `predicted_ord3` and verify read it.

Nothing is memoized: `cycle_polynomials`, `cycle_jets` and `b_values`
are generators holding three terms; the single-n functions take the n-th
item of a fresh walk, so loops over n walk a generator instead.
"""

from __future__ import annotations

from itertools import count, islice, zip_longest
from typing import Iterator

from .errors import InternalInconsistencyError, ParameterDomainError
from .polynomials import IntPolynomial

__all__ = [
    "cycle_polynomials",
    "cycle_polynomial",
    "cycle_jets",
    "cycle_jet",
    "alpha",
    "beta",
    "theta",
    "b_values",
    "b_value_by_factoring",
    "ord3_bounds",
    "predicted_ord3",
    "REMARK_RESIDUES_MOD_27",
]

# Residues r mod 27 with r % 3 == 1 for which ord_3(a_n) is one above the
# baseline ceil(n/3).
REMARK_RESIDUES_MOD_27 = frozenset({4, 13, 22})


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
    # The constants that `cycle_jets` is seeded with: D_{-2}, D_{-1}, D_0.
    older, old, last = (-1,), (-1,), (3,)
    while True:
        coeffs = (0, *(a + b + c for a, b, c in zip_longest(older, old, last, fillvalue=0)))
        yield IntPolynomial(coeffs)
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
    """
    if k < 0:
        raise ParameterDomainError(f"derivative order must be >= 0, got {k}")
    # Run backwards, the recurrence forces the constants D_{-2} = D_{-1} = -1
    # and D_0 = 3; seeded with them, it holds from n = 1.
    zeros = (0,) * k
    older, old, last = (-1, *zeros), (-1, *zeros), (3, *zeros)
    while True:
        s = [a + b + c for a, b, c in zip(older, old, last)]
        jet = (t * s[0], *(t * s[j] + j * s[j - 1] for j in range(1, k + 1)))
        yield jet
        older, old, last = old, last, jet


def cycle_jet(n: int, t: int, k: int = 0) -> tuple[int, ...]:
    """(D(C_n,t), ..., D^(m)(C_n,t)) with m = min(k, n): the higher
    derivatives of the degree-n D(C_n) vanish, so a huge k costs nothing."""
    return _nth(cycle_jets(t, min(k, n)), n)


def alpha(n: int) -> int:
    """D(C_n, -1): 3 when 4 | n, else -1."""
    _require_positive(n)
    return 3 if n % 4 == 0 else -1


def beta(n: int) -> int:
    """D'(C_n, -1) in closed form: -n, n, 0, 0 by n mod 4."""
    _require_positive(n)
    r = n % 4
    if r == 0:
        return -n
    if r == 1:
        return n
    return 0


def theta(n: int) -> int:
    """D''(C_n, -1) in closed form, by n mod 4."""
    _require_positive(n)
    r = n % 4
    if r == 0:
        return n * (n - 4) // 4
    if r == 1:
        return -n * (n - 1) // 2
    if r == 2:
        return n * (n + 2) // 4
    return 0


def b_values() -> Iterator[int]:
    """Yield b_1, b_2, ... with a_n = (-1)^n * 3^ceil(n/3) * b_n, by the
    3-branch recurrence, holding the last three.

    The recurrence is the fast route; `b_value_by_factoring` recomputes the
    same numbers from a_n and is used as a cross-check.
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


def b_value_by_factoring(n: int, a_n: int) -> int:
    """b_n obtained by dividing a_n = D(C_n, -3) by its forced sign and 3-power."""
    _require_positive(n)
    q, r = divmod(a_n if n % 2 == 0 else -a_n, 3 ** _ceil3(n))
    if r != 0:
        raise InternalInconsistencyError(
            f"3^ceil({n}/3) does not divide a_{n} = {a_n}"
        )
    return q


def ord3_bounds(n: int) -> tuple[int, int]:
    """The least and greatest ord_3(a_n) allowed: ceil(n/3) + 1 when 3 | n,
    ceil(n/3) when n = 3k+2, and either of the two when n = 3k+1."""
    _require_positive(n)
    base = _ceil3(n)
    return base + (n % 3 == 0), base + (n % 3 != 2)


def predicted_ord3(n: int) -> int:
    """ord_3(a_n) predicted from n alone: the table's upper bound where n
    mod 27 is in {4, 13, 22} (all 3k+1), else its lower bound."""
    low, high = ord3_bounds(n)
    return high if n % 27 in REMARK_RESIDUES_MOD_27 else low
