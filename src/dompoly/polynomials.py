"""Dense univariate polynomials over the integers, plus p-adic valuation.

Coefficients are plain Python ints, so every operation is exact at any
size. The coefficient vector is kept canonical: no trailing zeros, and the
zero polynomial is the empty vector. The public constructor converts and
trims what it is given; sums, products and derivatives are built
canonical and skip that through the private `_of`. Multiplication is
schoolbook convolution, O(d1*d2) coefficient products; the degrees in
this package stay in the low hundreds, where that is the right trade.
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Iterator

from .errors import ValuationError

__all__ = ["IntPolynomial", "ord_p"]


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntPolynomial:
    """Integer polynomial, coefficient of x^i at index i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim([int(c) for c in coeffs]))

    @classmethod
    def _of(cls, coeffs: tuple[int, ...]) -> "IntPolynomial":
        """A polynomial on a tuple of ints the caller built canonical (no
        trailing zero): no re-check."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial._of(_trim([*map(add, a, b), *a[len(b):]]))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return IntPolynomial._of(_trim(out))

    def eval_at(self, t: int) -> int:
        """Exact evaluation at the integer t, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "IntPolynomial":
        """Formal derivative."""
        coeffs = self.coeffs
        return IntPolynomial._of(tuple(map(mul, range(1, len(coeffs)), coeffs[1:])))

    def coefficient_strings(self) -> list[str]:
        """Decimal coefficient strings, degree 0 upward (the wire form)."""
        return [str(c) for c in self.coeffs]

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "IntPolynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "IntPolynomial(" + " + ".join(terms) + ")"


# Small primes cover every p this package ever passes; larger p are taken
# on trust, per the caller contract.
_PRIMES_BELOW_100 = frozenset(
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
     53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
)


def ord_p(n: int, p: int) -> int:
    """Largest a such that p**a divides n (the p-adic valuation).

    Undefined for n = 0. Primality of p is the caller's responsibility;
    it is verified only for p <= 100.
    """
    if n == 0:
        raise ValuationError("ord_p(0) is undefined")
    if p < 2 or (p <= 100 and p not in _PRIMES_BELOW_100):
        raise ValueError(f"p = {p} is not prime")
    a = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        a += 1
    return a
