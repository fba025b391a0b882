"""Reduction of integer exponent counts modulo a cyclotomic polynomial.

A sum ``sum_e counts[e] * zeta_M**e`` of M-th roots of unity with integer
counts lies in Z[zeta_M].  Dividing the count polynomial by the monic M-th
cyclotomic polynomial leaves its coordinates on the power basis
1, zeta, ..., zeta^(phi(M)-1), and those decide what the rest of the package
needs: a character sum must come out provably a rational integer, and an
amplitude of a fitted quasi-polynomial law is zero exactly when its scaled
count vector reduces to zero.  Every step stays in Z.

>>> CyclotomicNumber.from_exponent_counts(4, [0, 1, 0, 1]).is_zero()   # zeta_4 + zeta_4^3
True
>>> CyclotomicNumber.from_exponent_counts(3, [2, 1, 1]).as_rational()
Fraction(1, 1)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_monic(a, b):
    """Quotient and remainder of integer polynomials (low -> high) by a monic b."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        c = a[shift + db]
        if c:
            q[shift] = c
            for i in range(db + 1):
                a[shift + i] -= c * b[i]
    return _trim(q), _trim(a[:db])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low -> high) of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by the cyclotomic polynomials of the proper
    divisors; all intermediate arithmetic stays in Z.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if m < 1:
        raise ValueError("order must be positive")
    p = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            q, r = _poly_divmod_monic(p, cyclotomic_polynomial(d))
            if r:
                raise AssertionError("cyclotomic division left a remainder")
            p = q
    return tuple(p)


class CyclotomicNumber:
    """An element of Z[zeta_M]: integer coordinates on the power basis."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_exponent_counts(cls, order: int, counts) -> "CyclotomicNumber":
        """sum_e counts[e] * zeta^e from a length-`order` integer vector,
        reduced once modulo the order-th cyclotomic polynomial."""
        a = [int(c) for c in counts]
        if len(a) != order:
            raise ValueError("counts must have length equal to the order")
        phi = cyclotomic_polynomial(order)
        _, r = _poly_divmod_monic(a, phi)
        return cls(order, r + [0] * (len(phi) - 1 - len(r)))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return Fraction(self.coeffs[0])

    def _key(self):
        """Rational values compare by value across orders, others by order
        and coordinates."""
        return self.as_rational() if self.is_rational() else (self.order, self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._key() == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, coeffs={self.coeffs})"
