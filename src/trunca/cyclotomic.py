"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(M)-1) modulo
the M-th cyclotomic polynomial, with Fraction coordinates.  That makes
equality, rationality and integrality tests trivial, which is what the rest
of the package needs: character sums and fitted quasi-polynomial laws must
end up provably rational, not float-close to rational.

The field orders that actually occur here are small (M up to a few dozen),
so the polynomial arithmetic is plain dense schoolbook.

>>> z = CyclotomicNumber.root_of_unity(4, 1)
>>> (z * z).as_rational()
Fraction(-1, 1)
>>> sum_of = z + z.conj_power(3)   # zeta_4 + zeta_4^3
>>> sum_of.is_zero()
True
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# --- dense polynomial helpers (coefficients low -> high) -------------------


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_divmod_monic(a, b):
    """divmod by a monic polynomial; exact for int or Fraction coefficients."""
    a = list(a)
    db = len(b) - 1
    if db < 0 or b[-1] != 1:
        raise ValueError("divisor must be monic")
    q = [0] * max(0, len(a) - db)
    while len(_trim(a)) - 1 >= db:
        a = _trim(a)
        shift = len(a) - 1 - db
        c = a[-1]
        q[shift] = c
        for i in range(db + 1):
            a[shift + i] -= c * b[i]
    return _trim(q), _trim(a)


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
            q, r = _poly_divmod_monic(p, list(cyclotomic_polynomial(d)))
            if r:
                raise AssertionError("cyclotomic division left a remainder")
            p = q
    return tuple(p)


class CyclotomicNumber:
    """An element of Q(zeta_M) in the power basis mod the cyclotomic polynomial."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = len(cyclotomic_polynomial(order)) - 1
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > phi:
            _, coeffs = _poly_divmod_monic(
                coeffs, [Fraction(c) for c in cyclotomic_polynomial(order)])
        coeffs = coeffs + [Fraction(0)] * (phi - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs[:phi])

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls(order, [])

    @classmethod
    def from_rational(cls, order: int, r) -> "CyclotomicNumber":
        return cls(order, [Fraction(r)])

    @classmethod
    def root_of_unity(cls, order: int, k: int) -> "CyclotomicNumber":
        """zeta_order ** k."""
        k %= order
        return cls(order, [0] * k + [1])

    @classmethod
    def from_exponent_counts(cls, order: int, counts) -> "CyclotomicNumber":
        """sum_e counts[e] * zeta^e from a length-`order` integer vector.

        This is the workhorse for character sums: accumulate exponents as
        machine-int counts, reduce once at the end.
        """
        a = [int(c) for c in counts]
        if len(a) != order:
            raise ValueError("counts must have length equal to the order")
        q, r = _poly_divmod_monic(a, list(cyclotomic_polynomial(order)))
        del q
        return cls(order, r)

    # -- structure -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order == self.order:
                return self, other
            m = math.lcm(self.order, other.order)
            return self.promote(m), other.promote(m)
        return self, CyclotomicNumber.from_rational(self.order, other)

    def promote(self, new_order: int) -> "CyclotomicNumber":
        """Image under Q(zeta_M) -> Q(zeta_N), zeta_M -> zeta_N^(N/M)."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ValueError("new order must be a multiple of the old one")
        step = new_order // self.order
        out = [Fraction(0)] * (len(self.coeffs) * step - step + 1 or 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] += c
        return CyclotomicNumber(new_order, out)

    def conj_power(self, k: int) -> "CyclotomicNumber":
        """Apply the Galois-type substitution zeta -> zeta^k (k coprime to M
        gives a field automorphism; other k give the evaluation map)."""
        out = [Fraction(0)] * self.order
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i * k) % self.order] += c
        return CyclotomicNumber.from_exponent_counts_rational(self.order, out)

    @classmethod
    def from_exponent_counts_rational(cls, order, counts):
        q, r = _poly_divmod_monic(
            [Fraction(c) for c in counts],
            [Fraction(c) for c in cyclotomic_polynomial(order)])
        del q
        return cls(order, r)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._coerce(other)
        return CyclotomicNumber(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        a, b = self._coerce(other)
        return CyclotomicNumber(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.order, [other * x for x in self.coeffs])
        a, b = self._coerce(other)
        prod = _poly_mul(list(a.coeffs), list(b.coeffs))
        return CyclotomicNumber(a.order, prod)

    __rmul__ = __mul__

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._coerce(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, coeffs={self.coeffs})"
