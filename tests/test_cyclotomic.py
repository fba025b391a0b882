"""The cyclotomic reduction against Ramanujan sums.

The m-th roots of unity zeta^e with gcd(e, m) = g are the primitive
(m/g)-th roots of unity, whose sum is the Moebius value mu(m/g).  So a count
vector that is constant on each such class reduces to the rational
sum_g c_g * mu(m/g), which is computed here without any polynomial division.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from trunca.cyclotomic import CyclotomicNumber


def _moebius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


@st.composite
def _class_constant_counts(draw):
    m = draw(st.integers(1, 400))
    divisors = [g for g in range(1, m + 1) if m % g == 0]
    weights = {g: draw(st.integers(-50, 50)) for g in divisors}
    return m, weights


@given(_class_constant_counts())
def test_reduction_matches_ramanujan_sums(case):
    m, weights = case
    counts = [weights[math.gcd(e, m)] for e in range(m)]
    value = CyclotomicNumber.from_exponent_counts(m, counts)
    assert value.is_rational()
    assert value.as_rational() == sum(c * _moebius(m // g) for g, c in weights.items())
