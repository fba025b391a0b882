"""Character sums over norm-one tori, their additive shadows, and the filter.

Small cases are fully enumerable, so the oracles here are literal: orbit
sums evaluated as root-of-unity counting loops written out below, torus
bookkeeping recomputed from scratch (m = (q^l - 1)/(q - 1), centre order
gcd(l, q - 1)), finite-field arithmetic as schoolbook polynomial products
reduced by the field's modulus, and the rank-one filter compared against
the two-sided exponent exclusion it is supposed to implement.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunca.charfield import (
    FiniteField,
    LieTorusModel,
    assemble_J,
    build_torus,
    central_character_ok,
    char_sum_regular,
    contragredient_test,
    cuspidal_filter_check,
    factor_prime_power,
    general_position,
    lie_char_sum,
    regular_pair,
)

SWEEP = ((3, 2), (5, 2), (2, 3), (4, 3), (2, 5))

# (q, l) -> (m, z, general-position characters, central-ok pairs, contragredient pairs)
BOOKKEEPING = {
    (3, 2): (4, 2, 2, 4, 4),
    (5, 2): (6, 2, 4, 8, 8),
    (2, 3): (7, 1, 6, 36, 18),
    (4, 3): (21, 3, 18, 108, 54),
    (2, 5): (31, 1, 30, 900, 150),
}


def _gp_exponents(t):
    return [k for k in range(t.m) if general_position(t.character(k))]


# -- torus bookkeeping -----------------------------------------------------------


@pytest.mark.parametrize("q,l", SWEEP)
def test_torus_invariants(q, l):
    t = build_torus(q, l)
    m, z, n_gp, n_central, n_contra = BOOKKEEPING[(q, l)]
    assert (t.m, t.z) == (m, z)
    assert t.m == (q**l - 1) // (q - 1)
    assert t.z == math.gcd(l, q - 1)
    gp = _gp_exponents(t)
    assert len(gp) == n_gp
    pairs = [(t.character(a), t.character(b)) for a in gp for b in gp]
    central = [p for p in pairs if central_character_ok(*p)]
    contra = [p for p in pairs if contragredient_test(*p)]
    assert len(central) == n_central
    assert len(contra) == n_contra
    # the contragredient condition forces central compatibility
    assert all(central_character_ok(*p) for p in contra)


def test_build_torus_validation():
    with pytest.raises(ValueError, match="prime power"):
        build_torus(6, 2)
    with pytest.raises(ValueError, match="must be prime"):
        build_torus(3, 4)
    with pytest.raises(ValueError, match="residue characteristic"):
        build_torus(4, 2)


def test_general_position_is_frobenius_freeness():
    t = build_torus(2, 3)
    # k = 0 is fixed by everything; 7 | 2^3 - 1 makes every nonzero k free
    assert not general_position(t.character(0))
    assert all(general_position(t.character(k)) for k in range(1, 7))
    t = build_torus(4, 3)
    # 4^1 - 1 = 3 kills multiples of 7 = 21/3
    assert not general_position(t.character(7))
    assert general_position(t.character(1))


# -- multiplicative character sums -------------------------------------------------


def _orbit_sum_oracle(t, k_lambda, k_mu):
    """Count exponents of zeta_m over noncentral s, reduce by hand.

    The total is sum over s of zeta^((q^i k_lambda + q^j k_mu) s); it is an
    integer exactly when the counts are constant on each class of primitive
    exponents, which the cyclotomic layer asserts -- here we only need the
    rational reduction for prime-power m up to 31, done via the full
    minimal-polynomial-free route: evaluate numerically to high precision
    and round (the values are provably integers).
    """
    import cmath
    central = {(t.m // t.z) * i for i in range(t.z)}
    total = 0 + 0j
    for s in range(t.m):
        if s in central:
            continue
        a = sum(cmath.exp(2j * cmath.pi * (t.q**i * k_lambda * s % t.m) / t.m)
                for i in range(1, t.l + 1))
        b = sum(cmath.exp(2j * cmath.pi * (t.q**j * k_mu * s % t.m) / t.m)
                for j in range(1, t.l + 1))
        total += a * b
    assert abs(total.imag) < 1e-6
    return round(total.real)


@pytest.mark.parametrize("q,l", [(3, 2), (5, 2), (2, 3)])
def test_char_sum_against_numeric_oracle(q, l):
    t = build_torus(q, l)
    gp = _gp_exponents(t)
    for ka, kb in itertools.product(gp, repeat=2):
        got = char_sum_regular(t.character(ka), t.character(kb))
        assert got == _orbit_sum_oracle(t, ka, kb)


@pytest.mark.parametrize("q,l", SWEEP)
def test_char_sum_closed_forms(q, l):
    t = build_torus(q, l)
    gp = _gp_exponents(t)
    for ka, kb in itertools.product(gp, repeat=2):
        pair = (t.character(ka), t.character(kb))
        got = char_sum_regular(*pair)
        if contragredient_test(*pair):
            assert got == l * t.m - t.z * l * l
        elif central_character_ok(*pair):
            assert got == -t.z * l * l
        else:
            assert got == 0


def test_char_sum_requires_general_position():
    t = build_torus(2, 3)
    with pytest.raises(ValueError, match="general position"):
        char_sum_regular(t.character(0), t.character(1))
    with pytest.raises(ValueError, match="different tori"):
        char_sum_regular(t.character(1), build_torus(3, 2).character(1))


@pytest.mark.parametrize("q,l", [(3, 2), (5, 2), (2, 3), (4, 3)])
def test_assembly_is_the_contragredient_indicator(q, l):
    t = build_torus(q, l)
    gp = _gp_exponents(t)
    for ka, kb in itertools.product(gp, repeat=2):
        pair = (t.character(ka), t.character(kb))
        want = Fraction(1 if contragredient_test(*pair) else 0)
        assert assemble_J(*pair, char_sum_regular(*pair)) == want


def test_slltrace_suite_sums_each_pair_once(monkeypatch):
    from trunca import charfield, verify

    calls = []

    def counting(theta_lambda, theta_mu):
        calls.append((theta_lambda.exponent, theta_mu.exponent))
        return char_sum_regular(theta_lambda, theta_mu)

    # both names: the suite's own call and any call made inside charfield
    monkeypatch.setattr(verify, "char_sum_regular", counting)
    monkeypatch.setattr(charfield, "char_sum_regular", counting)
    records = verify.suite_slltrace()
    pairs = sum(int(r.expected.split()[0]) for r in records
                if r.case.endswith("/closed-forms"))
    assert all(r.ok for r in records)
    assert len(calls) == pairs == 1056


# -- the additive side ----------------------------------------------------------------


def _poly_mul(f, a, b):
    """Schoolbook product in f, reduced by f.modulus, every coefficient mod p."""
    e = f.e
    raw = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += x * y
    # x^e = -(c_0 + c_1 x + ... + c_{e-1} x^(e-1)), folded from the top down
    for k in range(2 * e - 2, e - 1, -1):
        for j, c in enumerate(f.modulus):
            raw[k - e + j] -= raw[k] * c
    return tuple(c % f.p for c in raw[:e])


def _poly_pow(f, a, n):
    out = f.one
    for _ in range(n):
        out = _poly_mul(f, out, a)
    return out


def _poly_trace(f, a):
    """a + a^p + ... + a^(p^(e-1)), which must land in the prime field."""
    total, term = [0] * f.e, a
    for _ in range(f.e):
        total = [(s + t) % f.p for s, t in zip(total, term)]
        term = _poly_pow(f, term, f.p)
    assert not any(total[1:])
    return total[0]


def _poly_orbit(model, x):
    out = [tuple(x)]
    for _ in range(model.l - 1):
        out.append(_poly_pow(model.field, out[-1], model.q))
    return out


def _additive_sum_oracle(model, x, y):
    """Direct count of trace exponents in schoolbook arithmetic; rational
    reduction by hand.

    Over the prime field the value is c_0 - c_1 once all nonzero trace
    classes carry equal counts (true whenever the total is an integer).
    """
    f = model.field
    sums = [tuple((u + v) % f.p for u, v in zip(a, b))
            for a in _poly_orbit(model, x) for b in _poly_orbit(model, y)]
    counts = [0] * model.p
    for s in f.elements():
        if not any(s):
            continue
        for c in sums:
            counts[_poly_trace(f, _poly_mul(f, c, s))] += 1
    assert len(set(counts[1:])) == 1
    return counts[0] - counts[1]


SMALL_FIELDS = [(p, e) for p in range(2, 65) for e in range(1, 7)
                if p ** e <= 64 and all(p % d for d in range(2, p))]


def _table_mul(f, a, b):
    """a * b read off ``f.tables()``: one addition of logarithms."""
    antilog, log, _ = f.tables()
    i, j = f.index(a), f.index(b)
    if not i or not j:
        return f.zero
    return f.coeffs(antilog[(log[i] + log[j]) % (f.order - 1)])


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_tables_match_schoolbook_arithmetic(p, e):
    f = FiniteField(p, e)
    elements = list(f.elements())
    assert [f.index(a) for a in elements] == list(range(f.order))
    antilog, log, trace = f.tables()
    assert sorted(antilog) == list(range(1, f.order)) and log[0] is None
    assert all(log[i] == k for k, i in enumerate(antilog))
    for a in elements:
        assert f.neg(a) == tuple((-c) % p for c in a)
        assert trace[f.index(a)] == _poly_trace(f, a)
        for b in elements:
            assert _table_mul(f, a, b) == _poly_mul(f, a, b)


def test_products_are_reduced_mod_p():
    k = FiniteField(7, 3)
    assert _table_mul(k, (2, 0, 0), (4, 0, 0)) == (1, 0, 0)
    k32 = FiniteField(2, 5)
    assert all(c < 2 for a in k32.elements() for b in k32.elements()
               for c in _table_mul(k32, a, b))
    # elements of the prime field are fixed by Frobenius, so never regular
    m9 = LieTorusModel(3, 2)
    assert m9.orbit((2, 0)) == ((2, 0), (2, 0))
    assert not m9.regular_character((2, 0))
    m25 = LieTorusModel(5, 2)
    for c in (2, 3, 4):
        assert not m25.regular_character((c, 0))
        with pytest.raises(ValueError, match="not regular"):
            lie_char_sum(m25, (c, 0), (0, 1))


def test_finite_field_arithmetic():
    k = FiniteField(2, 2)   # modulus x^2 + x + 1
    r = (0, 1)
    assert _table_mul(k, r, r) == (1, 1)
    assert k.tables()[2][k.index(r)] == 1
    k9 = FiniteField(3, 2)  # modulus x^2 + 1
    assert _table_mul(k9, (0, 1), (0, 1)) == (2, 0)
    assert k9.tables()[2][k9.index((0, 1))] == 0
    assert k9.neg((1, 2)) == (2, 1)
    assert len(list(k9.elements())) == 9
    with pytest.raises(ValueError, match="coefficient count"):
        k9.element((1, 2, 0))
    with pytest.raises(ValueError, match="not prime"):
        FiniteField(4, 1)


def test_lie_model_orbits():
    m = LieTorusModel(2, 3)
    assert m.field.order == 8
    r = (0, 1, 0)
    assert set(m.orbit(r)) == {(0, 1, 0), (0, 0, 1), (1, 1, 1)}
    assert m.regular_character(r)
    assert not m.regular_character((1, 0, 0))   # fixed by Frobenius


@pytest.mark.parametrize("q,l", SWEEP)
def test_additive_sum_and_orbital_constant(q, l):
    model = LieTorusModel(q, l)
    x, y = regular_pair(model)
    total, orbital = lie_char_sum(model, x, y)
    assert total == _additive_sum_oracle(model, x, y)
    assert total == -l * l
    assert orbital == Fraction(l * (q - 1), q**l - 1)


@functools.cache
def _regular_orbits(q, l):
    """The model and the schoolbook orbit of each of its regular elements."""
    model = LieTorusModel(q, l)
    orbits = {x: _poly_orbit(model, x) for x in model.field.elements()}
    return model, {x: o for x, o in orbits.items() if len(set(o)) == l}


@settings(max_examples=60)
@given(st.data())
def test_lie_char_sum_on_admissible_pairs(data):
    q, l = data.draw(st.sampled_from(SWEEP + ((3, 5),)))
    model, regular = _regular_orbits(q, l)
    f = model.field
    x = data.draw(st.sampled_from(sorted(regular)))
    # admissible: no orbit sum a + b is zero, that is no b equals some -a
    negated = {f.neg(a) for a in regular[x]}
    y = data.draw(st.sampled_from(
        [y for y in sorted(regular) if negated.isdisjoint(regular[y])]))
    assert model.orbit(x) == tuple(regular[x])
    total, orbital = lie_char_sum(model, x, y)
    assert total == -l * l
    assert orbital == Fraction(l * (q - 1), q**l - 1)
    if f.order <= 64:
        assert total == _additive_sum_oracle(model, x, y)


def test_regular_pair_frozen_values():
    assert regular_pair(LieTorusModel(3, 2)) == ((0, 1), (1, 1))
    assert regular_pair(LieTorusModel(2, 3)) == ((0, 0, 1), (0, 1, 1))
    # for q = 5 the first regular element pairs with itself: -x is not in
    # the Frobenius orbit of x there
    x, y = regular_pair(LieTorusModel(5, 2))
    assert x == y == (0, 1)


def test_additive_preconditions():
    model = LieTorusModel(2, 3)
    with pytest.raises(ValueError, match="not regular"):
        lie_char_sum(model, (1, 0, 0), (0, 1, 0))
    # in characteristic 2 any element plus itself is zero
    with pytest.raises(ValueError, match="trivial"):
        lie_char_sum(model, (0, 1, 0), (0, 1, 0))
    m9 = LieTorusModel(3, 2)
    # r^2 = -1 makes the orbit of r equal to {r, -r}
    with pytest.raises(ValueError, match="trivial"):
        lie_char_sum(m9, (0, 1), (0, 1))


# -- the split-torus filter --------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
def test_filter_matches_exponent_exclusion(q):
    d = q - 1
    for ea, eb in itertools.product(itertools.product(range(d), repeat=2), repeat=2):
        ka = (ea[0] - ea[1]) % d
        kb = (eb[0] - eb[1]) % d
        want = kb != ka and kb != (-ka) % d
        assert cuspidal_filter_check(2, q, ea, eb) == want


def test_filter_input_validation():
    with pytest.raises(ValueError, match="rank at least one"):
        cuspidal_filter_check(1, 5, (1,), (2,))
    with pytest.raises(ValueError, match="prime power"):
        cuspidal_filter_check(2, 6, (1, 0), (2, 0))
    with pytest.raises(ValueError, match="exponents"):
        cuspidal_filter_check(3, 5, (1, 0), (2, 0, 0))


def test_prime_power_factoring():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(6) is None
    assert factor_prime_power(1) is None
