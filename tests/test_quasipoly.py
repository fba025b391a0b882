"""Lattice sums three ways: enumeration, geometric series, fitted laws.

The rank-one oracle is literal counting: over the lattice d*Z (+ shift) the
sum of [h > 0] - [h > x] is the number of lattice points in (0, x] minus the
number in (x, 0], which a ten-line loop computes with no cone machinery at
all.  Higher-rank checks play the evaluation routes against each other and
against hand-picked structural facts (shifted lattices, sums on walls).
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunca.charfield import factor_prime_power
from trunca.cli import main
from trunca.cyclotomic import CyclotomicNumber
from trunca.errors import ConsistencyError, LatticeError
from trunca.linalg import enumerate_box, mat_inverse, matvec, vadd, vscale
from trunca.parabolic import enumerate_standard
from trunca.quasipoly import (
    LatticeSpec,
    QuasiPolynomial,
    _candidate_frequencies,
    brute_sum,
    fit_quasipolynomial,
    product_eval,
    standard_lattice_spec,
)
from trunca.rootdata import build_root_datum
from trunca.truncation import TruncationContext
from trunca.verify import FIT_COMBOS


def _count_interval(step, shift, x):
    """Sum of [h > 0] - [h > x] over h = step*k + shift, |k| bounded."""
    total = 0
    for k in range(-200, 201):
        h = step * k + shift
        total += int(h > 0) - int(h > x)
    return Fraction(total)


A1 = build_root_datum("A1")


# -- rank one against the counting oracle --------------------------------------


def test_coroot_lattice_sum_matches_counting():
    spec = standard_lattice_spec(A1, ())
    for x in range(-7, 9):
        expect = _count_interval(2, 0, x)
        assert brute_sum(spec, (x,), certify=True) == expect
        assert product_eval(spec, (x,)) == expect


def test_shifted_lattice():
    spec = LatticeSpec(A1, (), [(2,)], base_point=(1,))
    for x in range(-5, 7):
        expect = _count_interval(2, 1, x)
        assert brute_sum(spec, (x,)) == expect
        assert product_eval(spec, (x,)) == expect


def test_index_two_sublattice():
    # 4Z inside the coroot lattice 2Z: the series route must split the sum
    # with a nontrivial character pair.
    spec = LatticeSpec(A1, (), [(4,)])
    for x in range(-6, 10):
        expect = _count_interval(4, 0, x)
        assert brute_sum(spec, (x,)) == expect
        assert product_eval(spec, (x,)) == expect


def test_brute_sum_accepts_off_lattice_parameters():
    spec = standard_lattice_spec(A1, ())
    x = Fraction(7, 2)
    assert brute_sum(spec, (x,)) == _count_interval(2, 0, x)
    with pytest.raises(LatticeError, match="parameter lattice"):
        product_eval(spec, (x,))


# -- higher rank: route against route -------------------------------------------


@pytest.mark.parametrize("kind,subset", [("A2", ()), ("A2", (0,)),
                                         ("B2", ()), ("B2", (1,))])
def test_routes_agree(kind, subset):
    datum = build_root_datum(kind)
    spec = standard_lattice_spec(datum, subset)
    for coords in [(3, 2), (0, 0), (-2, 5), (4, -3)]:
        x = spec.x_point(coords)
        assert product_eval(spec, x) == brute_sum(spec, x, certify=True)


@pytest.mark.parametrize("kind,expect", [("A4", 1), ("B4", 1), ("C4", 0), ("D4", 1)])
def test_rank_four_borel_sums(kind, expect):
    spec = standard_lattice_spec(build_root_datum(kind), ())
    x = spec.x_point((1, 1, 1, 1))
    assert brute_sum(spec, x) == product_eval(spec, x) == expect


def test_scan_does_not_grow_with_the_shear(monkeypatch):
    # G2 Borel at X = (3, -3) on two bases of one lattice: the bounds are
    # read from the vertices' images, not from a box around them (which
    # scanned 209 and 494 points)
    datum = build_root_datum("G2")
    b0, b1 = standard_lattice_spec(datum, ()).basis
    calls = []
    gamma = TruncationContext.gamma

    def counted(self, *args):
        calls.append(args)
        return gamma(self, *args)

    monkeypatch.setattr(TruncationContext, "gamma", counted)
    for basis, scanned in (((b0, b1), 20), ((b0, vadd(vscale(2, b0), b1)), 35)):
        spec = LatticeSpec(datum, (), basis)
        calls.clear()
        assert brute_sum(spec, spec.x_point((3, -3))) == -1
        assert len(calls) == scanned


@pytest.mark.parametrize("kind,subset,coords,expect", [
    ("G2", (), (1, -3), 1),
    ("G2", (), (-2, 2), 1),
    ("G2", (0,), (1, -2), -1),
    ("A3", (0, 1), (-1, -2, 3), 1),
    ("A3", (0, 1), (2, -2, 6), 4),
    ("A3", (1, 2), (2, 6, -2), 4),
])
def test_support_on_walls_is_summed(kind, subset, coords, expect):
    # each of these sums picks up lattice points on walls of gamma's support
    datum = build_root_datum(kind)
    spec = standard_lattice_spec(datum, subset)
    x = spec.x_point(coords)
    assert brute_sum(spec, x) == product_eval(spec, x) == expect


_PROPERTY_DATA = {kind: build_root_datum(kind) for kind in ("A1", "A2", "B2", "G2")}


@st.composite
def _lattice_points(draw):
    """A spec with a scaled or sheared basis and a rational base point, and
    a point of its parameter lattice."""
    datum = _PROPERTY_DATA[draw(st.sampled_from(sorted(_PROPERTY_DATA)))]
    subset = draw(st.sampled_from(enumerate_standard(datum)[:-1]))
    standard = standard_lattice_spec(datum, subset).basis
    rank = len(standard)
    # a triangular integer change of basis with nonzero diagonal
    change = [[draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1))) if i == j
               else draw(st.integers(-2, 2)) if j < i else 0
               for j in range(rank)] for i in range(rank)]
    basis = [tuple(sum((c * b[k] for c, b in zip(row, standard)), Fraction(0))
                   for k in range(datum.dim)) for row in change]
    rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    weights = [draw(rational) for _ in standard]
    base = tuple(sum((w * b[k] for w, b in zip(weights, standard)), Fraction(0))
                 for k in range(datum.dim))
    spec = LatticeSpec(datum, subset, basis, base_point=base)
    coords = tuple(draw(st.integers(-3, 3)) for _ in range(datum.dim))
    return spec, spec.x_point(coords)


@settings(max_examples=200)
@given(_lattice_points())
def test_series_route_matches_enumeration(case):
    spec, x = case
    assert product_eval(spec, x) == brute_sum(spec, x, certify=True)


def test_series_route_uses_no_cyclotomic_arithmetic(monkeypatch):
    spec = standard_lattice_spec(build_root_datum("A2"), ())
    x = spec.x_point((3, -2))
    want = brute_sum(spec, x)

    def refuse(*args, **kwargs):
        raise AssertionError("cyclotomic reduction in the series route")

    monkeypatch.setattr(CyclotomicNumber, "from_exponent_counts", refuse)
    assert product_eval(spec, x) == want


def _in_lattice(cone, point):
    """Is ``point`` an integer combination of the cone's lattice generators?"""
    columns = tuple(zip(*cone.generators))
    return all(c.denominator == 1 for c in matvec(mat_inverse(columns), point))


@pytest.mark.parametrize("spec", [
    LatticeSpec(A1, (), [(4,)]),
    standard_lattice_spec(build_root_datum("A2"), ()),
], ids=["A1-on-4Z", "A2-Borel"])
def test_parallelepipeds_hold_the_box_points(spec):
    indices = []
    for cone, residues in zip(spec._cones, spec._parallelepipeds, strict=True):
        multiples = cone.multiples
        for j, m in enumerate(multiples):
            ray = [0] * len(multiples)
            for step in range(1, m + 1):
                ray[j] = step
                assert _in_lattice(cone, ray) == (step == m)
        box = [p for p in enumerate_box([0] * len(multiples), [m - 1 for m in multiples])
               if _in_lattice(cone, p)]
        assert sorted(box) == sorted(residues)
        assert len(residues) * cone.index == math.prod(multiples)
        indices.append(cone.index)
    assert max(indices) > 1


def test_zero_parameter_sums_to_zero():
    for kind, subset in [("A1", ()), ("A2", ()), ("B2", (0,))]:
        datum = build_root_datum(kind)
        spec = standard_lattice_spec(datum, subset)
        zero = (0,) * datum.dim
        assert brute_sum(spec, zero) == 0
        assert product_eval(spec, zero) == 0


def test_full_subset_is_a_point_evaluation():
    datum = build_root_datum("A2")
    spec = standard_lattice_spec(datum, (0, 1))
    # rank zero: the sum is gamma at the base point, which is constant 1
    assert brute_sum(spec, (5, 5)) == 1
    assert product_eval(spec, spec.x_point((5, 5))) == 1


# -- input validation -------------------------------------------------------------


def test_prime_power_gate(capsys):
    # product_eval takes no q; the gate lives on the qpsum command's --q,
    # which must be a prime power and does not change the result
    argv = ["qpsum", "--type", "A1", "--P", "", "--X", "4", "--q"]
    for bad in (1, 6, 12):
        assert factor_prime_power(bad) is None
        assert main(argv + [str(bad)]) == 2
        assert "prime power" in capsys.readouterr().err
    outputs = set()
    for q in (2, 3, 4, 5, 8, 9):
        p, e = factor_prime_power(q)
        assert p ** e == q
        assert main(argv + [str(q)]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_basis_validation():
    d = build_root_datum("A2")
    with pytest.raises(LatticeError, match="basis vectors"):
        LatticeSpec(d, (), [(2, -1)])
    with pytest.raises(LatticeError, match="dimension"):
        LatticeSpec(d, (), [(2,), (0, 2, 0)])
    with pytest.raises(LatticeError, match="not in the semisimple part"):
        LatticeSpec(d, (0,), [(1, 1)])   # must vanish on the subset slot
    with pytest.raises(LatticeError, match="full rank"):
        LatticeSpec(d, (), [(2, -1), (4, -2)])
    with pytest.raises(LatticeError, match="coordinate subspace"):
        LatticeSpec(d, (0,), [(0, 1)], base_point=(1, 0))


# -- fitted laws --------------------------------------------------------------------


def test_fit_recovers_quarter_period_law():
    spec = LatticeSpec(A1, (), [(4,)])
    samples = [((x,), brute_sum(spec, (x,))) for x in range(-4, 14)]
    law = fit_quasipolynomial(spec, samples)
    assert set(law.frequencies) == {
        (Fraction(0),), (Fraction(1, 4),), (Fraction(1, 2),), (Fraction(3, 4),)}
    for x in (17, 30, -11, 101):
        assert law.evaluate_rational((x,)) == _count_interval(4, 0, x)


def test_fit_two_dimensional_prediction():
    datum = build_root_datum("A2")
    spec = standard_lattice_spec(datum, (0,))
    grid = itertools.product(range(6), repeat=2)
    samples = [(c, brute_sum(spec, spec.x_point(c))) for c in grid]
    law = fit_quasipolynomial(spec, samples)
    for coords in [(7, 9), (10, 3), (8, 8)]:
        assert law.evaluate_rational(coords) == brute_sum(spec, spec.x_point(coords))


# The frequencies of each suite law.  Their denominators set the step of the
# far points the benchmark checks a law at, so they are pinned exactly.
_SUITE_FREQUENCIES = {
    ("A1", ()): {(0,), (Fraction(1, 2),)},
    ("A2", (0,)): {(0, 0), (Fraction(1, 3), Fraction(2, 3)),
                   (Fraction(2, 3), Fraction(1, 3))},
    ("A2", (1,)): {(0, 0), (Fraction(1, 3), Fraction(2, 3)),
                   (Fraction(2, 3), Fraction(1, 3))},
    ("B2", ()): {(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2))},
    ("B2", (0,)): {(0, 0), (Fraction(1, 2), 0)},
    ("B2", (1,)): {(0, 0)},
}


def test_suite_laws_keep_their_frequencies():
    assert set(_SUITE_FREQUENCIES) == set(FIT_COMBOS)
    for (kind, subset), want in _SUITE_FREQUENCIES.items():
        spec = standard_lattice_spec(build_root_datum(kind), subset)
        law = fit_quasipolynomial(spec, [])
        assert list(law.frequencies) == sorted(want), (kind, subset)


@pytest.mark.parametrize("kind,subset,planted", [
    ("B2", (), (0, Fraction(1, 2))),
    ("A2", (0,), (0, Fraction(1, 3))),
], ids=["B2-Borel", "A2-subset0"])
def test_fit_rejects_a_planted_outside_frequency(kind, subset, planted):
    # brute_sum plus the indicator of <planted, coords> in Z: the indicator
    # has amplitude at the planted frequency, which no cone admits
    spec = standard_lattice_spec(build_root_datum(kind), subset)

    def evaluator(coords):
        pairing = sum(f * c for f, c in zip(planted, coords))
        return brute_sum(spec, spec.x_point(coords)) + (pairing.denominator == 1)

    with pytest.raises(ConsistencyError, match="outside the candidate set"):
        fit_quasipolynomial(spec, [], evaluator)


def test_fit_rejects_corrupted_samples():
    spec = standard_lattice_spec(A1, ())
    samples = [((x,), brute_sum(spec, (x,))) for x in range(12)]
    samples[7] = (samples[7][0], samples[7][1] + 1)
    with pytest.raises(ConsistencyError):
        fit_quasipolynomial(spec, samples)


def test_fit_rejects_conflicting_duplicates():
    spec = standard_lattice_spec(A1, ())
    samples = [((3,), Fraction(1)), ((3,), Fraction(2))]
    with pytest.raises(ConsistencyError, match="conflicting"):
        fit_quasipolynomial(spec, samples)


def test_fit_checks_the_box_beyond_the_principal_lattice():
    # A2 with subset (0,) has rank 1 and periods (3, 3).  On the class (0, 0)
    # the fit interpolates at g = (0, 0), (0, 1), (1, 0); the box point
    # g = (1, 1), at coordinates (3, 3), only checks the law.
    spec = standard_lattice_spec(build_root_datum("A2"), (0,))

    def evaluator(coords):
        return brute_sum(spec, spec.x_point(coords)) + (coords == (3, 3))

    with pytest.raises(ConsistencyError, match="break the degree-1 law"):
        fit_quasipolynomial(spec, [], evaluator)


def test_non_integer_coordinates_are_refused():
    spec = standard_lattice_spec(A1, ())
    law = fit_quasipolynomial(spec, [])
    # the law holds on the integers only: -1/2 truncated to 0 would read 0,
    # where the sum is -1
    assert brute_sum(spec, (Fraction(-1, 2),)) == -1
    assert law.evaluate_rational((0,)) == 0
    for bad in (Fraction(-1, 2), Fraction(1, 2), 3.9, 3.0):
        with pytest.raises(LatticeError, match="parameter lattice"):
            law.evaluate_rational((bad,))
        with pytest.raises(LatticeError, match="parameter lattice"):
            fit_quasipolynomial(spec, [((bad,), 0)])
    with pytest.raises(LatticeError, match="parameter lattice"):
        spec.x_coords((Fraction(1, 2),))


def _planting(spec):
    candidates, moduli = _candidate_frequencies(spec)
    monomials = sorted(m for m in itertools.product(range(spec.rank + 1), repeat=len(moduli))
                       if sum(m) <= spec.rank)
    return spec, moduli, tuple(monomials), len(candidates) == math.prod(moduli)


# Where the candidate frequencies are the whole class group (A1 on 4Z, B2
# with subset (0,)) every class gets its own polynomial; elsewhere (A2 Borel,
# rank two) one polynomial serves all classes, so zero is its only frequency.
_PLANTINGS = [
    _planting(LatticeSpec(A1, (), [(4,)])),
    _planting(standard_lattice_spec(build_root_datum("B2"), (0,))),
    _planting(standard_lattice_spec(build_root_datum("A2"), ())),
]


@st.composite
def _planted_laws(draw):
    spec, moduli, monomials, every_class = draw(st.sampled_from(_PLANTINGS))
    rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    polynomial = st.tuples(*[rational] * len(monomials))
    classes = math.prod(moduli)
    if every_class:
        planted = tuple(draw(polynomial) for _ in range(classes))
    else:
        planted = (draw(polynomial),) * classes
    extra = draw(st.lists(st.tuples(*[st.integers(-20, 20)] * len(moduli)), max_size=4))
    return spec, QuasiPolynomial(moduli, monomials, planted, ()), extra


@settings(max_examples=60)
@given(_planted_laws())
def test_fit_returns_the_planted_law(case):
    spec, planted, extra = case
    law = fit_quasipolynomial(spec, [(c, planted.evaluate_rational(c)) for c in extra],
                              planted.evaluate_rational)
    assert (law.moduli, law.monomials) == (planted.moduli, planted.monomials)
    assert law.coefficients == planted.coefficients
