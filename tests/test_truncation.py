"""Cone indicators, the inversion identity, and the compactly supported
alternating sum.

Rank-one and corank-one cases have closed forms that a few lines of
arithmetic reproduce; those are the oracles.  Everything higher-rank is
checked through structural identities (delta at P = Q, vanishing at x = 0,
factorisation over products) rather than against the implementation itself.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunca.errors import WallError
from trunca.linalg import dot, matvec, vadd, vecmat, vscale
from trunca.parabolic import enumerate_standard, projector_to_aP, relative_weight
from trunca.quasipoly import brute_sum, standard_lattice_spec
from trunca.rootdata import build_root_datum
from trunca.truncation import TruncationContext
from trunca.verify import INVERSION_TYPES


def _context(kind):
    return TruncationContext(build_root_datum(kind))


def _rational_points(dim, count, seed):
    """Deterministic off-grid sample; denominator 7 keeps every functional
    with small integer numerators away from zero."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        pts.append(tuple(
            Fraction(rng.randint(-30, 30)) + Fraction(rng.randint(1, 6), 7)
            for _ in range(dim)))
    return pts


# -- cone indicators ---------------------------------------------------------


def _tau(ctx, p, q, h):
    """Acute cone of (P, Q): every relative simple root strictly positive."""
    return all(dot(cov, h) > 0 for cov in ctx.walls(p, q)[0])


def _tau_hat(ctx, p, q, h):
    """Obtuse cone of (P, Q): every relative fundamental weight strictly
    positive."""
    return all(dot(cov, h) > 0 for cov in ctx.walls(p, q)[1])


def test_tau_hand_points_a2():
    ctx = _context("A2")
    full = (0, 1)
    # coweight coordinates: <alpha_i, h> = h_i
    assert _tau(ctx, (), full, (Fraction(1), Fraction(2)))
    assert not _tau(ctx, (), full, (Fraction(-1), Fraction(2)))
    assert not _tau(ctx, (), full, (Fraction(0), Fraction(2)))  # wall: strict
    # obtuse cone: pairings against (1/3, 2/3)-type weight rows
    assert _tau_hat(ctx, (), full, (Fraction(2), Fraction(-1) + Fraction(1, 2)))
    assert not _tau_hat(ctx, (), full, (Fraction(2), Fraction(-2)))


def test_acute_cone_inside_obtuse_cone():
    # relative fundamental weights are positive combinations of relative
    # simple roots (inverse Cartan matrices of finite type are positive),
    # so tau(h) must imply tau_hat(h) for the same pair.
    for kind in ("A2", "B2", "G2", "A3"):
        ctx = _context(kind)
        n = ctx.datum.rank_ss
        subsets = [tuple(s) for size in range(n + 1)
                   for s in itertools.combinations(range(n), size)]
        pts = _rational_points(ctx.datum.dim, 40, f"cones:{kind}")
        for p, q in itertools.product(subsets, repeat=2):
            if not set(p) <= set(q):
                continue
            for h in pts:
                if _tau(ctx, p, q, h):
                    assert _tau_hat(ctx, p, q, h)


# -- inversion identity -------------------------------------------------------


@pytest.mark.parametrize("kind", ["A1", "A2", "B2"])
def test_inversion_identity(kind):
    ctx = _context(kind)
    n = ctx.datum.rank_ss
    subsets = [tuple(s) for size in range(n + 1)
               for s in itertools.combinations(range(n), size)]
    pts = _rational_points(ctx.datum.dim, 60, f"inv:{kind}")
    for p, q in itertools.product(subsets, repeat=2):
        if not set(p) <= set(q):
            continue
        for h in pts:
            try:
                assert ctx.langlands_inversion_check(p, q, h)
            except WallError:
                continue


def test_inversion_wall_errors():
    ctx = _context("A2")
    # first coordinate zero lies on the relative-root wall of index 0
    with pytest.raises(WallError, match="^h lies on the wall of relative root 0$"):
        ctx.langlands_inversion_check((), (0, 1), (Fraction(0), Fraction(3)))
    # (1, -2) kills the weight row (2/3, 1/3)
    with pytest.raises(WallError, match="^h lies on the wall of relative weight 0$"):
        ctx.langlands_inversion_check((), (0, 1), (Fraction(1), Fraction(-2)))
    # (3, -3/2) kills no root, and of the weights only (1/3, 2/3), index 1
    with pytest.raises(WallError, match="^h lies on the wall of relative weight 1$"):
        ctx.langlands_inversion_check((), (0, 1), (Fraction(3), Fraction(-3, 2)))


def test_inversion_containment_required():
    ctx = _context("A2")
    with pytest.raises(ValueError):
        ctx.langlands_inversion_check((0,), (1,), (Fraction(1), Fraction(1)))


# -- the compactly supported sum ----------------------------------------------


def _gamma_a1(h, x):
    """Rank one in coweight coordinates: [h > 0] - [h > x]."""
    return int(h > 0) - int(h > x)


def test_gamma_rank_one_closed_form():
    ctx = _context("A1")
    grid = [Fraction(t, 2) for t in range(-11, 12)]
    for x in (Fraction(-3), Fraction(0), Fraction(2), Fraction(7, 2)):
        for h in grid:
            assert ctx.gamma((), (h,), (x,)) == _gamma_a1(h, x)


def test_gamma_factors_over_products():
    ctx = _context("A1xA1")
    grid = [Fraction(t, 2) for t in range(-7, 8)]
    x = (Fraction(3), Fraction(-2))
    for h0, h1 in itertools.product(grid, repeat=2):
        expect = _gamma_a1(h0, x[0]) * _gamma_a1(h1, x[1])
        assert ctx.gamma((), (h0, h1), x) == expect


def test_gamma_corank_one_closed_form():
    # A2 at P = {0}: only P and G contribute, and the projection of h onto
    # a_P is (0, h0/2 + h1).  Both functionals are written out by hand.
    ctx = _context("A2")
    x = (Fraction(1), Fraction(5, 2))
    grid = [Fraction(t, 3) for t in range(-9, 10)]
    for h0, h1 in itertools.product(grid, repeat=2):
        s = h0 / 2 + h1                     # <alpha_1 o proj, h>
        hp = (Fraction(0), s)
        t = (hp[0] - x[0]) / 3 + 2 * (hp[1] - x[1]) / 3   # weight row (1/3, 2/3)
        assert ctx.gamma((0,), (h0, h1), x) == int(s > 0) - int(t > 0)


def test_gamma_full_parabolic_is_one():
    for kind in ("A1", "A2", "B2"):
        ctx = _context(kind)
        full = tuple(range(ctx.datum.rank_ss))
        for h in _rational_points(ctx.datum.dim, 10, f"one:{kind}"):
            assert ctx.gamma(full, h, (Fraction(0),) * ctx.datum.dim) == 1
        # no wall is paired here, so the dimensions are checked on their own
        with pytest.raises(ValueError, match="dimension"):
            ctx.gamma(full, h, (Fraction(0),) * (ctx.datum.dim + 1))
        with pytest.raises(ValueError, match="dimension"):
            ctx.gamma(full, h[1:], (Fraction(0),) * ctx.datum.dim)


def test_gamma_vanishes_at_zero_x():
    for kind in ("A1", "A2", "B2", "G2"):
        ctx = _context(kind)
        n = ctx.datum.rank_ss
        zero = (Fraction(0),) * ctx.datum.dim
        subsets = [tuple(s) for size in range(n)   # proper only
                   for s in itertools.combinations(range(n), size)]
        for p in subsets:
            for h in _rational_points(ctx.datum.dim, 25, f"zero:{kind}:{p}"):
                assert ctx.gamma(p, h, zero) == 0


# -- support bracketing --------------------------------------------------------


def test_support_box_contains_every_support_point():
    ctx = _context("A2")
    x = (Fraction(3), Fraction(2))
    box = ctx.gamma_support_box((), x)
    assert not box.trivial
    grid = [Fraction(t, 2) for t in range(-10, 16)]
    seen_nonzero = 0
    for h in itertools.product(grid, repeat=2):
        if ctx.gamma((), h, x) != 0:
            seen_nonzero += 1
            assert box.contains(h)
    assert seen_nonzero > 0


def test_support_box_negative_direction():
    ctx = _context("A1")
    box = ctx.gamma_support_box((), (Fraction(-5),))
    ((_, cov, lo, hi),) = box.entries
    assert lo <= Fraction(-5) and hi >= Fraction(0)
    for t in range(-14, 6):
        h = (Fraction(t, 2),)
        if ctx.gamma((), h, (Fraction(-5),)) != 0:
            assert lo <= dot(cov, h) <= hi


def test_support_box_degenerate_flags():
    ctx = _context("A2")
    zero = (Fraction(0), Fraction(0))
    assert ctx.gamma_support_box((0, 1), zero).trivial
    # trivial boxes contain everything
    assert ctx.gamma_support_box((0, 1), zero).contains((Fraction(99), Fraction(1)))


# -- properties on a small-denominator grid, walls included -------------------

_PROPERTY_CONTEXTS = {kind: _context(kind) for kind in ("A1", "A2", "B2", "G2", "A3")}


@st.composite
def _gamma_inputs(draw):
    ctx = _PROPERTY_CONTEXTS[draw(st.sampled_from(sorted(_PROPERTY_CONTEXTS)))]
    subset = tuple(i for i in range(ctx.datum.rank_ss) if draw(st.booleans()))
    grid = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2)))
    h = tuple(draw(grid) for _ in range(ctx.datum.dim))
    x = tuple(draw(grid) for _ in range(ctx.datum.dim))
    return ctx, subset, h, x


def _product_form(ctx, subset, h, x):
    """gamma as the product over j outside P of [t_j > 0] - [w_j > c_j],
    built from the datum alone: t_j = <alpha_j, h_P>, w_j = <varpi_j, h_P>."""
    datum = ctx.datum
    h_p = matvec(projector_to_aP(datum, subset), h)
    value = 1
    for j in range(datum.rank_ss):
        if j not in subset:
            weight = datum.fundamental_weights[j]
            value *= (int(dot(datum.simple_roots[j], h_p) > 0)
                      - int(dot(weight, h_p) > dot(weight, x)))
    return value


# 600 examples reach G2 wall points that a scan of off-wall points misses;
# 300 do not.
@settings(max_examples=600)
@given(_gamma_inputs())
def test_gamma_is_the_product_form_and_lies_in_its_box(inputs):
    ctx, subset, h, x = inputs
    value = ctx.gamma(subset, h, x)
    assert value == _product_form(ctx, subset, h, x)
    if value != 0:
        assert ctx.gamma_support_box(subset, x).contains(h)


# -- Langlands inversion next to its walls ------------------------------------

_INVERSION_CONTEXTS = {kind: _context(kind) for kind in INVERSION_TYPES}


@st.composite
def _planted_walls(draw):
    """A proper nested pair, a wall of its family built from the datum
    alone, a point planted on that wall and a step 1/N off it."""
    ctx = _INVERSION_CONTEXTS[draw(st.sampled_from(INVERSION_TYPES))]
    datum = ctx.datum
    pairs = [(p, q) for p in enumerate_standard(datum)
             for q in enumerate_standard(datum) if set(p) < set(q)]
    p, q = draw(st.sampled_from(pairs))
    j = draw(st.sampled_from(sorted(set(q) - set(p))))
    if draw(st.booleans()):  # the relative root alpha_j o proj_P
        wall = vecmat(datum.simple_roots[j], projector_to_aP(datum, p))
        step = datum.fundamental_coweights[j]
    else:  # the Q-relative fundamental weight of j
        wall = relative_weight(datum, q, j)
        step = datum.simple_coroots[j]
    assert dot(wall, step) == 1
    coordinate = st.builds(Fraction, st.integers(-60, 60), st.integers(2, 13))
    h = tuple(draw(coordinate) for _ in range(datum.dim))
    planted = vadd(h, vscale(-dot(wall, h), step))
    assert dot(wall, planted) == 0
    nudge = vscale(Fraction(1, draw(st.integers(1, 10 ** 6))), step)
    return ctx, p, q, planted, nudge


@settings(max_examples=400)
@given(_planted_walls())
def test_inversion_holds_next_to_every_wall(inputs):
    ctx, p, q, planted, nudge = inputs
    with pytest.raises(WallError, match=r"^h lies on the wall of relative (root|weight) \d+$"):
        ctx.langlands_inversion_check(p, q, planted)
    for off in (vadd(planted, nudge), vadd(planted, vscale(-1, nudge))):
        try:
            assert ctx.langlands_inversion_check(p, q, off)
        except WallError:
            # 1/N off this wall may still lie on another wall of the family
            continue


# -- caches ---------------------------------------------------------------------


def test_context_caches_stay_bounded():
    # Many distinct X and h leave at most one walls entry per nested pair
    # and one projector per subset: nothing keyed by X or h is kept.
    datum = build_root_datum("A2")
    spec = standard_lattice_spec(datum, ())
    ctx = spec._ctx
    n = datum.rank_ss
    rng = random.Random("caches")

    def use(rounds):
        for _ in range(rounds):
            brute_sum(spec, (rng.randint(-3, 4), rng.randint(-3, 4)))
            h, x = _rational_points(datum.dim, 2, rng.random())
            for p in enumerate_standard(datum):
                ctx.gamma(p, h, x)
                ctx.gamma_support_box(p, x)
        return sum(len(v) for v in vars(ctx).values() if isinstance(v, dict))

    first = use(10)
    assert use(30) == first
    assert len(ctx._walls) <= 3 ** n and len(ctx._proj) <= 2 ** n
