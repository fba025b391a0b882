"""Complementary polyhedra: validation, degrees, refinements, projections.

The refinement oracle used throughout is the constant family: when every
vertex equals the same regular point xi, the transported vertex at chamber w
is w(xi), so the unique maximal-degree facet can be located by hand (it is
the Borel facet whose chamber moves xi to the dominant cone, or the full
group when xi is antidominant).
"""

import gc
import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunca.errors import ConsistencyError
from trunca.linalg import dot
from trunca.parabolic import (
    SemiStandardParabolic,
    enumerate_semistandard,
    semistandard_contains,
)
from trunca.polyhedra import (
    ComplementaryPolyhedron,
    canonical_refinement,
    degree,
    generate,
    is_semistable,
    project_polyhedron,
    random_polyhedron,
    semistability_indicator,
    validate,
    vertex_walls_clear,
)
from trunca.rootdata import build_root_datum, fold


def _constant(datum, xi):
    return ComplementaryPolyhedron(datum, [xi] * datum.weyl.order)


# -- construction and validation ----------------------------------------------


def test_vertex_count_and_dimension_checks():
    d = build_root_datum("A2")
    with pytest.raises(ValueError, match="one vertex per Weyl element"):
        ComplementaryPolyhedron(d, [(0, 0)] * 5)
    with pytest.raises(ValueError, match="dimension"):
        ComplementaryPolyhedron(d, [(0,)] * 6)


def test_validate_rejects_wrong_direction():
    d = build_root_datum("A1")
    res = validate(ComplementaryPolyhedron(d, [(2,), (-2,)]))
    assert not res
    assert res.reason == "edge multiple is negative"


def test_validate_rejects_off_coroot_edge():
    d = build_root_datum("A2")
    vertices = [(Fraction(0), Fraction(0))] * 6
    # move one chamber off the coroot line of its separating reflection
    s0 = d.weyl.simple[0]
    vertices[s0.index] = (Fraction(0), Fraction(1))
    res = validate(ComplementaryPolyhedron(d, vertices))
    assert not res
    assert "not a multiple" in res.reason


def test_generate_matches_edge_rule_and_rejects_bad_input():
    d = build_root_datum("A2")
    y = (Fraction(-2), Fraction(-1))
    cp = generate(d, [y], [Fraction(3, 2)], shift=(Fraction(1), Fraction(0)))
    w0 = max(d.weyl.elements, key=lambda w: w.length)
    scaled = tuple(Fraction(3, 2) * t for t in d.weyl.act(d.weyl.inv(w0), y))
    assert cp.vertices[w0.index] == (scaled[0] + 1, scaled[1])
    with pytest.raises(ValueError, match="not antidominant"):
        generate(d, [(Fraction(1), Fraction(-1))], [1])
    with pytest.raises(ValueError, match="non-negative"):
        generate(d, [y], [-1])
    with pytest.raises(ValueError, match="one weight per point"):
        generate(d, [y], [1, 2])


def test_random_polyhedra_are_valid_and_wall_free():
    for kind in ("A1", "A2", "B2"):
        d = build_root_datum(kind)
        for i in range(8):
            cp = random_polyhedron(d, seed=f"valid:{kind}:{i}")
            assert validate(cp)
            assert vertex_walls_clear(cp)


def test_constant_zero_family_sits_on_every_wall():
    d = build_root_datum("A2")
    assert not vertex_walls_clear(_constant(d, (Fraction(0), Fraction(0))))


def test_floats_are_refused_where_vectors_enter():
    d = build_root_datum("A2")
    with pytest.raises(TypeError):
        ComplementaryPolyhedron(d, [(0, 0)] * 5 + [(0.5, 0)])
    y = (Fraction(-2), Fraction(-1))
    with pytest.raises(TypeError):
        generate(d, [(-2.0, -1)], [1])
    with pytest.raises(TypeError):
        generate(d, [y], [1.5])
    with pytest.raises(TypeError):
        generate(d, [y], [1], shift=(0.25, 0))
    for den in (0, -7, 7.0):
        with pytest.raises(ValueError, match="positive int"):
            ComplementaryPolyhedron(d, [(0, 0)] * 6, den)
        with pytest.raises(ValueError, match="positive int"):
            generate(d, [y], [1], den=den)
    # the sampler draws integer numerators and hands them to generate
    cp = random_polyhedron(d, seed="ints")
    assert type(cp.den) is int
    assert all(type(x) is int for v in cp.numerators + cp.transported() for x in v)


# -- the integer route against a Fraction reference ------------------------------


def _reference_validate(cp):
    """The edge test on Fraction vertices, dividing by the coroot entry."""
    datum, weyl = cp.datum, cp.datum.weyl
    verts = cp.vertices
    for u in weyl.elements:
        uinv = weyl.inv(u)
        for i in range(datum.rank_ss):
            if uinv.root_perm[datum.simple_root_positions[i]] >= datum.n_positive:
                continue
            v = weyl.mult(weyl.simple[i], u)
            g = weyl.act(uinv, datum.simple_coroots[i])
            diff = [a - b for a, b in zip(verts[v.index], verts[u.index])]
            k = next(a for a, x in enumerate(g) if x)
            b = diff[k] / g[k]
            if any(dx != b * gx for dx, gx in zip(diff, g)):
                return False, u, i, ("edge difference is not a multiple of "
                                     "the separating coroot")
            if b < 0:
                return False, u, i, "edge multiple is negative"
    return True, None, None, ""


def _reference_semistable(datum, trans, facet):
    """No properly smaller facet sees positive Fraction weights."""
    weyl, ctx = datum.weyl, datum.truncation
    p = facet.subset
    coset = [v for v in weyl.elements if weyl.min_rep(v, p) == facet.rep]
    for size in range(len(p)):
        for r in itertools.combinations(p, size):
            for v in coset:
                point = trans[weyl.min_rep(v, r).index]
                if all(dot(wt, point) > 0 for wt in ctx.walls(r, p)[1]):
                    return False
    return True


def _plant(cp, vertex, offset):
    """The polyhedron with ``offset`` added to one vertex."""
    verts = list(cp.vertices)
    verts[vertex] = tuple(a + b for a, b in zip(verts[vertex], offset))
    return ComplementaryPolyhedron(cp.datum, verts)


@settings(max_examples=30)
@given(kind=st.sampled_from(["A2", "B2", "G2", "A3", "D4"]),
       seed=st.integers(0, 10 ** 6))
def test_integer_route_equals_fraction_reference(kind, seed):
    datum = build_root_datum(kind)
    ctx, weyl = datum.truncation, datum.weyl
    cp = random_polyhedron(datum, seed=seed)
    trans = [weyl.act(w, v) for w, v in zip(weyl.elements, cp.vertices)]
    facets = enumerate_semistandard(datum)
    degrees = {f: dot(ctx.root_sum(f.subset, ctx.full), trans[f.rep.index])
               for f in facets}
    assert {f: degree(cp, f) for f in facets} == degrees
    top = [f for f in facets if degrees[f] == max(degrees.values())]
    largest = [f for f in top if all(semistandard_contains(datum, f, o) for o in top)]
    assert [canonical_refinement(cp)] == largest
    if datum.rank_ss <= 3:  # D4 has 865 facets: its refinement's alone
        assert all(is_semistable(cp, f) == _reference_semistable(datum, trans, f)
                   for f in facets)
    assert is_semistable(cp, largest[0]) == _reference_semistable(datum, trans, largest[0])
    full = ctx.full
    indicator = sum((-1) ** (len(full) - len(f.subset)) for f in facets
                    if all(dot(wt, trans[f.rep.index]) > 0
                           for wt in ctx.walls(f.subset, full)[1]))
    assert semistability_indicator(cp) == indicator

    # planted bad edges: negating every vertex turns each edge multiple b
    # into -b, negative unless the family is constant, and an offset
    # parallel to no coroot breaks every edge at one vertex
    flipped = ComplementaryPolyhedron(datum, [tuple(-x for x in v) for v in cp.vertices])
    ragged = _plant(cp, seed % weyl.order,
                    tuple(Fraction(10 ** k, 7) for k in range(datum.dim)))
    for family in (cp, flipped, ragged):
        res = validate(family)
        assert (res.ok, res.element, res.simple_index, res.reason) == \
            _reference_validate(family)
    assert not validate(ragged) and "not a multiple" in validate(ragged).reason
    moving = any(a != b for a, b in zip(cp.vertices, cp.vertices[1:]))
    assert bool(validate(flipped)) is not moving
    if moving:
        assert validate(flipped).reason == "edge multiple is negative"


# -- degrees -------------------------------------------------------------------


def test_degree_hand_values_a1():
    d = build_root_datum("A1")
    cp = ComplementaryPolyhedron(d, [(Fraction(2),), (Fraction(2),)])
    e, s = d.weyl.elements[0], d.weyl.simple[0]
    assert degree(cp, SemiStandardParabolic((), e)) == 2
    assert degree(cp, SemiStandardParabolic((), s)) == -2  # s(X_s) = (-2,)
    assert degree(cp, SemiStandardParabolic((0,), e)) == 0


def test_degree_hand_values_a2_constant_family():
    d = build_root_datum("A2")
    xi = (Fraction(1), Fraction(1))
    cp = _constant(d, xi)
    e = d.weyl.elements[0]
    # 2*rho has covector (2, 2); dropping the roots inside {0} leaves (1, 2)
    assert degree(cp, SemiStandardParabolic((), e)) == 4
    assert degree(cp, SemiStandardParabolic((0,), e)) == 3
    assert degree(cp, SemiStandardParabolic((1,), e)) == 3
    assert degree(cp, SemiStandardParabolic((0, 1), e)) == 0
    # restricting Q shrinks the covector accordingly
    assert degree(cp, SemiStandardParabolic((), e), q_subset=(0,)) == 1


def test_degree_requires_containment():
    d = build_root_datum("A2")
    cp = _constant(d, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError, match="not inside"):
        degree(cp, SemiStandardParabolic((1,), d.weyl.elements[0]), q_subset=(0,))


def test_degree_independent_of_chamber_representative():
    for kind in ("A2", "B2"):
        d = build_root_datum(kind)
        cp = random_polyhedron(d, seed=f"deg:{kind}")
        n = d.rank_ss
        for size in range(n + 1):
            for subset in itertools.combinations(range(n), size):
                by_rep = {}
                for w in d.weyl.elements:
                    rep = d.weyl.min_rep(w, subset)
                    val = degree(cp, SemiStandardParabolic(subset, w))
                    by_rep.setdefault(rep.index, set()).add(val)
                assert all(len(vals) == 1 for vals in by_rep.values())


# -- refinements ----------------------------------------------------------------


def test_refinement_of_constant_regular_family():
    # for a constant family at regular xi, the transported vertices are the
    # Weyl orbit of xi: the refinement is the Borel facet of the chamber
    # sending xi into the dominant cone.
    d = build_root_datum("A2")
    for w in d.weyl.elements:
        xi = d.weyl.act(d.weyl.inv(w), (Fraction(2), Fraction(1)))
        ref = canonical_refinement(_constant(d, xi))
        assert ref.subset == ()
        assert ref.rep == w


def test_refinement_of_antidominant_generator_is_full():
    for kind in ("A1", "A2", "B2"):
        d = build_root_datum(kind)
        y = tuple([Fraction(-1)] * d.rank_ss)
        cp = generate(d, [y], [1])
        ref = canonical_refinement(cp)
        assert ref.subset == tuple(range(d.rank_ss))
        assert ref.rep.length == 0
        assert semistability_indicator(cp) == 1


def test_refinement_clauses_on_random_corpus():
    for kind in ("A2", "B2"):
        d = build_root_datum(kind)
        for i in range(10):
            cp = random_polyhedron(d, seed=f"clauses:{kind}:{i}")
            ref = canonical_refinement(cp)  # which cross-checks both clauses
            assert is_semistable(cp, ref)
            full = tuple(range(d.rank_ss))
            want = 1 if (ref.subset == full and ref.rep.length == 0) else 0
            assert semistability_indicator(cp) == want


def test_refinement_tables_die_with_their_datum():
    d = build_root_datum("A2")
    canonical_refinement(random_polyhedron(d, seed="tables"))
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_refinement_restricted_to_parabolic():
    d = build_root_datum("A2")
    xi = (Fraction(2), Fraction(1))  # dominant regular
    # the rank-one slice at {0} sees the constant A1 family at h = 2 > 0
    ref = canonical_refinement(_constant(d, xi), q_subset=(0,))
    assert (ref.subset, ref.rep.length) == ((), 0)
    # while the antidominant generator family refines to all of Q
    cp = generate(d, [(Fraction(-1), Fraction(-1))], [1])
    ref = canonical_refinement(cp, q_subset=(0,))
    assert (ref.subset, ref.rep.length) == ((0,), 0)


def test_semistable_hand_case():
    d = build_root_datum("A1")
    e, s = d.weyl.elements[0], d.weyl.simple[0]
    cp = ComplementaryPolyhedron(d, [(Fraction(1),), (Fraction(1),)])
    # the full facet sees the dominant transported vertex at e: not semistable
    assert not is_semistable(cp, SemiStandardParabolic((0,), e))
    assert is_semistable(cp, SemiStandardParabolic((), e))


# -- projections -------------------------------------------------------------------


def test_projection_preserves_validity():
    folding = fold(build_root_datum("A3"), (2, 1, 0))
    rng = random.Random("proj:A3")
    for _ in range(6):
        cp = random_polyhedron(folding.big, rng, require_wall_free=False)
        small = project_polyhedron(cp, folding)
        assert small.datum is folding.small
        assert validate(small)


def test_projection_of_symmetric_constant_family():
    folding = fold(build_root_datum("A3"), (2, 1, 0))
    xi = (Fraction(1), Fraction(2), Fraction(1))  # sigma-symmetric point
    small = project_polyhedron(_constant(folding.big, xi), folding)
    projected = folding.project_vector(xi)
    assert all(v == projected for v in small.vertices)


def test_projection_requires_matching_datum():
    folding = fold(build_root_datum("A3"), (2, 1, 0))
    other = _constant(build_root_datum("B2"), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError, match="big datum"):
        project_polyhedron(other, folding)


# -- the indicator suite ------------------------------------------------------------


def test_indicator_suite_refines_once_per_instance(monkeypatch):
    from trunca import polyhedra, verify

    calls = []

    def counting(cp, *args, **kwargs):
        calls.append(cp.datum.label)
        return canonical_refinement(cp, *args, **kwargs)

    # both names: the suite's own and the one semistability_indicator uses
    monkeypatch.setattr(verify, "canonical_refinement", counting)
    monkeypatch.setattr(polyhedra, "canonical_refinement", counting)
    records = verify.suite_indicator(samples=3, types=("A1", "A2"))
    assert all(r.ok for r in records)
    assert calls == ["A1"] * 3 + ["A2"] * 3


def test_one_corpus_per_run_suites_call(monkeypatch, capsys):
    from trunca import cli, verify

    drawn = []

    def counting(datum, seed, *args, **kwargs):
        drawn.append(datum.label)
        return random_polyhedron(datum, seed, *args, **kwargs)

    monkeypatch.setattr(verify, "random_polyhedron", counting)
    assert cli.main(["verify", "--suite", "all", "--samples", "3"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    # three per refinement type, drawn once for both suites, and three per
    # folding
    assert len(drawn) == 3 * (len(verify.REFINEMENT_TYPES) + len(verify.FOLDINGS))
    alone = [r.as_dict() for name in ("indicator", "refinement")
             for r in verify.run_suites([name], samples=3)]
    assert [r for r in records if r["suite"] in ("indicator", "refinement")] == alone
    assert len(drawn) == 3 * (3 * len(verify.REFINEMENT_TYPES) + len(verify.FOLDINGS))


def test_indicator_suite_records_a_disagreement(monkeypatch):
    from trunca import verify

    def disagree(cp):
        raise ConsistencyError("indicator 1 disagrees with refinement")

    monkeypatch.setattr(verify, "semistability_indicator", disagree)
    records = verify.suite_indicator(samples=2, types=("A2",))
    assert [r.ok for r in records] == [False]
    assert records[0].actual == ("0/2 exact; first failure: instance 0: "
                                 "indicator 1 disagrees with refinement")
