"""Complementary polyhedra: validation, degrees, refinements, projections.

The refinement oracle used throughout is the constant family: when every
vertex equals the same regular point xi, the transported vertex at chamber w
is w(xi), so the unique maximal-degree facet can be located by hand (it is
the Borel facet whose chamber moves xi to the dominant cone, or the full
group when xi is antidominant).
"""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from trunca.errors import ConsistencyError
from trunca.parabolic import SemiStandardParabolic
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


def test_indicator_suite_records_a_disagreement(monkeypatch):
    from trunca import verify

    def disagree(cp):
        raise ConsistencyError("indicator 1 disagrees with refinement")

    monkeypatch.setattr(verify, "semistability_indicator", disagree)
    records = verify.suite_indicator(samples=2, types=("A2",))
    assert [r.ok for r in records] == [False]
    assert records[0].actual == ("0/2 exact; first failure: instance 0: "
                                 "indicator 1 disagrees with refinement")
