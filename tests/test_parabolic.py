"""Standard and semi-standard parabolics, projections, relative roots."""

import itertools
from fractions import Fraction

import pytest

import reference_walls as reference
from trunca.linalg import dot, matvec
from trunca.parabolic import (
    SemiStandardParabolic,
    enumerate_semistandard,
    enumerate_standard,
    semistandard_contains,
)
from trunca.quasipoly import standard_lattice_spec
from trunca.rootdata import build_root_datum
from trunca.truncation import TruncationContext


def subsets(n):
    return [tuple(c) for size in range(n + 1)
            for c in itertools.combinations(range(n), size)]


def _rank(vectors):
    """Rank over Q of a list of vectors, by Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_standard_count_is_powerset():
    for kind, n in (("A2", 2), ("B2", 2), ("A3", 3)):
        datum = build_root_datum(kind)
        assert len(list(enumerate_standard(datum))) == 2 ** n


@pytest.mark.parametrize("kind,count", [
    # sum over subsets of |W| / |W_I|:
    # A2: 6+3+3+1; B2: 8+4+4+1; A3: 24 + 12*3 + (4+6+4) + 1
    ("A2", 13), ("B2", 17), ("A3", 75),
])
def test_semistandard_count(kind, count):
    datum = build_root_datum(kind)
    facets = list(enumerate_semistandard(datum))
    assert len(facets) == count
    # each representative is minimal in its coset
    for f in facets:
        assert datum.weyl.min_rep(f.rep, f.subset) == f.rep
    # the facets inside Q are those inside Q's subset with a rep in W_Q
    for q in subsets(datum.rank_ss):
        inside = tuple(f for f in facets
                       if set(f.subset) <= set(q) and set(f.rep.word) <= set(q))
        assert enumerate_semistandard(datum, q) == inside


@pytest.mark.parametrize("kind", ["A2", "B2", "G2", "A3"])
def test_projector_properties(kind):
    # the reference projector is idempotent, kills exactly the coroots of
    # the subset, and its image is annihilated by the subset's simple roots;
    # the relative roots alpha_j o proj_P of walls kill those coroots too,
    # and agree with alpha_j on the image
    datum = build_root_datum(kind)
    ctx = datum.truncation
    for subset in subsets(datum.rank_ss):
        proj = reference.projector(datum, subset)
        rest = [j for j in range(datum.rank_ss) if j not in subset]
        roots = ctx.walls(subset, ctx.full)[0]
        for v in datum.simple_coroots + datum.fundamental_coweights:
            img = matvec(proj, v)
            assert matvec(proj, img) == img
            for i in subset:
                assert dot(datum.simple_roots[i], img) == 0
            for j, root in zip(rest, roots, strict=True):
                assert dot(root, v) == dot(root, img) == dot(datum.simple_roots[j], img)
        for i in subset:
            assert all(x == 0 for x in matvec(proj, datum.simple_coroots[i]))
            assert all(dot(root, datum.simple_coroots[i]) == 0 for root in roots)


def test_project_aP_is_a_direct_sum_split():
    # v = (v - Pv) + Pv with v - Pv in the span of the subset's coroots and
    # Pv killed by its roots: a_B = a_B^P + a_P is a direct-sum split
    for kind in ("A2", "B2", "G2", "A3"):
        datum = build_root_datum(kind)
        odd = (Fraction(3, 7),) + (Fraction(-2),) * (datum.dim - 1)
        for subset in subsets(datum.rank_ss):
            coroots = [datum.simple_coroots[i] for i in subset]
            for v in datum.fundamental_coweights + (odd,):
                v_p = reference.project(datum, subset, v)
                assert _rank(coroots + [tuple(a - b for a, b in zip(v, v_p))]) == len(subset)
                for i in subset:
                    assert dot(datum.simple_roots[i], v_p) == 0


@pytest.mark.parametrize("kind", ["A2", "B2", "A3"])
def test_relative_weights_are_dual_to_projected_coroots(kind):
    datum = build_root_datum(kind)
    ctx = TruncationContext(datum)
    for q in subsets(datum.rank_ss):
        for p in subsets(datum.rank_ss):
            if not set(p) <= set(q):
                continue
            between = sorted(set(q) - set(p))
            roots, weights = ctx.walls(p, q)
            assert len(roots) == len(between) == len(weights)
            for j, root in zip(between, roots):
                # the root at position j is alpha_j o proj_P
                for v in datum.fundamental_coweights:
                    assert dot(root, v) == dot(datum.simple_roots[j],
                                               reference.project(datum, p, v))
            # <hat_delta_i, proj_P alpha_j^vee> = delta_ij on Q - P
            for a, wt in zip(between, weights):
                for b in between:
                    got = dot(wt, reference.project(datum, p, datum.simple_coroots[b]))
                    assert got == (1 if a == b else 0)
                # relative weights vanish on a_Q: on projected coweights
                for v in datum.fundamental_coweights:
                    assert dot(wt, reference.project(datum, q, v)) == 0


def test_relative_weight_at_full_subset_is_ambient():
    datum = build_root_datum("A3")
    assert datum.truncation.walls((), (0, 1, 2))[1] == datum.fundamental_weights


def test_relative_weight_differs_from_ambient_inside():
    # inside a proper parabolic the Q-relative weight is not the ambient one
    datum = build_root_datum("A2")
    (weight,) = datum.truncation.walls((), (0,))[1]
    assert weight != datum.fundamental_weights[0]
    assert weight == (Fraction(1, 2), Fraction(0))


REFERENCE_TYPES = ("A1", "A1xA1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4",
                   "D4", "F4", "A2xB2")


@pytest.mark.parametrize("rank_central", [0, 1])
@pytest.mark.parametrize("kind", REFERENCE_TYPES)
def test_walls_and_bases_match_the_projector_construction(kind, rank_central):
    # every row read off the inverse Cartan blocks equals the projector and
    # per-weight inverse construction: the walls of each nested pair, the
    # standard lattice's basis and each superset's adapted basis
    datum = build_root_datum(kind, rank_central)
    ctx = datum.truncation
    standard = subsets(datum.rank_ss)
    for p in standard:
        spec = standard_lattice_spec(datum, p)
        assert spec.basis == reference.lattice_basis(datum, p), p
        for q in standard:
            if set(p) <= set(q):
                assert ctx.walls(p, q) == reference.walls(datum, p, q), (p, q)
                assert spec._adapted_basis(q)[0] == reference.adapted_basis(datum, p, q), (p, q)


def test_containment_of_semistandard_parabolics():
    datum = build_root_datum("A2")
    weyl = datum.weyl
    e = weyl.identity
    borel = SemiStandardParabolic((), e)
    p1 = SemiStandardParabolic((0,), e)
    assert semistandard_contains(datum, p1, borel)
    s2 = next(w for w in weyl.elements if w.word == (1,))
    assert not semistandard_contains(
        datum, p1, SemiStandardParabolic((), weyl.min_rep(s2, ())))
    # (P, w) contains exactly |W_P| of the |W| Borel chambers
    count = sum(semistandard_contains(datum, p1, SemiStandardParabolic((), w))
                for w in weyl.elements)
    assert count == 2


def test_delta_pq_requires_containment():
    ctx = TruncationContext(build_root_datum("A2"))
    with pytest.raises(ValueError, match=r"^parabolic \(0,\) is not contained in \(1,\)$"):
        ctx.walls((0,), (1,))
    with pytest.raises(ValueError, match=r"^parabolic \(1,\) is not contained in \(\)$"):
        ctx.walls((1,), ())
    # subsets given as lists are normalised like tuples
    with pytest.raises(ValueError, match="not contained"):
        ctx.walls([1], [])
    assert ctx.walls((), ()) == ((), ())
    with pytest.raises(ValueError, match=r"^parabolic \(0,\) is not contained in \(1,\)$"):
        ctx.root_sum((0,), (1,))
