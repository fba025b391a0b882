"""Root data, Weyl groups, and foldings against independent combinatorics.

The oracles here are classical counts and identities computed inline
(positive-root counts, Weyl orders, duality pairings), never read back from
the code under test.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunca.errors import CartanMatrixError, FoldingError
from trunca.linalg import dot, matvec
from trunca.rootdata import build_root_datum, fold

# (type, positive roots, Weyl order) from the classical closed forms:
# n(n+1)/2 for A_n, n^2 for B/C_n, n(n-1) for D_n, 6 for G2, 24 for F4.
CLASSIC = [
    ("A1", 1, 2),
    ("A1xA1", 2, 4),
    ("A2", 3, 6),
    ("B2", 4, 8),
    ("G2", 6, 12),
    ("A3", 6, 24),
    ("C3", 9, 48),
    ("D4", 12, 192),
    ("F4", 24, 1152),
]


@pytest.mark.parametrize("kind,n_pos,weyl_order", CLASSIC)
def test_counts(kind, n_pos, weyl_order):
    datum = build_root_datum(kind)
    assert len(datum.positive_roots()) == n_pos
    assert datum.weyl.order == weyl_order
    # the longest element inverts every positive root
    longest = max(datum.weyl.elements, key=lambda w: w.length)
    assert longest.length == n_pos


@pytest.mark.parametrize("kind", ["A2", "B2", "G2", "A3"])
def test_weight_coroot_duality(kind):
    datum = build_root_datum(kind)
    n = datum.rank_ss
    for i in range(n):
        for j in range(n):
            want = Fraction(1 if i == j else 0)
            assert dot(datum.fundamental_weights[i],
                       datum.simple_coroots[j]) == want
            assert dot(datum.simple_roots[j],
                       datum.fundamental_coweights[i]) == want


def test_simple_reflection_action():
    datum = build_root_datum("A2")
    weyl = datum.weyl
    s1 = next(w for w in weyl.elements if w.word == (0,))
    # s_1 sends alpha_1^vee to its negative and permutes the rest of Phi+
    img = weyl.act(s1, datum.simple_coroots[0])
    assert img == tuple(-x for x in datum.simple_coroots[0])
    # length = number of inversions
    for w in weyl.elements:
        assert w.length == weyl.inversions(w)


def test_reduced_words_are_reduced():
    datum = build_root_datum("B2")
    weyl = datum.weyl
    seen = {}
    for w in weyl.elements:
        key = tuple(map(tuple, w.matrix))
        assert key not in seen
        seen[key] = w
    # word lengths attain the longest-element bound exactly once
    lengths = sorted(w.length for w in weyl.elements)
    assert lengths[-1] == 4 and lengths.count(4) == 1


def test_central_coordinates_are_inert():
    datum = build_root_datum("A1", rank_central=2)
    assert datum.dim == 3
    v = (Fraction(1), Fraction(5), Fraction(-7))
    for w in datum.weyl.elements:
        out = datum.weyl.act(w, v)
        assert out[1:] == v[1:]
    for root in datum.positive_roots():
        assert root.cov[1:] == (0, 0)


_PRODUCT_GROUPS = {kind: build_root_datum(kind).weyl
                   for kind in ("A2", "B2", "G2", "A3", "C3")}


@st.composite
def _element_pairs(draw):
    weyl = _PRODUCT_GROUPS[draw(st.sampled_from(sorted(_PRODUCT_GROUPS)))]
    a = weyl.elements[draw(st.integers(0, weyl.order - 1))]
    b = weyl.elements[draw(st.integers(0, weyl.order - 1))]
    return weyl, a, b


@settings(max_examples=300)
@given(_element_pairs())
def test_weyl_products_are_matrix_products(pair):
    weyl, a, b = pair
    ab = weyl.mult(a, b)
    dim = len(a.matrix)
    # the integer matrix product, written out
    want = tuple(tuple(sum(a.matrix[i][k] * b.matrix[k][j] for k in range(dim))
                       for j in range(dim)) for i in range(dim))
    assert ab.matrix == want
    assert all(ab.root_perm[i] == a.root_perm[b.root_perm[i]]
               for i in range(len(ab.root_perm)))
    assert weyl.mult(a, weyl.inv(a)) is weyl.identity


@st.composite
def _element_subsets(draw):
    weyl = _PRODUCT_GROUPS[draw(st.sampled_from(sorted(_PRODUCT_GROUPS)))]
    w = weyl.elements[draw(st.integers(0, weyl.order - 1))]
    subset = draw(st.sets(st.integers(0, weyl.datum.rank_ss - 1)))
    return weyl, w, tuple(sorted(subset))


def _generated_subgroup(weyl, subset):
    """W_I as the closure of {s_i : i in I} under mult."""
    members = {weyl.identity}
    queue = [weyl.identity]
    while queue:
        u = queue.pop()
        for i in subset:
            v = weyl.mult(u, weyl.simple[i])
            if v not in members:
                members.add(v)
                queue.append(v)
    return members


@settings(max_examples=300)
@given(_element_subsets())
def test_coset_tables_match_the_definitions(case):
    weyl, w, subset = case
    w_i = _generated_subgroup(weyl, subset)
    sub = weyl.subgroup(subset)
    assert len(sub) == len(set(sub)) and set(sub) == w_i
    # the coset minimum is the unique shortest element of W_I * w
    coset = {weyl.mult(u, w) for u in w_i}
    shortest = min(v.length for v in coset)
    assert [v for v in coset if v.length == shortest] == [weyl.min_rep(w, subset)]
    # w is minimal iff it has no left descent in I: w^{-1}(alpha_i) > 0
    winv = weyl.inv(w).root_perm
    no_descent = all(winv[weyl.datum.simple_root_positions[i]] < weyl.datum.n_positive
                     for i in subset)
    assert (weyl.min_reps(subset)[w.index] == w.index) == no_descent


@pytest.mark.parametrize("bad", ["E9", "Q2", "A0", [[2, -1], [0, 2]]])
def test_bad_cartan_input(bad):
    with pytest.raises(CartanMatrixError):
        build_root_datum(bad)


def test_affine_matrix_rejected():
    # affine A1: symmetrizable but not positive definite
    with pytest.raises(CartanMatrixError):
        build_root_datum([[2, -2], [-2, 2]])


# --- foldings ---------------------------------------------------------------


def test_fold_a3_gives_c2():
    f = fold(build_root_datum("A3"), (2, 1, 0))
    assert [list(map(int, r)) for r in f.small.cartan] == [[2, -1], [-2, 2]]
    assert set(f.c.values()) <= {Fraction(1, 2), Fraction(1)}
    assert len(f.small.positive_roots()) == 4
    assert all(r.reduced for r in f.small.roots)


def test_fold_d4_gives_g2():
    f = fold(build_root_datum("D4"), (2, 1, 3, 0))
    assert [list(map(int, r)) for r in f.small.cartan] == [[2, -1], [-3, 2]]
    assert set(f.c.values()) <= {Fraction(1, 3), Fraction(1)}
    assert len(f.small.positive_roots()) == 6
    # triality correspondence: folded Weyl group lifts bijectively
    assert len(f.weyl_correspondence) == 12


def test_fold_identity_permutation_is_identity():
    datum = build_root_datum("B2")
    f = fold(datum, (0, 1))
    assert [list(r) for r in f.small.cartan] == [list(r) for r in datum.cartan]
    assert all(c == 1 for c in f.c.values())


def test_fold_projection_embeds_back():
    f = fold(build_root_datum("A3"), (2, 1, 0))
    for v_small in itertools.product((-2, 0, 1), repeat=2):
        v = matvec(f.embed, v_small)
        assert all(v[i] == v[orbit[0]] for orbit in f.orbits for i in orbit)
        assert f.project_vector(v) == tuple(map(Fraction, v_small))


@pytest.mark.parametrize("kind, perm", [("A3", (2, 1, 0)), ("D4", (2, 1, 3, 0))],
                         ids=["A3-to-C2", "D4-to-G2"])
def test_weyl_correspondence_is_a_sigma_fixed_isomorphism(kind, perm):
    f = fold(build_root_datum(kind), perm)
    big, small = f.big.weyl, f.small.weyl
    corr = {s: f.weyl_correspondence[s.index] for s in small.elements}
    for s, t in itertools.product(small.elements, repeat=2):
        assert corr[small.mult(s, t)] == big.mult(corr[s], corr[t])
    # sigma permutes the coweight coordinates, so w commutes with it exactly
    # when its matrix is invariant under permuting rows and columns by perm
    n = len(perm)
    for w in corr.values():
        assert all(w.matrix[perm[i]][perm[j]] == w.matrix[i][j]
                   for i in range(n) for j in range(n))
    for s in small.elements:
        for u in itertools.product((-1, 0, 2), repeat=f.small.dim):
            v = matvec(f.embed, u)
            assert f.project_vector(big.act(corr[s], v)) == small.act(s, f.project_vector(v))


def test_fold_rejects_bad_permutations():
    datum = build_root_datum("A3")
    with pytest.raises(FoldingError):
        fold(datum, (1, 0, 2))  # does not preserve the Cartan matrix
    with pytest.raises(FoldingError):
        fold(datum, (0, 0, 1))  # not a permutation

