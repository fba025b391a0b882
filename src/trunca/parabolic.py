"""Standard and semi-standard parabolic combinatorics.

A standard parabolic subgroup is identified with the subset ``I`` of
simple-root indices it contains; the Borel is ``()`` and the full group is
``(0, ..., n-1)``.  A semi-standard parabolic is a pair ``(I, w)`` with ``w``
the minimal-length representative of a right coset of the standard Weyl
subgroup ``W_I``: it is the standard one conjugated by ``w``.

The ambient space splits as ``a_B = a_B^P + a_P`` where ``a_B^P`` is spanned
by the simple coroots in ``I`` and ``a_P`` is the common kernel of those
simple roots; :func:`projector_to_aP` is the projection onto ``a_P`` along
``a_B^P``.  It and :func:`relative_weight` are the building blocks of the
relative root/weight families Delta_P^Q and hat-Delta_P^Q, which
``datum.truncation.walls`` serves, once per nested pair, as covectors on
all of ``a_B``, so callers can pair them against anything without tracking
which subspace they came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import identity_matrix, mat_inverse, matmul
from .rootdata import RootDatum, WeylElement


def enumerate_standard(datum: RootDatum):
    """All standard parabolic subsets, ordered by size then lexicographically.

    >>> from trunca.rootdata import build_root_datum
    >>> enumerate_standard(build_root_datum("A2"))
    ((), (0,), (1,), (0, 1))
    """
    idx = range(datum.rank_ss)
    out = []
    for size in range(datum.rank_ss + 1):
        out.extend(combinations(idx, size))
    return tuple(out)


@dataclass(frozen=True)
class SemiStandardParabolic:
    """A semi-standard parabolic: subset of simple roots plus a coset rep.

    ``rep`` is the minimal-length representative of its coset in ``W_I \\ W``;
    the standard parabolic of the same subset has ``rep`` = identity.
    """

    subset: tuple[int, ...]
    rep: WeylElement

    def __repr__(self):
        return f"SemiStandardParabolic(subset={self.subset}, rep={self.rep.label})"


def enumerate_semistandard(datum: RootDatum, q_subset=None):
    """The semi-standard parabolics inside the standard parabolic of
    ``q_subset`` (the full group by default): each subset of it, ordered as
    in :func:`enumerate_standard`, paired with the minimal coset reps that
    lie in the Weyl subgroup of ``q_subset``, in element order.

    >>> from trunca.rootdata import build_root_datum
    >>> len(enumerate_semistandard(build_root_datum("A1")))
    3
    >>> len(enumerate_semistandard(build_root_datum("A2")))
    13
    >>> len(enumerate_semistandard(build_root_datum("A2"), (0,)))
    3
    """
    weyl = datum.weyl
    q = tuple(range(datum.rank_ss)) if q_subset is None else tuple(sorted(q_subset))
    elements = weyl.subgroup(q)
    out = []
    for size in range(len(q) + 1):
        for subset in combinations(q, size):
            table = weyl.min_reps(subset)
            out.extend(SemiStandardParabolic(subset, w)
                       for w in elements if table[w.index] == w.index)
    return tuple(out)


def semistandard_contains(datum: RootDatum, outer: SemiStandardParabolic,
                          inner: SemiStandardParabolic) -> bool:
    """Does the semi-standard parabolic ``outer`` contain ``inner``?

    Containment of the conjugated parabolics amounts to: the inner subset
    is contained in the outer one, and the two representatives define the
    same coset of the outer Weyl subgroup.
    """
    if not set(inner.subset) <= set(outer.subset):
        return False
    return datum.weyl.min_rep(inner.rep, outer.subset) == outer.rep


def projector_to_aP(datum: RootDatum, subset):
    """Matrix of the projection of ``a_B`` onto ``a_P``, killing the span of
    the simple coroots indexed by ``subset``."""
    subset = sorted(subset)
    if not subset:
        return identity_matrix(datum.dim)
    a_sub = tuple(tuple(Fraction(datum.cartan[i][j]) for j in subset)
                  for i in subset)
    a_inv = mat_inverse(a_sub)
    # proj = Id - C . A_I^{-1} . R  with R the rows <alpha_i, .> and C the
    # columns alpha_i^vee, i in subset.
    rows_r = tuple(datum.simple_roots[i] for i in subset)
    cols_c = tuple(datum.simple_coroots[i] for i in subset)
    correction = matmul(tuple(zip(*cols_c, strict=True)), matmul(a_inv, rows_r))
    ident = identity_matrix(datum.dim)
    return tuple(tuple(ident[i][j] - correction[i][j] for j in range(datum.dim))
                 for i in range(datum.dim))


def relative_weight(datum: RootDatum, q_subset, j):
    """The fundamental weight of j relative to the sub-system on ``q_subset``.

    A covector pairing to delta against the simple coroots inside the subset
    and vanishing on ``a_Q`` (in particular on the center).  For the full
    subset this is the ambient fundamental weight.

    >>> from trunca.rootdata import build_root_datum
    >>> d = build_root_datum("A2")
    >>> relative_weight(d, (0,), 0)
    (Fraction(1, 2), Fraction(0, 1))
    >>> relative_weight(d, (0, 1), 0) == d.fundamental_weights[0]
    True
    """
    q = sorted(q_subset)
    if j not in q:
        raise ValueError(f"index {j} is not in the subset {q}")
    a_sub = tuple(tuple(Fraction(datum.cartan[a][b]) for b in q) for a in q)
    inv = mat_inverse(a_sub)
    row = inv[q.index(j)]
    cov = [Fraction(0)] * datum.dim
    for pos, k in enumerate(q):
        cov[k] = row[pos]
    return tuple(cov)
