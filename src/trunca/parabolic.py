"""Standard and semi-standard parabolic combinatorics.

A standard parabolic subgroup is identified with the subset ``I`` of
simple-root indices it contains; the Borel is ``()`` and the full group is
``(0, ..., n-1)``.  A semi-standard parabolic is a pair ``(I, w)`` with ``w``
the minimal-length representative of a right coset of the standard Weyl
subgroup ``W_I``: it is the standard one conjugated by ``w``.

The ambient space splits as ``a_B = a_B^P + a_P`` where ``a_B^P`` is spanned
by the simple coroots in ``I`` and ``a_P`` is the common kernel of those
simple roots.  The relative roots and weights of nested pairs, Delta_P^Q
and hat-Delta_P^Q, live in ``datum.truncation.walls``, as covectors on all
of ``a_B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
