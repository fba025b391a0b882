"""Cone characteristic functions on parabolic families and their
alternating sums.

For each nested pair P <= Q of standard parabolics,
``TruncationContext.walls`` tabulates the relative simple roots and the
relative fundamental weights, once per pair, and ``delta`` labels the
roots by index.  Strict positivity against them is the acute cone tau and
the obtuse cone ``tau_hat`` of the pair.
``langlands_inversion_check`` evaluates the alternating sum over
intermediate parabolics that should telescope to a Kronecker delta, and
``gamma`` is the compactly-supported alternating-sum function whose support
``gamma_support_box`` brackets by the vertices of a hyperplane arrangement.
Both sums pair h (and x) with each wall once per call and then share one
2^m-term sum over subsets.

Everything is exact: inputs are rational vectors, indicators compare exact
rationals to zero, and the arrangement's vertices solve rational systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import WallError
from .linalg import basis_vec, dot, matvec, solve, vecmat
from .parabolic import projector_to_aP, relative_weight
from .rootdata import RootDatum


def _alternating_sum(t, w) -> int:
    """Sum over subsets S of positions of (-1)^|S| times [t_k > 0 on S] and
    [w_k > 0 off S]: the 2^m-term sum behind inversion and gamma."""
    m = len(t)
    total = 0
    for size in range(m + 1):
        for chosen in combinations(range(m), size):
            if (all(t[k] > 0 for k in chosen)
                    and all(w[k] > 0 for k in range(m) if k not in chosen)):
                total += (-1) ** size
    return total


def _norm_subset(datum: RootDatum, subset) -> tuple[int, ...]:
    out = tuple(sorted(set(subset)))
    for i in out:
        if not 0 <= i < datum.rank_ss:
            raise ValueError(f"simple-root index {i} out of range")
    return out


@dataclass(frozen=True)
class SupportBox:
    """Axis bounds, in root coordinates, bracketing the support of gamma.

    ``entries`` holds one ``(j, covector, lo, hi)`` per simple index outside
    the parabolic: the covector is ``alpha_j o proj`` and the support lies
    where every pairing falls inside ``[lo, hi]``.  ``trivial`` marks the
    full-group case (gamma is constant 1, so there is no box).
    """

    subset: tuple[int, ...]
    entries: tuple
    trivial: bool = False

    def contains(self, h) -> bool:
        if self.trivial:
            return True
        return all(lo <= dot(cov, h) <= hi for _, cov, lo, hi in self.entries)


class TruncationContext:
    """Relative root and weight tables for one root datum, one entry per
    nested pair of standard parabolics."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.full = tuple(range(datum.rank_ss))
        self._proj = {}
        self._walls = {}

    def projector(self, subset):
        subset = _norm_subset(self.datum, subset)
        if subset not in self._proj:
            self._proj[subset] = projector_to_aP(self.datum, subset)
        return self._proj[subset]

    def walls(self, p_subset, q_subset):
        """``(roots, weights)`` of the nested pair P <= Q: for each j in
        Q - P, ascending, the covector alpha_j o proj_P and the Q-relative
        fundamental weight varpi_j^Q.  Each weight kills a_Q and every
        simple coroot of P.

        >>> from trunca.rootdata import build_root_datum
        >>> ctx = TruncationContext(build_root_datum("A2"))
        >>> ctx.walls((0,), (0, 1))
        (((Fraction(1, 2), Fraction(1, 1)),), ((Fraction(1, 3), Fraction(2, 3)),))
        """
        p, q = _norm_subset(self.datum, p_subset), _norm_subset(self.datum, q_subset)
        key = (p, q)
        if key not in self._walls:
            if not set(p) <= set(q):
                raise ValueError(f"parabolic {p} is not contained in {q}")
            between = [j for j in q if j not in p]
            # alpha_j o proj_P does not depend on Q, nor varpi_j^Q on P: each
            # is built once, on the pair (P, G), respectively ((), Q).
            if q == self.full:
                roots = tuple(vecmat(self.datum.simple_roots[j], self.projector(p))
                              for j in between)
            else:
                outer = self.walls(p, self.full)[0]
                rest = [j for j in self.full if j not in p]
                roots = tuple(outer[rest.index(j)] for j in between)
            if p:
                inner = self.walls((), q)[1]
                weights = tuple(inner[q.index(j)] for j in between)
            else:
                weights = tuple(relative_weight(self.datum, q, j) for j in q)
            self._walls[key] = (roots, weights)
        return self._walls[key]

    def delta(self, p_subset, q_subset):
        """(j, alpha_j o proj_P) for j in Q - P, ascending: the roots of
        ``walls`` labelled by their index.

        >>> from trunca.rootdata import build_root_datum
        >>> TruncationContext(build_root_datum("A2")).delta((0,), (0, 1))
        ((1, (Fraction(1, 2), Fraction(1, 1))),)
        """
        p, q = _norm_subset(self.datum, p_subset), _norm_subset(self.datum, q_subset)
        return tuple(zip([j for j in q if j not in p], self.walls(p, q)[0], strict=True))

    def tau_hat(self, p_subset, q_subset, h) -> bool:
        """Obtuse-cone indicator: every relative fundamental weight of
        ``walls`` strictly positive on h.

        >>> from trunca.rootdata import build_root_datum
        >>> ctx = TruncationContext(build_root_datum("A2"))
        >>> h = tuple(a - b for a, b in zip(ctx.datum.simple_coroots[0],
        ...                                 ctx.datum.simple_coroots[1]))
        >>> ctx.tau_hat((), (0, 1), h)
        False
        """
        return all(dot(wt, h) > 0 for wt in self.walls(p_subset, q_subset)[1])

    # -- alternating sums ----------------------------------------------------

    def langlands_inversion_check(self, p_subset, q_subset, h) -> bool:
        """Does the alternating tau / tau-hat sum over intermediate
        parabolics P <= R <= Q equal the Kronecker delta of P and Q at h?
        tau is strict positivity against the relative roots of (P, R), and
        tau-hat against the relative weights of (R, Q).

        Raises :class:`WallError` when h lies on a wall of any functional in
        the relevant family (the answer would be convention-dependent there).
        """
        p, q = _norm_subset(self.datum, p_subset), _norm_subset(self.datum, q_subset)
        roots, weights = self.walls(p, q)
        t = [dot(cov, h) for cov in roots]
        w = [dot(cov, h) for cov in weights]
        for j, t_j, w_j in zip([j for j in q if j not in p], t, w, strict=True):
            if t_j == 0:
                raise WallError(f"h lies on the wall of relative root {j}")
            if w_j == 0:
                raise WallError(f"h lies on the wall of relative weight {j}")
        return _alternating_sum(t, w) == (1 if p == q else 0)

    def gamma(self, p_subset, h, x) -> int:
        """The alternating-sum function of the pair (h, x) at the parabolic.

        h is first projected onto a_P; x is taken as given.  Over the
        parabolics Q >= P, gamma sums (-1)^(rank - |Q|) times tau of (P, Q)
        at h_P and tau-hat of (Q, G) at h_P - x.  Defined for every rational
        input (walls contribute through the strict inequalities; no errors).

        >>> from trunca.rootdata import build_root_datum
        >>> ctx = TruncationContext(build_root_datum("A1"))
        >>> [ctx.gamma((), (Fraction(t, 2),), (2,)) for t in range(-1, 6)]
        [0, 0, 1, 1, 1, 1, 0]
        """
        if len(h) != self.datum.dim or len(x) != self.datum.dim:
            raise ValueError("h and x must have the datum's dimension")
        roots, weights = self.walls(p_subset, self.full)
        # alpha_j o proj_P already projects, and for j outside P varpi_j
        # kills the coroots of P, so neither pairing needs h_P itself.
        t = [dot(cov, h) for cov in roots]
        w = [dot(cov, h) - dot(cov, x) for cov in weights]
        return (-1) ** len(roots) * _alternating_sum(t, w)

    # -- support bracketing ---------------------------------------------------

    def gamma_support_box(self, p_subset, x) -> SupportBox:
        """Certified bounds on the support of ``gamma(P, ., x)``.

        With t_j = <alpha_j o proj, h>, w_j = <varpi_j, h_P> and
        c_j = <varpi_j, x> for j outside P, the alternating sum in
        :meth:`gamma` factors as the product of [t_j > 0] - [w_j > c_j]
        (the relative roots and weights do not depend on Q), so the support
        lies in K = {t : t_j (w_j - c_j) <= 0 for every j}.  K is a union of
        polytopes, bounded because (<varpi_j, varpi_k^vee>) is a P-matrix
        (Arthur's compactness of Gamma'_P), and their vertices are vertices
        of the arrangement t_j = 0, w_j = c_j.  The box is the bounding box
        of the arrangement vertices that lie in K, walls included.
        """
        p = _norm_subset(self.datum, p_subset)
        roots, weights = self.walls(p, self.full)
        rest = [j for j in self.full if j not in p]
        m = len(rest)
        if m == 0:
            return SupportBox(p, (), trivial=True)

        # h_P is sum_k t_k varpi_k^vee plus a central part that every
        # fundamental weight kills, so w = w_rows . t.
        w_rows = [tuple(dot(wt, self.datum.fundamental_coweights[k]) for k in rest)
                  for wt in weights]
        consts = [dot(wt, x) for wt in weights]
        planes = ([(basis_vec(m, pos), 0) for pos in range(m)]
                  + list(zip(w_rows, consts, strict=True)))
        vertices = []
        for chosen in combinations(planes, m):
            try:
                t = solve([row for row, _ in chosen], [c for _, c in chosen])
            except ValueError:  # the chosen hyperplanes meet in no single point
                continue
            w = matvec(w_rows, t)
            if all(t[k] * (w[k] - consts[k]) <= 0 for k in range(m)):
                vertices.append(t)
        # t = 0 is always such a vertex, so the box is never empty
        entries = tuple(
            (j, roots[pos],
             min(t[pos] for t in vertices), max(t[pos] for t in vertices))
            for pos, j in enumerate(rest))
        return SupportBox(p, entries)
