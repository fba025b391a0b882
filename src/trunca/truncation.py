"""Cone characteristic functions on parabolic families and their
alternating sums.

``tau`` and ``tau_hat`` are the indicator functions of the acute and obtuse
cones attached to a nested pair of standard parabolics: strict positivity
against the relative simple roots, respectively the relative fundamental
weights.  ``langlands_inversion_check`` evaluates the alternating sum over
intermediate parabolics that should telescope to a Kronecker delta, and
``gamma`` is the compactly-supported alternating-sum function whose support
``gamma_support_box`` brackets by the vertices of a hyperplane arrangement.

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
    """Cached relative root/weight tables for one root datum."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.full = tuple(range(datum.rank_ss))
        self._proj = {}
        self._proj_cov = {}
        self._rel_weight = {}

    # -- cached geometry ---------------------------------------------------

    def projector(self, subset):
        subset = _norm_subset(self.datum, subset)
        if subset not in self._proj:
            self._proj[subset] = projector_to_aP(self.datum, subset)
        return self._proj[subset]

    def proj_covector(self, subset, j):
        """alpha_j composed with the projection onto a_P, as a covector."""
        subset = _norm_subset(self.datum, subset)
        key = (subset, j)
        if key not in self._proj_cov:
            self._proj_cov[key] = vecmat(self.datum.simple_roots[j],
                                         self.projector(subset))
        return self._proj_cov[key]

    def _nested(self, p_subset, q_subset):
        """The normalised pair (P, Q), which must satisfy P <= Q."""
        p, q = _norm_subset(self.datum, p_subset), _norm_subset(self.datum, q_subset)
        if not set(p) <= set(q):
            raise ValueError(f"parabolic {p} is not contained in {q}")
        return p, q

    def delta(self, p_subset, q_subset):
        """(j, alpha_j o proj_P) for j in Q - P, ascending.

        >>> from trunca.rootdata import build_root_datum
        >>> TruncationContext(build_root_datum("A2")).delta((0,), (0, 1))
        ((1, (Fraction(1, 2), Fraction(1, 1))),)
        """
        p, q = self._nested(p_subset, q_subset)
        return tuple((j, self.proj_covector(p, j)) for j in q if j not in p)

    def rel_weight(self, q_subset, j):
        """Fundamental weight of j relative to the sub-system on Q."""
        q_subset = _norm_subset(self.datum, q_subset)
        key = (q_subset, j)
        if key not in self._rel_weight:
            self._rel_weight[key] = relative_weight(self.datum, q_subset, j)
        return self._rel_weight[key]

    def hat_delta(self, p_subset, q_subset):
        """(j, Q-relative fundamental weight of j) for j in Q - P, ascending;
        each weight kills a_Q and every simple coroot of P."""
        p, q = self._nested(p_subset, q_subset)
        return tuple((j, self.rel_weight(q, j)) for j in q if j not in p)

    # -- cone indicators ----------------------------------------------------

    def tau(self, p_subset, q_subset, h) -> bool:
        """Acute-cone indicator: all relative simple roots strictly positive
        on h.  Exact; points on walls simply fail the strict inequality."""
        return all(dot(cov, h) > 0 for _, cov in self.delta(p_subset, q_subset))

    def tau_hat(self, p_subset, q_subset, h) -> bool:
        """Obtuse-cone indicator: all relative fundamental weights strictly
        positive on h.

        >>> from trunca.rootdata import build_root_datum
        >>> ctx = TruncationContext(build_root_datum("A2"))
        >>> h = tuple(a - b for a, b in zip(ctx.datum.simple_coroots[0],
        ...                                 ctx.datum.simple_coroots[1]))
        >>> ctx.tau_hat((), (0, 1), h)
        False
        """
        return all(dot(cov, h) > 0
                   for _, cov in self.hat_delta(p_subset, q_subset))

    # -- alternating sums ----------------------------------------------------

    def langlands_inversion_check(self, p_subset, q_subset, h) -> bool:
        """Does the alternating tau / tau-hat sum over intermediate
        parabolics equal the Kronecker delta of P and Q at h?

        Raises :class:`WallError` when h lies on a wall of any functional in
        the relevant family (the answer would be convention-dependent there).
        """
        p, q = self._nested(p_subset, q_subset)
        between = [j for j in q if j not in p]
        for j in between:
            if dot(self.proj_covector(p, j), h) == 0:
                raise WallError(f"h lies on the wall of relative root {j}")
            if dot(self.rel_weight(q, j), h) == 0:
                raise WallError(f"h lies on the wall of relative weight {j}")
        total = 0
        for size in range(len(between) + 1):
            for extra in combinations(between, size):
                r = tuple(sorted(p + extra))
                term = (self.tau(p, r, h) and self.tau_hat(r, q, h))
                total += (-1) ** size * term
        return total == (1 if p == q else 0)

    def gamma(self, p_subset, h, x) -> int:
        """The alternating-sum function of the pair (h, x) at the parabolic.

        h is first projected onto a_P; x is taken as given.  Defined for
        every rational input (walls contribute through the strict
        inequalities; no errors).

        >>> from trunca.rootdata import build_root_datum
        >>> ctx = TruncationContext(build_root_datum("A1"))
        >>> [ctx.gamma((), (Fraction(t, 2),), (2,)) for t in range(-1, 6)]
        [0, 0, 1, 1, 1, 1, 0]
        """
        p = _norm_subset(self.datum, p_subset)
        h_p = matvec(self.projector(p), h)
        h_minus_x = tuple(a - b for a, b in zip(h_p, x, strict=True))
        n = self.datum.rank_ss
        rest = [j for j in range(n) if j not in p]
        total = 0
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                q = tuple(sorted(p + extra))
                sign = (-1) ** (n - len(q))
                if self.tau(p, q, h_p) and self.tau_hat(q, self.full, h_minus_x):
                    total += sign
        return total

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
        rest = [j for j in range(self.datum.rank_ss) if j not in p]
        m = len(rest)
        if m == 0:
            return SupportBox(p, (), trivial=True)

        weights = [self.datum.fundamental_weights[j] for j in rest]
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
            (j, self.proj_covector(p, j),
             min(t[pos] for t in vertices), max(t[pos] for t in vertices))
            for pos, j in enumerate(rest))
        return SupportBox(p, entries)
