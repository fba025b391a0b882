"""Cone characteristic functions on parabolic families and their
alternating sums.

A root datum has one :class:`TruncationContext`, ``datum.truncation``, and
it is the one home of the tables of nested pairs P <= Q of standard
parabolics: ``walls`` gives the relative simple roots and the relative
fundamental weights of a pair (``integer_walls`` the same rows scaled to
integers), ``root_sum`` the sum of the reduced positive roots of Q outside
P, each built once per pair.  Strict positivity against
the roots or the weights of ``walls`` is the acute cone tau or the obtuse
cone tau-hat of the pair.
``langlands_inversion_check`` evaluates the alternating sum over
intermediate parabolics that should telescope to a Kronecker delta, and
``gamma`` is the compactly-supported alternating-sum function whose support
lies in the convex hull of the hyperplane-arrangement vertices that
``gamma_support_box`` returns.
Both sums pair h (and x) with each wall once per call and then share one
2^m-term sum over subsets.

Everything is exact: inputs are rational vectors, indicators compare exact
rationals to zero, and the arrangement's vertices solve rational systems.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import WallError
from .linalg import basis_vec, dot, lcm_den, matvec, scaled_int_vec, solve, vecmat
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


def _require_nested(p, q) -> None:
    if not set(p) <= set(q):
        raise ValueError(f"parabolic {p} is not contained in {q}")


class TruncationContext:
    """The tables of nested pairs of standard parabolics of one root datum,
    one entry per pair; ``datum.truncation`` is the datum's one context."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.full = tuple(range(datum.rank_ss))
        self._proj = {}
        self._walls = {}
        self._integer_walls = {}
        self._root_sum = {}

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
        >>> build_root_datum("A2").truncation.walls((0,), (0, 1))
        (((Fraction(1, 2), Fraction(1, 1)),), ((Fraction(1, 3), Fraction(2, 3)),))
        """
        p, q = _norm_subset(self.datum, p_subset), _norm_subset(self.datum, q_subset)
        key = (p, q)
        if key not in self._walls:
            _require_nested(p, q)
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

    def integer_walls(self, p_subset, q_subset):
        """``walls(P, Q)`` with each row scaled by the lcm of its
        denominators: integer rows with the signs of the ``walls`` rows on
        every vector, for the checks that read signs only.

        >>> from trunca.rootdata import build_root_datum
        >>> build_root_datum("A2").truncation.integer_walls((0,), (0, 1))
        (((1, 2),), ((1, 2),))
        """
        key = (_norm_subset(self.datum, p_subset), _norm_subset(self.datum, q_subset))
        if key not in self._integer_walls:
            self._integer_walls[key] = tuple(
                tuple(scaled_int_vec(row, lcm_den(row)) for row in rows)
                for rows in self.walls(*key))
        return self._integer_walls[key]

    def root_sum(self, p_subset, q_subset):
        """The covector 2 rho_P^Q of the nested pair P <= Q: the sum of the
        reduced positive roots supported in Q but not in P.

        >>> from trunca.rootdata import build_root_datum
        >>> build_root_datum("A2").truncation.root_sum((0,), (0, 1))
        (1, 2)
        """
        key = (_norm_subset(self.datum, p_subset), _norm_subset(self.datum, q_subset))
        if key not in self._root_sum:
            _require_nested(*key)
            p, q = set(key[0]), set(key[1])
            total = [0] * self.datum.dim
            for r in self.datum.positive_roots(reduced_only=True):
                support = {a for a, c in enumerate(r.coords) if c}
                if support <= q and not support <= p:
                    total = [a + b for a, b in zip(total, r.cov)]
            self._root_sum[key] = tuple(total)
        return self._root_sum[key]

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
        >>> ctx = build_root_datum("A1").truncation
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

    def gamma_support_box(self, p_subset, x) -> tuple:
        """The vertices that bound the support of ``gamma(P, ., x)``.

        With t_j = <alpha_j o proj, h>, w_j = <varpi_j, h_P> and
        c_j = <varpi_j, x> for j outside P, the alternating sum in
        :meth:`gamma` factors as the product of [t_j > 0] - [w_j > c_j]
        (the relative roots and weights do not depend on Q), so the support
        lies in K = {t : t_j (w_j - c_j) <= 0 for every j}.  K is a union of
        polytopes, bounded because (<varpi_j, varpi_k^vee>) is a P-matrix
        (Arthur's compactness of Gamma'_P), and their vertices are vertices
        of the arrangement t_j = 0, w_j = c_j.  So the support lies in the
        convex hull of the arrangement vertices in K, walls included, which
        are returned as tuples of the t_j, j outside P ascending.  For the
        full group the one vertex is the empty point.

        >>> from trunca.rootdata import build_root_datum
        >>> ctx = build_root_datum("A1").truncation
        >>> ctx.gamma_support_box((), (2,))
        ((Fraction(0, 1),), (Fraction(2, 1),))
        >>> ctx.gamma_support_box((0,), (2,))
        ((),)
        """
        p = _norm_subset(self.datum, p_subset)
        weights = self.walls(p, self.full)[1]
        rest = [j for j in self.full if j not in p]
        m = len(rest)
        # h_P is sum_k t_k varpi_k^vee plus a central part that every
        # fundamental weight kills, so w = w_rows . t.
        w_rows = [tuple(dot(wt, self.datum.fundamental_coweights[k]) for k in rest)
                  for wt in weights]
        consts = [dot(wt, x) for wt in weights]
        planes = ([(basis_vec(m, pos), 0) for pos in range(m)]
                  + list(zip(w_rows, consts, strict=True)))
        vertices = {}
        for chosen in combinations(planes, m):
            try:
                t = solve([row for row, _ in chosen], [c for _, c in chosen])
            except ValueError:  # the chosen hyperplanes meet in no single point
                continue
            w = matvec(w_rows, t)
            if all(t[k] * (w[k] - consts[k]) <= 0 for k in range(m)):
                vertices[tuple(t)] = None
        # t = 0 is always such a vertex, so there is at least one
        return tuple(vertices)
