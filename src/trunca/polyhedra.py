"""Complementary polyhedra and their canonical semistable refinements.

A complementary polyhedron assigns a vertex ``X_s`` in the ambient space to
every Weyl chamber ``s`` so that adjacent vertices differ by a non-negative
multiple of the coroot separating the chambers.  Facets are indexed by
semi-standard parabolics; each facet has an exact-rational degree, and among
the facets of maximal degree there is a unique largest one — the canonical
refinement.  An alternating sum over all facets recovers the indicator of
the semistable (refinement = full group) case.

A polyhedron keeps integer vertex numerators over one denominator, and each
check reads the sign of an integer pairing (the edge test cross-multiplies;
walls are ``datum.truncation.integer_walls`` rows).  A ``Fraction`` is made
only where a value leaves the layer: ``degree``, ``vertices``, ``to_mapping``.

Every polyhedron over a datum reads the datum's tables: its Weyl group's
coset tables (``WeylGroup.min_reps``) and its nested-pair tables
(``datum.truncation``: the root sums behind the degrees and the relative
roots and weights behind the refinement checks).  Each polyhedron computes
its transported vertices ``s(X_s)`` once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ConsistencyError
from .linalg import dot, frac
from .parabolic import (
    SemiStandardParabolic,
    enumerate_semistandard,
    enumerate_standard,
    semistandard_contains,
)
from .rootdata import Folding, RootDatum, WeylElement


def _scaled(rows, den=1):
    """``(numerators, d)``: the rows, read over ``den``, as integer rows over
    their least common denominator d.  Entries are ints or anything ``frac``
    reads, so a float raises ``TypeError``."""
    if type(den) is not int or den < 1:
        raise ValueError(f"a denominator must be a positive int, got {den!r}")
    rows = [[x if type(x) is int else frac(x) for x in row] for row in rows]
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                 for row in rows), d * den


class ComplementaryPolyhedron:
    """A candidate vertex family, aligned with ``datum.weyl.elements``.  The
    vertices are read over the argument ``den`` and kept as integer rows,
    ``numerators``, over one common denominator, the attribute ``den``."""

    def __init__(self, datum: RootDatum, vertices, den=1):
        self.numerators, self.den = _scaled(vertices, den)
        if len(self.numerators) != datum.weyl.order:
            raise ValueError(f"need one vertex per Weyl element "
                             f"({datum.weyl.order}), got {len(self.numerators)}")
        if any(len(v) != datum.dim for v in self.numerators):
            raise ValueError("vertex dimension mismatch")
        self.datum = datum
        self._transported = None

    @property
    def vertices(self):
        """The vertices as ``Fraction`` tuples, for output."""
        return tuple(tuple(Fraction(x, self.den) for x in v) for v in self.numerators)

    def to_mapping(self):
        return {w.label: list(v) for w, v in zip(self.datum.weyl.elements, self.vertices)}

    def transported(self):
        """The numerators of s(X_s) over ``den`` for every chamber s, the
        quantity every facet reads."""
        if self._transported is None:
            weyl = self.datum.weyl
            self._transported = tuple(
                weyl.act(w, self.numerators[w.index]) for w in weyl.elements)
        return self._transported

    def __repr__(self):
        return (f"ComplementaryPolyhedron({self.datum.label!r}, "
                f"{len(self.numerators)} vertices)")


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of the edge check; falsy results carry the violating edge."""

    ok: bool
    element: WeylElement | None = None
    simple_index: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate(cp: ComplementaryPolyhedron) -> ValidationResult:
    """Check the defining edge condition on every adjacent chamber pair.

    Each unordered pair {u, s_i u} is examined once, from the side u where
    gamma = u^{-1}(alpha_i) is positive; the difference of vertices must be
    a non-negative rational multiple of gamma's coroot g.  With k the first
    nonzero entry of g, that is diff[j] * g[k] == diff[k] * g[j] for every j
    and diff[k] * g[k] >= 0, all in integers.

    >>> from trunca.rootdata import build_root_datum
    >>> d = build_root_datum("A1")
    >>> bool(validate(ComplementaryPolyhedron(d, [(-2,), (2,)])))
    True
    >>> res = validate(ComplementaryPolyhedron(d, [(2,), (-2,)]))
    >>> bool(res), res.reason
    (False, 'edge multiple is negative')
    """
    datum = cp.datum
    weyl = datum.weyl
    n_pos = datum.n_positive
    nums = cp.numerators
    for u in weyl.elements:
        uinv = weyl.inv(u)
        for i in range(datum.rank_ss):
            if uinv.root_perm[datum.simple_root_positions[i]] >= n_pos:
                continue  # visit the edge from its low-length side only
            v = weyl.mult(weyl.simple[i], u)
            g = weyl.act(uinv, datum.simple_coroots[i])
            diff = [a - b for a, b in zip(nums[v.index], nums[u.index])]
            k = next(a for a, x in enumerate(g) if x)
            if any(d * g[k] != diff[k] * x for d, x in zip(diff, g)):
                return ValidationResult(False, u, i,
                                        "edge difference is not a multiple "
                                        "of the separating coroot")
            if diff[k] * g[k] < 0:
                return ValidationResult(False, u, i,
                                        "edge multiple is negative")
    return ValidationResult(True)


def generate(datum: RootDatum, points, weights, shift=None,
             den=1) -> ComplementaryPolyhedron:
    """Build a polyhedron from antidominant points: X_s = sum c_k s^{-1}(Y_k) + C.

    Each Y_k must satisfy <alpha_i, Y_k> <= 0 for all simple roots and each
    weight c_k must be >= 0; the edge condition then holds automatically
    (with b = -sum c_k <alpha_i, Y_k>), and is re-checked before returning.
    Points, weights and the shift are read over ``den`` and scaled to
    integers over one denominator d, so the vertices are integers over d^2.

    >>> from trunca.rootdata import build_root_datum
    >>> d = build_root_datum("A1")
    >>> generate(d, [(-2,)], [1]).vertices
    ((Fraction(-2, 1),), (Fraction(2, 1),))
    """
    if shift is None:
        shift = (0,) * datum.dim
    (shift, weights, *points), scale = _scaled([shift, weights, *points], den)
    if len(points) != len(weights):
        raise ValueError("need one weight per point")
    for y in points:
        if any(dot(alpha, y) > 0 for alpha in datum.simple_roots):
            raise ValueError(f"point {tuple(Fraction(a, scale) for a in y)} "
                             f"is not antidominant")
    if any(c < 0 for c in weights):
        raise ValueError("weights must be non-negative")
    weyl = datum.weyl
    base = tuple(scale * a for a in shift)
    vertices = []
    for w in weyl.elements:
        x = base
        winv = weyl.inv(w)
        for y, c in zip(points, weights):
            if c:
                x = tuple(a + c * t for a, t in zip(x, weyl.act(winv, y), strict=True))
        vertices.append(x)
    cp = ComplementaryPolyhedron(datum, vertices, scale * scale)
    res = validate(cp)
    if not res:
        raise ConsistencyError(f"generated family failed validation: {res.reason}")
    return cp


def random_polyhedron(datum: RootDatum, seed,
                      require_wall_free: bool = True) -> ComplementaryPolyhedron:
    """A seeded random polyhedron from the antidominant-family generator.

    Each draw takes zero to three antidominant points with their weights
    and a shift, all off the small-denominator lattice: integer numerators
    over one denominator of 7, 11 or 13, none of them divisible by it.  By
    default draws are rejection-sampled until no facet functional vanishes
    on any transported vertex.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = datum.rank_ss
    central = [0] * datum.rank_central
    for _ in range(200):
        den = rng.choice((7, 11, 13))
        k = rng.randint(0, 3)
        points = [[-(rng.randint(0, 4) * den + rng.randint(1, den - 1))
                   for _ in range(n)] + central for _ in range(k)]
        weights = [rng.randint(0, 3) * den + rng.randint(1, den - 1)
                   for _ in range(k)]
        c = [rng.randint(-4, 4) * den + rng.randint(1, den - 1) for _ in range(n)]
        cp = generate(datum, points, weights, c + central, den)
        if not require_wall_free or vertex_walls_clear(cp):
            return cp
    raise ConsistencyError("could not sample a wall-free polyhedron")


def vertex_walls_clear(cp: ComplementaryPolyhedron) -> bool:
    """Do all facet functionals avoid zero on every transported vertex?

    A sufficient genericity condition for the uniqueness assertions: every
    projected simple root and every relative fundamental weight pairs
    nonzero against every s(X_s).
    """
    ctx = cp.datum.truncation
    covs = []
    for subset in enumerate_standard(cp.datum):
        covs.extend(ctx.integer_walls((), subset)[1])
        covs.extend(ctx.integer_walls(subset, ctx.full)[0])
    return all(dot(cov, t) for t in cp.transported() for cov in covs)


# -- facet degrees and refinement ---------------------------------------------

def degree(cp: ComplementaryPolyhedron, facet: SemiStandardParabolic,
           q_subset=None) -> Fraction:
    """Degree of a semi-standard facet inside the standard parabolic Q.

    Pairs the sum of reduced positive roots supported in Q but outside the
    facet's subset against the transported vertex of the facet's chamber;
    any chamber representative gives the same value.

    >>> from trunca.rootdata import build_root_datum
    >>> d = build_root_datum("A1")
    >>> cp = ComplementaryPolyhedron(d, [(2,), (2,)])  # constant coroot family
    >>> degree(cp, SemiStandardParabolic((), d.weyl.identity))
    Fraction(2, 1)
    """
    ctx = cp.datum.truncation
    if q_subset is None:
        q_subset = ctx.full
    if not set(facet.subset) <= set(q_subset):
        raise ValueError(f"facet subset {facet.subset} is not inside "
                         f"{tuple(q_subset)}")
    return Fraction(dot(ctx.root_sum(facet.subset, q_subset),
                        cp.transported()[facet.rep.index]), cp.den)


def is_semistable(cp: ComplementaryPolyhedron, facet: SemiStandardParabolic,
                  q_subset=None) -> bool:
    """Is the facet semistable: no properly smaller facet sees positive
    relative weights at its transported vertex?

    Quantifies over every semi-standard (R, delta) properly contained in the
    facet; tau-hat is taken relative to the facet's subset.
    """
    datum = cp.datum
    if q_subset is not None:
        if not set(facet.subset) <= set(q_subset):
            raise ValueError("facet is not inside the given parabolic")
    ctx = datum.truncation
    weyl = datum.weyl
    trans = cp.transported()
    p_subset = tuple(sorted(facet.subset))
    minrep_p = weyl.min_reps(p_subset)
    coset = [v for v in weyl.elements if minrep_p[v.index] == facet.rep.index]
    for size in range(len(p_subset)):
        for r_subset in combinations(p_subset, size):
            weights = ctx.integer_walls(r_subset, p_subset)[1]
            minrep_r = weyl.min_reps(r_subset)
            for delta_idx in {minrep_r[v.index] for v in coset}:
                if all(dot(wt, trans[delta_idx]) > 0 for wt in weights):
                    return False
    return True


def canonical_refinement(cp: ComplementaryPolyhedron,
                         q_subset=None) -> SemiStandardParabolic:
    """The unique largest facet of maximal degree inside the parabolic.

    Enumerates every semi-standard facet contained in Q, takes the set of
    maximal degree, and returns its unique largest element under inclusion.
    It always cross-checks the result against the two clauses that
    characterize the refinement, semistability and strictly positive
    relative simple roots; any failure raises
    :class:`~trunca.errors.ConsistencyError`.

    >>> from trunca.rootdata import build_root_datum
    >>> d = build_root_datum("A1")
    >>> canonical_refinement(ComplementaryPolyhedron(d, [(1,), (1,)]))
    SemiStandardParabolic(subset=(), rep=e)
    >>> canonical_refinement(generate(d, [(-2,)], [1]))
    SemiStandardParabolic(subset=(0,), rep=e)
    """
    datum = cp.datum
    ctx = datum.truncation
    q_subset = ctx.full if q_subset is None else tuple(sorted(q_subset))
    trans = cp.transported()

    # degrees compared as integers: every one is over the same cp.den
    degrees = [(cand, dot(ctx.root_sum(cand.subset, q_subset), trans[cand.rep.index]))
               for cand in enumerate_semistandard(datum, q_subset)]
    best = max(val for _, val in degrees)
    best_set = [cand for cand, val in degrees if val == best]

    largest = [cand for cand in best_set
               if all(semistandard_contains(datum, cand, o) for o in best_set)]
    if len(largest) != 1:
        raise ConsistencyError(
            f"maximal-degree facets have {len(largest)} largest elements "
            f"(expected exactly one): {best_set}")
    facet = largest[0]

    if not is_semistable(cp, facet, q_subset):
        raise ConsistencyError(f"refinement {facet} is not semistable")
    point = trans[facet.rep.index]
    between = [j for j in q_subset if j not in facet.subset]
    for j, cov in zip(between, ctx.integer_walls(facet.subset, q_subset)[0],
                      strict=True):
        if dot(cov, point) <= 0:
            raise ConsistencyError(
                f"refinement {facet} fails strict positivity at "
                f"relative root {j}")
    return facet


def semistability_indicator(cp: ComplementaryPolyhedron) -> int:
    """Alternating sum over all facets of the obtuse-cone indicator at the
    transported vertex; equals 1 exactly when the refinement is the full
    group (asserted), 0 otherwise.
    """
    datum = cp.datum
    ctx = datum.truncation
    trans = cp.transported()
    full = ctx.full
    total = 0
    for cand in enumerate_semistandard(datum):
        point = trans[cand.rep.index]
        if all(dot(wt, point) > 0 for wt in ctx.integer_walls(cand.subset, full)[1]):
            total += (-1) ** (len(full) - len(cand.subset))
    ref = canonical_refinement(cp, full)
    expected = 1 if (ref.subset == full and ref.rep.length == 0) else 0
    if total != expected:
        raise ConsistencyError(
            f"indicator {total} disagrees with refinement {ref}")
    return total


def project_polyhedron(cp: ComplementaryPolyhedron,
                       folding: Folding) -> ComplementaryPolyhedron:
    """Push a polyhedron through a diagram folding.

    Each folded chamber takes the orbit-average of the vertex at its
    sigma-fixed representative; the result is validated over the folded
    datum before returning.
    """
    if cp.datum is not folding.big:
        raise ValueError("polyhedron is not over the folding's big datum")
    corr = folding.weyl_correspondence
    vertices = [folding.project_vector(cp.numerators[corr[s.index].index])
                for s in folding.small.weyl.elements]
    out = ComplementaryPolyhedron(folding.small, vertices, cp.den)
    res = validate(out)
    if not res:
        raise ConsistencyError(
            f"projected family failed validation: {res.reason}")
    return out
