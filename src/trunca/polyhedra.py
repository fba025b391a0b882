"""Complementary polyhedra and their canonical semistable refinements.

A complementary polyhedron assigns a vertex ``X_s`` in the ambient space to
every Weyl chamber ``s`` so that adjacent vertices differ by a non-negative
multiple of the coroot separating the chambers.  Facets are indexed by
semi-standard parabolics; each facet has an exact-rational degree, and among
the facets of maximal degree there is a unique largest one — the canonical
refinement.  An alternating sum over all facets recovers the indicator of
the semistable (refinement = full group) case.

All hot paths run off three layers of caching: the Weyl group's coset
tables (``WeylGroup.min_reps``), per-datum tables (root-sum covectors and
candidate facet lists) shared by every polyhedron over that datum, and
per-polyhedron transported vertices ``s(X_s)`` computed once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ConsistencyError
from .linalg import dot, frac, vadd, vsub, zero_vec
from .parabolic import SemiStandardParabolic, enumerate_standard, semistandard_contains
from .rootdata import Folding, RootDatum, WeylElement
from .truncation import TruncationContext


class ComplementaryPolyhedron:
    """A candidate vertex family, aligned with ``datum.weyl.elements``."""

    def __init__(self, datum: RootDatum, vertices):
        vertices = tuple(tuple(frac(x) for x in v) for v in vertices)
        if len(vertices) != datum.weyl.order:
            raise ValueError(f"need one vertex per Weyl element "
                             f"({datum.weyl.order}), got {len(vertices)}")
        for v in vertices:
            if len(v) != datum.dim:
                raise ValueError("vertex dimension mismatch")
        self.datum = datum
        self.vertices = vertices
        self._transported = None

    def to_mapping(self):
        return {w.label: list(self.vertices[w.index])
                for w in self.datum.weyl.elements}

    def transported(self):
        """s(X_s) for every chamber s, the quantity every facet reads."""
        if self._transported is None:
            weyl = self.datum.weyl
            self._transported = tuple(
                weyl.act(w, self.vertices[w.index]) for w in weyl.elements)
        return self._transported

    def __repr__(self):
        return (f"ComplementaryPolyhedron({self.datum.label!r}, "
                f"{len(self.vertices)} vertices)")


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
    a non-negative rational multiple of gamma's coroot.

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
    for u in weyl.elements:
        uinv = weyl.inv(u)
        for i in range(datum.rank_ss):
            if uinv.root_perm[datum.simple_root_positions[i]] >= n_pos:
                continue  # visit the edge from its low-length side only
            v = weyl.mult(weyl.simple[i], u)
            gamma_vee = weyl.act(uinv, datum.simple_coroots[i])
            diff = vsub(cp.vertices[v.index], cp.vertices[u.index])
            k = next(a for a, x in enumerate(gamma_vee) if x)
            b = diff[k] / gamma_vee[k]
            if any(dx != b * g for dx, g in zip(diff, gamma_vee)):
                return ValidationResult(False, u, i,
                                        "edge difference is not a multiple "
                                        "of the separating coroot")
            if b < 0:
                return ValidationResult(False, u, i,
                                        "edge multiple is negative")
    return ValidationResult(True)


def generate(datum: RootDatum, points, weights, shift=None) -> ComplementaryPolyhedron:
    """Build a polyhedron from antidominant points: X_s = sum c_k s^{-1}(Y_k) + C.

    Each Y_k must satisfy <alpha_i, Y_k> <= 0 for all simple roots and each
    weight c_k must be >= 0; the edge condition then holds automatically
    (with b = -sum c_k <alpha_i, Y_k>), and is re-checked before returning.

    >>> from trunca.rootdata import build_root_datum
    >>> d = build_root_datum("A1")
    >>> generate(d, [(-2,)], [1]).vertices
    ((Fraction(-2, 1),), (Fraction(2, 1),))
    """
    points = [tuple(frac(x) for x in y) for y in points]
    weights = [frac(c) for c in weights]
    if len(points) != len(weights):
        raise ValueError("need one weight per point")
    for y in points:
        for i in range(datum.rank_ss):
            if dot(datum.simple_roots[i], y) > 0:
                raise ValueError(f"point {y} is not antidominant")
    for c in weights:
        if c < 0:
            raise ValueError("weights must be non-negative")
    if shift is None:
        shift = zero_vec(datum.dim)
    weyl = datum.weyl
    vertices = []
    for w in weyl.elements:
        x = tuple(frac(x) for x in shift)
        winv = weyl.inv(w)
        for y, c in zip(points, weights):
            if c:
                x = vadd(x, tuple(c * t for t in weyl.act(winv, y)))
        vertices.append(x)
    cp = ComplementaryPolyhedron(datum, vertices)
    res = validate(cp)
    if not res:
        raise ConsistencyError(f"generated family failed validation: {res.reason}")
    return cp


def random_polyhedron(datum: RootDatum, seed,
                      require_wall_free: bool = True) -> ComplementaryPolyhedron:
    """A seeded random polyhedron from the antidominant-family generator.

    Each draw takes zero to three antidominant points with their weights
    and a shift, all off the small-denominator lattice (random sevenths /
    elevenths / thirteenths offsets); by default draws are rejection-sampled
    until no facet functional vanishes on any transported vertex.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = datum.rank_ss
    for _ in range(200):
        den = rng.choice((7, 11, 13))
        k = rng.randint(0, 3)
        points = []
        for _ in range(k):
            y = [-(rng.randint(0, 4) + Fraction(rng.randint(1, den - 1), den))
                 for _ in range(n)]
            y += [Fraction(0)] * datum.rank_central
            points.append(tuple(y))
        weights = [rng.randint(0, 3) + Fraction(rng.randint(1, den - 1), den)
                   for _ in range(k)]
        c = [rng.randint(-4, 4) + Fraction(rng.randint(1, den - 1), den)
             for _ in range(n)]
        c += [Fraction(0)] * datum.rank_central
        cp = generate(datum, points, weights, tuple(c))
        if not require_wall_free or vertex_walls_clear(cp):
            return cp
    raise ConsistencyError("could not sample a wall-free polyhedron")


# -- shared per-datum tables --------------------------------------------------

class _DatumTables:
    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.ctx = TruncationContext(datum)
        self._root_sum = {}
        self._candidates = {}

    def root_sum(self, i_subset, q_subset):
        """Covector: sum of reduced positive roots supported in Q but not in I."""
        key = (tuple(sorted(i_subset)), tuple(sorted(q_subset)))
        if key not in self._root_sum:
            i_set, q_set = set(key[0]), set(key[1])
            total = list(zero_vec(self.datum.dim))
            for r in self.datum.positive_roots(reduced_only=True):
                supp = {a for a, cc in enumerate(r.coords) if cc}
                if supp <= q_set and not supp <= i_set:
                    total = [a + b for a, b in zip(total, r.cov)]
            self._root_sum[key] = tuple(total)
        return self._root_sum[key]

    def candidates(self, q_subset):
        """All semi-standard facets contained in the standard parabolic of
        q_subset: subset inside it, rep in its Weyl subgroup."""
        q_subset = tuple(sorted(q_subset))
        if q_subset not in self._candidates:
            weyl = self.datum.weyl
            sub_elems = weyl.subgroup(q_subset)
            out = []
            for size in range(len(q_subset) + 1):
                for subset in combinations(q_subset, size):
                    for w in sub_elems:
                        if weyl.is_min_rep(w, subset):
                            out.append(SemiStandardParabolic(subset, w))
            self._candidates[q_subset] = tuple(out)
        return self._candidates[q_subset]


def _tables(datum: RootDatum) -> _DatumTables:
    """The datum's tables, cached on the datum itself so they die with it."""
    tables = datum.__dict__.get("_polyhedra_tables")
    if tables is None:
        tables = datum._polyhedra_tables = _DatumTables(datum)
    return tables


def vertex_walls_clear(cp: ComplementaryPolyhedron) -> bool:
    """Do all facet functionals avoid zero on every transported vertex?

    A sufficient genericity condition for the uniqueness assertions: every
    projected simple root and every relative fundamental weight pairs
    nonzero against every s(X_s).
    """
    ctx = _tables(cp.datum).ctx
    covs = []
    for subset in enumerate_standard(cp.datum):
        covs.extend(ctx.walls((), subset)[1])
        covs.extend(ctx.walls(subset, ctx.full)[0])
    for t in cp.transported():
        for cov in covs:
            if dot(cov, t) == 0:
                return False
    return True


# -- facet degrees and refinement ---------------------------------------------

def _full(datum: RootDatum):
    return tuple(range(datum.rank_ss))


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
    if q_subset is None:
        q_subset = _full(cp.datum)
    if not set(facet.subset) <= set(q_subset):
        raise ValueError(f"facet subset {facet.subset} is not inside "
                         f"{tuple(q_subset)}")
    tab = _tables(cp.datum)
    cov = tab.root_sum(facet.subset, q_subset)
    return dot(cov, cp.transported()[facet.rep.index])


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
    tab = _tables(datum)
    weyl = datum.weyl
    trans = cp.transported()
    p_subset = tuple(sorted(facet.subset))
    minrep_p = weyl.min_reps(p_subset)
    coset = [v for v in weyl.elements if minrep_p[v.index] == facet.rep.index]
    for size in range(len(p_subset)):
        for r_subset in combinations(p_subset, size):
            weights = tab.ctx.walls(r_subset, p_subset)[1]
            minrep_r = weyl.min_reps(r_subset)
            seen = set()
            for v in coset:
                delta_idx = minrep_r[v.index]
                if delta_idx in seen:
                    continue
                seen.add(delta_idx)
                point = trans[delta_idx]
                if all(dot(wt, point) > 0 for wt in weights):
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
    if q_subset is None:
        q_subset = _full(datum)
    q_subset = tuple(sorted(q_subset))
    tab = _tables(datum)
    trans = cp.transported()

    best = None
    best_set = []
    for cand in tab.candidates(q_subset):
        val = dot(tab.root_sum(cand.subset, q_subset), trans[cand.rep.index])
        if best is None or val > best:
            best = val
            best_set = [cand]
        elif val == best:
            best_set.append(cand)

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
    for j, cov in tab.ctx.delta(facet.subset, q_subset):
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
    tab = _tables(datum)
    trans = cp.transported()
    n = datum.rank_ss
    full = _full(datum)
    total = 0
    for cand in tab.candidates(full):
        point = trans[cand.rep.index]
        if tab.ctx.tau_hat(cand.subset, full, point):
            total += (-1) ** (n - len(cand.subset))
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
    vertices = []
    for s in folding.small.weyl.elements:
        w = corr[s.index]
        vertices.append(folding.project_vector(cp.vertices[w.index]))
    out = ComplementaryPolyhedron(folding.small, vertices)
    res = validate(out)
    if not res:
        raise ConsistencyError(
            f"projected family failed validation: {res.reason}")
    return out
