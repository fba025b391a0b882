"""Lattice sums of truncation profiles and their quasi-polynomial laws.

Fix a standard subset ``P``, a full-rank lattice inside the semisimple part
of the attached coordinate subspace, and a base point.  For a parameter
vector ``X`` the sum of the truncation profile ``gamma`` over the shifted
lattice is finite (the profile has bounded support), and as ``X`` runs over
a second lattice the sum obeys a quasi-polynomial law: on each residue class
of X modulo some periods it is a polynomial in X.

This module evaluates the sum three independent ways so the routes can be
played against each other:

* ``brute_sum`` -- direct enumeration over certified bounds, read from the
  vertices of the hyperplane arrangement that bounds the profile's support;
* ``product_eval`` -- an exact generating-function calculation, where each
  cone in the profile's signed decomposition contributes the sum over its
  fundamental parallelepiped divided by one geometric series per ray, and
  the removable singularity at the unit is extracted by Laurent expansion
  in rationals;
* ``fit_quasipolynomial`` -- reconstruction of the law itself from sampled
  values, one polynomial per residue class, with the admissible frequencies
  read off from the cones' character groups.

All arithmetic is exact: rationals throughout.  The one place roots of
unity enter is the fitted law's frequency check, which reduces integer
exponent counts with :class:`~trunca.cyclotomic.CyclotomicNumber`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .errors import ConsistencyError, LatticeError
from .linalg import (
    Vec,
    dot,
    enumerate_box,
    frac,
    lcm_den,
    mat_inverse,
    matvec,
    solve,
    vadd,
    vec,
    vscale,
    zero_vec,
)
from .linalg import integer_smith, scaled_int_vec
from .rootdata import RootDatum
from .truncation import _norm_subset


def _binomial(k: int, i: int) -> Fraction:
    """Generalised binomial coefficient C(k, i), k any integer, i >= 0.

    >>> _binomial(-2, 3)
    Fraction(-4, 1)
    """
    out = Fraction(1)
    for t in range(i):
        out *= Fraction(k - t, t + 1)
    return out


# ---------------------------------------------------------------------------
# truncated power series in eps = u - 1, over the rationals


def _ser_mul(a, b) -> list:
    """Product of two power series, truncated to the shorter length."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _falling_sums(counts, terms: int) -> list:
    """Coefficients of sum_e counts[e] * u**e at u = 1 + eps, through eps**(terms-1).

    The coefficient of eps**i is sum_e counts[e] * C(e, i); the falling
    factorials stay integers and one exact division by i! ends each sum.
    """
    sums = [0] * terms
    for e, c in counts.items():
        falling = c
        for i in range(terms):
            sums[i] += falling
            falling *= e - i
    return [Fraction(s, math.factorial(i)) for i, s in enumerate(sums)]


def _inverse_geometric(a: int, terms: int) -> list:
    """The power series of eps / (1 - u**a) at u = 1 + eps, a != 0.

    ``1 - (1 + eps)**a = eps * bracket`` with
    ``bracket = -(a + C(a, 2) eps + C(a, 3) eps**2 + ...)``, whose leading
    coefficient is nonzero, so the series is ``1 / bracket``.

    >>> _inverse_geometric(2, 3)   # eps / (1 - (1 + eps)**2) = -1 / (2 + eps)
    [Fraction(-1, 2), Fraction(1, 4), Fraction(-1, 8)]
    """
    bracket = [-_binomial(a, i + 1) for i in range(terms)]
    out = [1 / bracket[0]]
    for k in range(1, terms):
        acc = sum(bracket[i] * out[k - i] for i in range(1, k + 1))
        out.append(-acc / bracket[0])
    return out


def _span_mod(generators, moduli) -> tuple:
    """The subgroup of Z/m_1 + ... + Z/m_r spanned by the generators.

    Each generator g adds the cosets H + t*g for t below the order of g
    modulo the subgroup H built so far, so the work grows with the size of
    the subgroup, not with the product of the moduli.
    """
    group = [tuple(0 for _ in moduli)]
    for gen in generators:
        gen = tuple(g % m for g, m in zip(gen, moduli, strict=True))
        members = set(group)
        step = gen
        grown = list(group)
        while step not in members:
            grown.extend(tuple((h + s) % m for h, s, m in zip(elt, step, moduli))
                         for elt in group)
            step = tuple((s + g) % m for s, g, m in zip(step, gen, moduli))
        group = grown
    return tuple(group)


# ---------------------------------------------------------------------------
# the lattice data


def _lattice_coords(coords) -> tuple:
    """The coordinates as ints; a float or a non-integer raises LatticeError."""
    coords = tuple(coords)
    if any(isinstance(c, float) or Fraction(c).denominator != 1 for c in coords):
        raise LatticeError("point is not on the declared parameter lattice")
    return tuple(int(c) for c in coords)


@dataclass(frozen=True)
class _AdaptedCone:
    """Per-superset data for the generating-function route.

    One cone of the signed decomposition, described in a basis adapted to
    the superset ``q``: each basis direction carries its dual covector, a
    flag saying whether the parameter ``X`` shifts its threshold, and the
    integer exponent of the auxiliary variable.  In the dual coordinates the
    spec's lattice is the span of ``generators`` (the images of its basis
    vectors), of index ``index`` in Z^rank; ``multiples[j]`` is the least
    m > 0 with m*e_j in it, so the cone's lattice points repeat with those
    periods along its rays.
    """

    subset: tuple
    duals: tuple
    with_x: tuple
    index: int
    k_exponents: tuple
    generators: tuple
    multiples: tuple


class LatticeSpec:
    """A lattice of profile arguments, with everything the three routes need.

    ``basis`` spans a full-rank lattice in the semisimple part of the
    coordinate subspace attached to ``subset``; ``base_point`` shifts every
    lattice point before the profile is evaluated.  The parameter ``X``
    ranges over Z^dim in coweight coordinates, so ``x_basis`` is the
    standard basis: the fundamental coweights plus the central basis.
    ``denominator`` is the least integer that clears every pairing the
    generating-function route takes: the adapted bases' duals against
    ``basis``, and the fundamental weights' own entries.

    >>> from .rootdata import build_root_datum
    >>> d = build_root_datum([[2]])
    >>> spec = LatticeSpec(d, (), [d.simple_coroots[0]])
    >>> spec.denominator
    2
    """

    def __init__(self, datum: RootDatum, subset, basis, base_point=None):
        self.datum = datum
        self.subset = _norm_subset(datum, subset)
        n = len(datum.cartan)
        dim = datum.dim
        rest = [j for j in range(n) if j not in self.subset]
        self.rank = len(rest)

        self.basis = tuple(vec(b) for b in basis)
        if len(self.basis) != self.rank:
            raise LatticeError(
                f"need {self.rank} basis vectors for this subset, got {len(self.basis)}")
        for b in self.basis:
            if len(b) != dim:
                raise LatticeError("basis vector has the wrong dimension")
            if any(b[i] != 0 for i in self.subset) or any(b[k] != 0 for k in range(n, dim)):
                raise LatticeError(
                    "basis vector is not in the semisimple part of the subspace")

        if base_point is None:
            base_point = zero_vec(dim)
        self.base_point = vec(base_point)
        if len(self.base_point) != dim:
            raise LatticeError("base point has the wrong dimension")
        if any(self.base_point[i] != 0 for i in self.subset):
            raise LatticeError("base point does not lie in the coordinate subspace")

        self.x_basis = tuple(vec(x) for x in
                             datum.fundamental_coweights + datum.central_basis)
        if self.rank:
            t_mat = tuple(tuple(b[j] for b in self.basis) for j in rest)
            try:
                self._t_mat_inv = mat_inverse(t_mat)
            except ValueError:
                raise LatticeError("lattice basis is not full rank") from None
        else:
            self._t_mat_inv = ()

        # adapted bases for every superset, and with them the denominator
        raw = []
        dens = [1]
        for size in range(len(self.subset), n + 1):
            for extra in itertools.combinations(rest, size - len(self.subset)):
                q = tuple(sorted(self.subset + extra))
                vectors, duals, with_x = self._adapted_basis(q)
                coords = tuple(tuple(dot(cv, b) for b in self.basis) for cv in duals)
                for row in coords:
                    dens.append(lcm_den(row))
                raw.append((q, vectors, duals, with_x, coords))
        dens.extend(lcm_den(datum.fundamental_weights[j]) for j in rest)
        self.denominator = math.lcm(*dens)

        k_table = self._pick_direction(raw)

        cones = []
        for (q, _, duals, with_x, coords), k_vals in zip(raw, k_table, strict=True):
            m_int = tuple(scaled_int_vec(row, self.denominator) for row in coords)
            if m_int:
                divisors, u_mat, _ = integer_smith(m_int)
                if any(di == 0 for di in divisors):
                    raise ConsistencyError("adapted coordinate matrix is singular")
                index = math.prod(divisors)
                # m*e_j lies in the lattice iff d_i divides m*U[i][j] for every i
                multiples = tuple(
                    math.lcm(*(di // math.gcd(di, row[j]) for di, row in zip(divisors, u_mat)))
                    for j in range(len(duals)))
            else:
                index, multiples = 1, ()
            cones.append(_AdaptedCone(q, duals, with_x, index, k_vals,
                                      tuple(zip(*m_int)), multiples))
        self._cones = tuple(cones)
        self._inverse_series = {}

    def _adapted_basis(self, q):
        """Basis of the lattice's ambient space adapted to the superset q, its
        dual covectors (the relative roots of (subset, q), then the
        fundamental weights outside q) and which duals also pair with X."""
        datum = self.datum
        ctx = datum.truncation
        roots = ctx.walls(self.subset, q)[0]
        weights = ctx.walls(q, ctx.full)[1]
        positions = {j: i for i, j in enumerate(q)}
        inv_block = mat_inverse(tuple(tuple(datum.cartan[i][j] for j in q) for i in q)) if q else ()
        vectors = []
        for j in q:
            if j in self.subset:
                continue
            v = zero_vec(datum.dim)
            for i in q:
                v = vadd(v, vscale(inv_block[positions[i]][positions[j]],
                                   datum.simple_coroots[i]))
            vectors.append(v)
        proj = ctx.projector(q)
        vectors.extend(matvec(proj, datum.simple_coroots[j])
                       for j in ctx.full if j not in q)
        return (tuple(vectors), roots + weights,
                (False,) * len(roots) + (True,) * len(weights))

    def _pick_direction(self, raw):
        """The integer exponent table of a covector pairing nonzero with
        every adapted basis vector.

        Scans lambda(s) = sum of s**position * (fundamental weight) over the
        complement of the subset and takes the first s that works.
        """
        datum = self.datum
        rest = [j for j in range(len(datum.cartan)) if j not in self.subset]
        all_vectors = [vectors for _, vectors, *_ in raw]
        for s in range(1, 10000):
            lam = zero_vec(datum.dim)
            for pos, j in enumerate(rest):
                lam = vadd(lam, vscale(Fraction(s) ** pos, datum.fundamental_weights[j]))
            pairings = [tuple(dot(lam, v) for v in vectors) for vectors in all_vectors]
            if all(p != 0 for row in pairings for p in row):
                scale = lcm_den([p for row in pairings for p in row])
                k_table = [tuple(int(-scale * p) for p in row) for row in pairings]
                return k_table
        raise ConsistencyError("no generic direction found")  # pragma: no cover

    @functools.cached_property
    def _parallelepipeds(self) -> tuple:
        """Per cone, the lattice's residues modulo the ray multiples.

        Each residue class holds exactly one lattice point of any half-open
        box [L, L + m), so these, taken in [0, m), are the box's points for
        every lower corner L; there are prod(m) / index of them.
        """
        out = []
        for cone in self._cones:
            residues = _span_mod(cone.generators, cone.multiples)
            if len(residues) * cone.index != math.prod(cone.multiples):
                raise ConsistencyError("parallelepiped has the wrong number of points")
            out.append(residues)
        return tuple(out)

    def _inverse_geometric(self, a: int) -> list:
        """Cached series of eps / (1 - u**a), through eps**rank."""
        series = self._inverse_series.get(a)
        if series is None:
            series = self._inverse_series[a] = _inverse_geometric(a, self.rank + 1)
        return series

    def x_point(self, coords) -> Vec:
        """The parameter with the given coordinates in ``x_basis``."""
        point = vec(coords)
        if len(point) != self.datum.dim:
            raise ValueError("parameter has the wrong dimension")
        return point

    def x_coords(self, x) -> tuple:
        """Integer ``x_basis`` coordinates of ``x``; raises if not on the lattice."""
        return _lattice_coords(self.x_point(x))

    def __repr__(self):
        return (f"LatticeSpec(subset={self.subset}, rank={self.rank}, "
                f"denominator={self.denominator})")


def standard_lattice_spec(datum: RootDatum, subset) -> LatticeSpec:
    """The unshifted spec whose lattice is spanned by projected simple coroots.

    For the empty subset this is the coroot lattice itself.

    >>> from .rootdata import build_root_datum
    >>> standard_lattice_spec(build_root_datum([[2]]), ()).basis
    ((Fraction(2, 1),),)
    """
    subset = _norm_subset(datum, subset)
    proj = datum.truncation.projector(subset)
    basis = [matvec(proj, datum.simple_coroots[j])
             for j in range(len(datum.cartan)) if j not in subset]
    return LatticeSpec(datum, subset, basis)


# ---------------------------------------------------------------------------
# route one: enumeration


def brute_sum(spec: LatticeSpec, x, certify: bool = False) -> Fraction:
    """Sum of the profile over the shifted lattice, by direct enumeration.

    The profile's support lies in the convex hull of the arrangement
    vertices that ``gamma_support_box`` returns, so each lattice coordinate
    of a support point lies between the least and the greatest of that
    coordinate over the vertices' images; every integer point in those
    bounds is evaluated.  With ``certify=True`` the sum is recomputed over
    strictly wider bounds and a mismatch raises :class:`ConsistencyError`.

    >>> from .rootdata import build_root_datum
    >>> d = build_root_datum([[2]])
    >>> spec = LatticeSpec(d, (), [d.simple_coroots[0]])
    >>> [brute_sum(spec, (x,)) for x in (5, 6, 0)]
    [Fraction(2, 1), Fraction(3, 1), Fraction(0, 1)]
    """
    x = vec(x)
    if len(x) != spec.datum.dim:
        raise ValueError("parameter has the wrong dimension")
    ctx = spec.datum.truncation
    if spec.rank == 0:
        return Fraction(ctx.gamma(spec.subset, spec.base_point, x))
    vertices = ctx.gamma_support_box(spec.subset, x)
    total = _sum_over_ranges(spec, x, _coordinate_ranges(spec, vertices, margin=0))
    if certify:
        widened = _sum_over_ranges(spec, x, _coordinate_ranges(spec, vertices, margin=1))
        if widened != total:
            raise ConsistencyError(
                f"support bounds are not certified: {total} inside, {widened} when widened")
    return total


def _coordinate_ranges(spec: LatticeSpec, vertices, margin: int):
    """Integer bounds on the lattice coordinates of the vertices' hull.

    A vertex t has the lattice coordinates n = T^-1 (t - t0), t0 being the
    base point's t; each coordinate runs from the ceiling of its least to
    the floor of its greatest value.  ``margin=1`` first widens each
    unrounded range by its width plus one on either side, so the widened
    bounds are strictly wider, which is what certification compares
    against.
    """
    ctx = spec.datum.truncation
    t0 = [dot(cov, spec.base_point) for cov in ctx.walls(spec.subset, ctx.full)[0]]
    images = [matvec(spec._t_mat_inv, [t - o for t, o in zip(v, t0, strict=True)])
              for v in vertices]
    lows, highs = [], []
    for values in zip(*images):
        lo, hi = min(values), max(values)
        pad = margin * (hi - lo + 1)
        lows.append(math.ceil(lo - pad))
        highs.append(math.floor(hi + pad))
    return tuple(lows), tuple(highs)


def _sum_over_ranges(spec: LatticeSpec, x, ranges) -> Fraction:
    lo, hi = ranges
    ctx = spec.datum.truncation
    total = Fraction(0)
    for n in enumerate_box(lo, hi):
        h = spec.base_point
        for c, b in zip(n, spec.basis, strict=True):
            h = vadd(h, vscale(c, b))
        total += ctx.gamma(spec.subset, h, x)
    return total


# ---------------------------------------------------------------------------
# route two: generating functions


def product_eval(spec: LatticeSpec, x) -> Fraction:
    """The lattice sum via geometric series, exactly.

    Each superset of the spec's subset contributes a signed cone; in the
    adapted basis the cone is an orthant {c >= L} of the spec's lattice,
    which contains m_j * e_j for its ray multiples m_j.  So the cone's
    lattice points are those of the half-open box [L, L + m) moved by
    nonnegative multiples of the m_j * e_j, and its generating function is
    (sum over the box) / prod(1 - u**(k_j m_j)) once the auxiliary variable
    is specialised along a generic direction with integer exponents k_j
    (Brion 1988; Barvinok--Pommersheim 1999).  The value is the constant
    term of the alternating sum at u = 1, extracted by exact Laurent
    expansion in rationals.  Negative powers of (u - 1) must cancel across
    cones; if they do not, a :class:`ConsistencyError` reports the failure.

    >>> from .rootdata import build_root_datum
    >>> d = build_root_datum([[2]])
    >>> spec = LatticeSpec(d, (), [d.simple_coroots[0]])
    >>> product_eval(spec, (5,))
    Fraction(2, 1)
    """
    x = vec(x)
    spec.x_coords(x)  # raises LatticeError when off the parameter lattice
    n = len(spec.datum.cartan)
    terms = spec.rank + 1
    big_n = spec.denominator
    # each cone's series below is eps**rank times its Laurent series
    total = [Fraction(0)] * terms
    for cone, residues in zip(spec._cones, spec._parallelepipeds, strict=True):
        lower = []
        for dual, with_x in zip(cone.duals, cone.with_x, strict=True):
            shift = 0
            if with_x:
                pairing = big_n * dot(dual, x)
                if pairing.denominator != 1:
                    raise ConsistencyError("parameter pairing is not integral")
                shift = int(pairing)
            lower.append(shift + math.floor(-big_n * dot(dual, spec.base_point)) + 1)
        ray = tuple(zip(cone.k_exponents, lower, cone.multiples, strict=True))
        base = sum(k * low for k, low, _ in ray)
        counts = Counter(base + sum(k * ((r - low) % m) for (k, low, m), r in zip(ray, res))
                         for res in residues)
        series = _falling_sums(counts, terms)
        for k, _, m in ray:
            series = _ser_mul(series, spec._inverse_geometric(k * m))
        sign = -1 if (n - len(cone.subset)) % 2 else 1
        total = [t + sign * c for t, c in zip(total, series)]
    for i, c in enumerate(total[:-1]):
        if c:
            raise ConsistencyError(
                f"failure to cancel all poles: eps**{i - spec.rank} survives")
    return total[-1]


# ---------------------------------------------------------------------------
# route three: fitting the law


@dataclass(frozen=True)
class QuasiPolynomial:
    """A quasi-polynomial law, stored as its constituents.

    On each residue class of the coordinates modulo ``moduli`` the law is a
    polynomial (Beck--Robins, *Computing the Continuous Discretely*, ch. 3):
    ``coefficients`` holds one tuple per class, the classes in
    ``itertools.product`` order, with one rational per exponent tuple of
    ``monomials``.  Written instead as a sum of exp(2 pi i <chi, coords>)
    times a polynomial, the law has a nonzero polynomial exactly at the
    ``frequencies`` chi, covectors of rationals modulo 1 in increasing
    order.
    """

    moduli: tuple
    monomials: tuple
    coefficients: tuple
    frequencies: tuple

    def evaluate_rational(self, coords) -> Fraction:
        """The value at ``coords``: the polynomial of their residue class."""
        coords = _lattice_coords(coords)
        if len(coords) != len(self.moduli):
            raise ValueError("wrong number of coordinates")
        index = 0
        for c, m in zip(coords, self.moduli):
            index = index * m + c % m
        return sum((coeff * math.prod(c ** e for c, e in zip(coords, mono))
                    for mono, coeff in zip(self.monomials, self.coefficients[index],
                                           strict=True)), Fraction(0))


def _monomials(dim: int, degree: int):
    out = [m for m in itertools.product(range(degree + 1), repeat=dim)
           if sum(m) <= degree]
    return sorted(out)


def _candidate_frequencies(spec: LatticeSpec):
    """The admissible frequencies, as numerators over per-coordinate moduli.

    A cone's characters are those of Z^rank modulo its lattice, that is the
    dual lattice modulo Z^rank, which the rows of the inverse of the
    generator matrix (generators as columns) generate.  The entries of the
    parameter-facing duals (their pairings with ``x_basis``) carry a
    character to a frequency covector, so the images of those rows span the
    cone's candidate subgroup.  Returns the union of the subgroups and the
    moduli, the lcm of the frequencies' denominators per coordinate.
    """
    dim = len(spec.x_basis)
    images = []
    for cone in spec._cones:
        pairing = [scaled_int_vec(dual, spec.denominator) if with_x else (0,) * dim
                   for dual, with_x in zip(cone.duals, cone.with_x, strict=True)]
        rows = mat_inverse(tuple(zip(*cone.generators)))
        images.append([tuple(sum((phi * row[i] for phi, row in zip(char, pairing, strict=True)),
                                 Fraction(0)) % 1 for i in range(dim)) for char in rows])
    moduli = tuple(math.lcm(*(f[i].denominator for gens in images for f in gens))
                   for i in range(dim))
    candidates = set()
    for gens in images:
        numerators = [tuple(int(f * m) for f, m in zip(freq, moduli)) for freq in gens]
        candidates.update(_span_mod(numerators, moduli))
    return candidates, moduli


def _frequencies(coefficients, moduli, candidates) -> tuple:
    """The characters of the class group whose amplitude is nonzero.

    A character chi = (a_i / m_i) of order d has, on each monomial, the
    amplitude sum_r c(r) * zeta_d^(-d <chi, r>) over the residue classes r.
    Scaled to integers and bucketed by exponent, the coefficients form a
    count vector, and the amplitude is zero exactly when that vector reduces
    to zero modulo the d-th cyclotomic polynomial.  Every character is
    tested, and a nonzero amplitude outside the candidates raises
    :class:`ConsistencyError`.
    """
    classes = tuple(itertools.product(*[range(m) for m in moduli]))
    columns = [scaled_int_vec(column, lcm_den(column)) for column in zip(*coefficients)]
    found = []
    for chi in classes:
        order = math.lcm(*(m // math.gcd(a, m) for a, m in zip(chi, moduli)))
        weights = [a * order // m for a, m in zip(chi, moduli)]
        exponents = [-sum(w * r for w, r in zip(weights, residue)) % order
                     for residue in classes]
        for column in columns:
            counts = [0] * order
            for e, c in zip(exponents, column):
                counts[e] += c
            if not CyclotomicNumber.from_exponent_counts(order, counts).is_zero():
                if chi not in candidates:
                    raise ConsistencyError(
                        "fitted law needs a frequency outside the candidate set")
                found.append(tuple(Fraction(a, m) for a, m in zip(chi, moduli)))
                break
    return tuple(found)


def fit_quasipolynomial(spec: LatticeSpec, samples, evaluator=None) -> QuasiPolynomial:
    """Reconstruct the quasi-polynomial law of the lattice sum.

    The candidate frequencies come from the cones' character groups: only
    the characters seen through some cone's parameter-facing directions can
    occur, and their denominators give the periods ``moduli``.  On each
    residue class r modulo the periods the law is an honest polynomial of
    degree at most d, the lattice rank, so its values on the principal
    lattice r + moduli * g, |g| <= d, determine it (Chung--Yao 1977;
    Gasca--Sauer 2000).  The rest of the box 0 <= g_i <= d, evaluated too,
    and every other known sample of the class must reproduce it.  Each
    character's amplitude over the classes is then tested for zero by one
    cyclotomic reduction of integer counts, and a nonzero amplitude outside
    the candidate set raises :class:`ConsistencyError`.

    ``samples`` is an iterable of (coords, value) pairs with integer
    coordinates in the spec's ``x_basis``; ``evaluator`` maps coords to the
    value at that point and defaults to ``brute_sum``.

    >>> from .rootdata import build_root_datum
    >>> d = build_root_datum([[2]])
    >>> spec = LatticeSpec(d, (), [d.simple_coroots[0]])
    >>> law = fit_quasipolynomial(spec, [((x,), brute_sum(spec, (x,))) for x in range(8)])
    >>> law.frequencies
    ((Fraction(0, 1),), (Fraction(1, 2),))
    >>> law.evaluate_rational((101,)) == brute_sum(spec, (101,))
    True
    """
    dim = len(spec.x_basis)
    degree = spec.rank
    if evaluator is None:
        evaluator = lambda coords: brute_sum(spec, spec.x_point(coords))
    candidates, moduli = _candidate_frequencies(spec)

    known = {}
    for coords, value in samples:
        coords = _lattice_coords(coords)
        value = frac(value)
        if known.setdefault(coords, value) != value:
            raise ConsistencyError(f"conflicting sample values at {coords}")
    sampled = {}
    for c in known:
        sampled.setdefault(tuple(ci % m for ci, m in zip(c, moduli, strict=True)), []).append(c)

    monos = _monomials(dim, degree)
    fits = []
    for residue in itertools.product(*[range(m) for m in moduli]):
        box = {g: tuple(r + m * gi for r, m, gi in zip(residue, moduli, g))
               for g in itertools.product(range(degree + 1), repeat=dim)}
        for c in box.values():
            if c not in known:
                known[c] = frac(evaluator(c))
        rows = {c: tuple(math.prod(ci ** e for ci, e in zip(c, mono)) for mono in monos)
                for c in [*sampled.get(residue, ()), *box.values()]}
        # the principal lattice |g| <= degree is the monomials' exponent set
        simplex = [box[g] for g in monos]
        coeffs = solve([rows[c] for c in simplex], [known[c] for c in simplex])
        for c, row in rows.items():
            if dot(row, coeffs) != known[c]:
                raise ConsistencyError(f"samples at {c} break the degree-{degree} law")
        fits.append(coeffs)
    return QuasiPolynomial(moduli, tuple(monos), tuple(fits),
                           _frequencies(fits, moduli, candidates))
