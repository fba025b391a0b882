"""Root data in coweight coordinates, Weyl groups, and diagram folding.

A root datum here is a finite (possibly non-reduced) root system together
with a central torus direction.  The ambient vector space ``a_B`` (real
points of the maximal split torus's cocharacter space) is coordinatized by

    (fundamental coweights of the semisimple part) + (a basis of the center),

which has pleasant consequences used throughout the package:

* the i-th simple root is the i-th coordinate functional,
* the j-th simple coroot is the j-th column of the Cartan matrix,
* simple reflections act by integer matrices, so every Weyl element has an
  integer matrix and sign tests in hot loops run on machine ints.

A Weyl element is keyed by its permutation of the roots: products,
inverses and minimal coset representatives (``WeylGroup.min_reps``, one
table per subset, kept on the group) are lookups on permutations, and so is
the restriction of a sigma-fixed element to a folding; the matrix serves
only the action on vectors.

The Cartan convention is ``cartan[i][j] = <alpha_i, alpha_j_coroot>``.

Roots are stored as covectors (their coordinates are exactly their
coefficients on the simple roots, padded with zeros on the central block),
coroots as vectors.  Positivity of a root is positivity of its coordinate
tuple.  Non-reduced systems of type BC arise from folding and carry a
``reduced`` flag per root; nothing else in the package assumes reducedness.

>>> d = build_root_datum("A2")
>>> len(d.roots), d.n_positive
(6, 3)
>>> d.weyl.order
6
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import CartanMatrixError, ConsistencyError, FoldingError
from .linalg import (
    basis_vec,
    frac,
    is_positive_definite,
    mat_inverse,
    matvec,
    vec,
)

_TYPE_RE = re.compile(r"^([A-G])(\d+)$")
_MAX_WEYL_ORDER = 1_000_000


def _chain(n, a=-1, b=-1):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        if i + 1 < n:
            rows[i][i + 1] = a
            rows[i + 1][i] = b
    return rows


def _cartan_rows(letter: str, n: int):
    if letter == "A" and n >= 1:
        return _chain(n)
    if letter == "B" and n >= 2:
        rows = _chain(n)
        rows[n - 2][n - 1] = -2  # last simple root short
        return rows
    if letter == "C" and n >= 2:
        rows = _chain(n)
        rows[n - 1][n - 2] = -2  # last simple root long
        return rows
    if letter == "D" and n >= 3:
        rows = _chain(n - 1) if n > 1 else []
        rows = [row + [0] for row in rows]
        rows.append([0] * n)
        rows[n - 1][n - 1] = 2
        # the fork: last node attaches to node n-3 (0-based)
        rows[n - 3][n - 1] = -1
        rows[n - 1][n - 3] = -1
        rows[n - 2][n - 1] = 0
        rows[n - 1][n - 2] = 0
        return rows
    if letter == "F" and n == 4:
        # Bourbaki plate VIII: alpha_1, alpha_2 long, alpha_3, alpha_4 short
        return [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    if letter == "G" and n == 2:
        return [[2, -1], [-3, 2]]
    raise CartanMatrixError(f"unsupported Cartan type {letter}{n}; "
                            "pass an explicit Cartan matrix instead")


def parse_cartan(kind):
    """Turn a type label ("A2", "B3", "A1xA1", ...) or an explicit square
    integer matrix into Cartan-matrix rows (a product label becomes a block
    diagonal matrix, one block per factor).

    >>> parse_cartan("A1xA1")
    [[2, 0], [0, 2]]
    """
    if isinstance(kind, str):
        blocks = []
        for part in re.split(r"[x×]", kind.strip()):
            m = _TYPE_RE.match(part.strip())
            if not m:
                raise CartanMatrixError(f"cannot parse Cartan type {part!r}")
            blocks.append(_cartan_rows(m.group(1), int(m.group(2))))
        n = sum(len(b) for b in blocks)
        rows = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, x in enumerate(row):
                    rows[off + i][off + j] = x
            off += len(b)
        return rows
    rows = [list(r) for r in kind]
    if any(len(r) != len(rows) for r in rows):
        raise CartanMatrixError("Cartan matrix must be square")
    if any(not isinstance(x, int) for r in rows for x in r):
        raise CartanMatrixError("Cartan matrix entries must be integers")
    return rows


def _validate_gcm(rows):
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 2:
            raise CartanMatrixError(f"diagonal entry ({i},{i}) is {rows[i][i]}, not 2")
        for j in range(n):
            if i != j:
                if rows[i][j] > 0:
                    raise CartanMatrixError(
                        f"off-diagonal entry ({i},{j}) = {rows[i][j]} is positive")
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise CartanMatrixError(
                        f"entries ({i},{j}) and ({j},{i}) disagree about adjacency")


def _symmetrizer(rows):
    """The Gram matrix rows[i][j]*d[j] of the simple roots, for the rational
    d_j > 0 with rows[i][j]*d[j] == rows[j][i]*d[i], normalized so the
    minimum over each connected component is 1 (short roots have squared
    length 2 per simple factor).  Raises if not symmetrizable or not finite."""
    n = len(rows)
    d = [None] * n
    components = []
    for start in range(n):
        if d[start] is not None:
            continue
        comp = [start]
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if rows[i][j] != 0 and i != j:
                    val = d[i] * rows[j][i] / rows[i][j]
                    if d[j] is None:
                        d[j] = val
                        comp.append(j)
                        queue.append(j)
                    elif d[j] != val:
                        raise CartanMatrixError("matrix is not symmetrizable")
        components.append(frozenset(comp))
    for i in range(n):
        for j in range(n):
            if rows[i][j] * d[j] != rows[j][i] * d[i]:
                raise CartanMatrixError("matrix is not symmetrizable")
    for comp in components:
        m = min(d[i] for i in comp)
        for i in comp:
            d[i] /= m
    sym = tuple(tuple(frac(rows[i][j]) * d[j] for j in range(n)) for i in range(n))
    if n and not is_positive_definite(sym):
        raise CartanMatrixError(
            "matrix is not of finite type (symmetrization is not positive definite)")
    return sym


@dataclass(frozen=True)
class Root:
    """One root: covector coordinates, coroot vector, and bookkeeping."""

    index: int
    coords: tuple[int, ...]       # coefficients on the simple roots
    cov: tuple[int, ...]          # ambient covector (coords padded by zeros)
    coroot: tuple[int, ...]       # ambient vector
    positive: bool
    reduced: bool


def _reflect(cartan, coords, j):
    """Simple-root coordinates of s_j(beta) = beta - <beta, alpha_j^vee> alpha_j."""
    pair = sum(c * cartan[i][j] for i, c in enumerate(coords))
    return coords[:j] + (coords[j] - pair,) + coords[j + 1:]


def _close_roots(cartan):
    """Simultaneous reflection closure on (root, coroot) pairs.

    Returns a dict {coords: coroot coords} where the coroot is written on
    the simple-coroot columns' ambient coordinates (length = rank_ss).
    """
    n = len(cartan)
    columns = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]
    seen = {}
    pend = []
    for i in range(n):
        coords = tuple(1 if k == i else 0 for k in range(n))
        seen[coords] = columns[i]
        pend.append(coords)
    while pend:
        coords = pend.pop()
        coroot = seen[coords]
        for j in range(n):
            new_coords = _reflect(cartan, coords, j)
            if new_coords not in seen:
                new_coroot = tuple(
                    cv - coroot[j] * columns[j][k] for k, cv in enumerate(coroot))
                seen[new_coords] = new_coroot
                pend.append(new_coords)
            if len(seen) > 100000:
                raise CartanMatrixError("root closure exploded; not finite type?")
    return seen


class RootDatum:
    """A finite root datum in coweight + central coordinates."""

    def __init__(self, kind, rank_central: int = 0, label: str | None = None,
                 _root_pairs=None):
        rows = parse_cartan(kind)
        _validate_gcm(rows)
        self.cartan = tuple(tuple(r) for r in rows)
        self.rank_ss = len(rows)
        if rank_central < 0:
            raise ValueError("rank_central must be >= 0")
        self.rank_central = rank_central
        self.dim = self.rank_ss + rank_central
        self.label = label if label is not None else (
            kind if isinstance(kind, str) else f"cartan{self.rank_ss}")
        self.gram = _symmetrizer(rows)

        n, dim = self.rank_ss, self.dim
        self.simple_roots = tuple(
            tuple(1 if k == i else 0 for k in range(dim)) for i in range(n))
        self.simple_coroots = tuple(
            tuple(self.cartan[i][j] if i < n else 0 for i in range(dim))
            for j in range(n))
        inv = mat_inverse(self.cartan) if n else ()
        self.fundamental_weights = tuple(
            tuple(inv[i][j] if j < n else Fraction(0) for j in range(dim))
            for i in range(n))
        self.fundamental_coweights = tuple(basis_vec(dim, i) for i in range(n))
        self.central_basis = tuple(basis_vec(dim, n + k) for k in range(rank_central))

        pairs = _root_pairs if _root_pairs is not None else _close_roots(self.cartan)
        self._build_roots(pairs)

    def _build_roots(self, pairs):
        n, dim = self.rank_ss, self.dim
        coords_set = set(pairs)
        positives = sorted(
            (c for c in coords_set if all(x >= 0 for x in c) and any(c)),
            key=lambda c: (sum(c), c))
        if 2 * len(positives) != len(coords_set):
            raise ConsistencyError("root set is not symmetric under negation")
        roots = []
        for k, coords in enumerate(positives):
            half = tuple(x // 2 for x in coords)
            reduced = not (all(x % 2 == 0 for x in coords) and half in coords_set)
            cov = coords + (0,) * (dim - n)
            coroot = pairs[coords] + (0,) * (dim - n)
            roots.append(Root(k, coords, cov, coroot, True, reduced))
        n_pos = len(positives)
        for k, coords in enumerate(positives):
            neg = tuple(-x for x in coords)
            if neg not in pairs:
                raise ConsistencyError("negative of a root is missing")
            cov = neg + (0,) * (dim - n)
            coroot = tuple(-x for x in pairs[coords]) + (0,) * (dim - n)
            if pairs[neg] + (0,) * (dim - n) != coroot:
                raise ConsistencyError("coroot of the negative root is inconsistent")
            roots.append(Root(n_pos + k, neg, cov, coroot, False, roots[k].reduced))
        self.roots = tuple(roots)
        self.n_positive = n_pos
        self.root_index = {r.coords: r.index for r in roots}
        self.simple_root_positions = tuple(
            self.root_index[tuple(1 if k == i else 0 for k in range(n))]
            for i in range(n))

    # -- basic queries ----------------------------------------------------

    def positive_roots(self, reduced_only: bool = False):
        return tuple(r for r in self.roots
                     if r.positive and (r.reduced or not reduced_only))

    def __repr__(self):
        return (f"RootDatum({self.label!r}, rank_ss={self.rank_ss}, "
                f"rank_central={self.rank_central}, roots={len(self.roots)})")

    @cached_property
    def weyl(self) -> "WeylGroup":
        return generate_weyl(self)

    @cached_property
    def truncation(self):
        """The datum's one table of nested parabolic pairs, built on first
        use and dropped with the datum."""
        from .truncation import TruncationContext  # truncation imports this module
        return TruncationContext(self)


def build_root_datum(kind, rank_central: int = 0, label: str | None = None) -> RootDatum:
    """Build a root datum from a type label or an explicit Cartan matrix.

    Rejects anything that is not a finite-type generalized Cartan matrix,
    with a diagnostic naming the failed axiom.

    >>> build_root_datum("G2").n_positive
    6
    >>> build_root_datum([[2, -2], [-2, 2]])
    Traceback (most recent call last):
        ...
    trunca.errors.CartanMatrixError: matrix is not of finite type (symmetrization is not positive definite)
    """
    return RootDatum(kind, rank_central, label)


class WeylElement:
    """A Weyl group element: root permutation, integer matrix and the reduced
    word of record.

    ``root_perm[k]`` is the index of ``w(roots[k])``; it determines the
    element, so equality and hashing go through it and elements from the
    same datum are safe dictionary keys.  The stored word is the
    lexicographically smallest reduced word, and ``matrix`` is the action on
    vectors of ``a_B``.
    """

    __slots__ = ("index", "word", "root_perm", "matrix")

    def __init__(self, index, word, root_perm, matrix):
        self.index = index
        self.word = word
        self.root_perm = root_perm
        self.matrix = matrix

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def label(self) -> str:
        """The word of record, one-based and concatenated ("e" for the
        identity): the key of a polyhedron vertex and of CLI output."""
        return "".join(str(i + 1) for i in self.word) or "e"

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.root_perm == other.root_perm

    def __hash__(self):
        return hash(self.root_perm)

    def __repr__(self):
        return f"WeylElement(word={self.label})"


class WeylGroup:
    """The full Weyl group of a datum, keyed by root permutations.

    Products and inverses are table lookups on permutations; the coset
    tables of :meth:`min_reps` are built on first use and kept here.
    """

    def __init__(self, datum: RootDatum, elements):
        self.datum = datum
        self.elements = elements
        self.by_perm = {w.root_perm: w for w in elements}
        self.order = len(elements)
        self.identity = elements[0]
        self.simple = tuple(w for w in elements if w.length == 1)
        # w^{-1} permutes the roots by the inverse permutation
        self._inverse = tuple(
            self.by_perm[tuple(sorted(range(len(w.root_perm)),
                                      key=w.root_perm.__getitem__))]
            for w in elements)
        self._min_reps = {}

    def mult(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self.by_perm[tuple(a.root_perm[k] for k in b.root_perm)]

    def inv(self, a: WeylElement) -> WeylElement:
        return self._inverse[a.index]

    def act(self, w: WeylElement, v):
        """w applied to a vector of a_B."""
        return matvec(w.matrix, v)

    def inversions(self, w: WeylElement) -> int:
        n_pos = self.datum.n_positive
        return sum(1 for k in range(n_pos)
                   if self.datum.roots[k].reduced and w.root_perm[k] >= n_pos)

    # -- coset machinery ---------------------------------------------------

    def min_reps(self, subset):
        """Element index -> index of the minimal-length element of its coset
        W_subset * w.

        Elements come in order of length, so one pass suffices: w is minimal
        iff w^{-1}(alpha_i) > 0 for every i in subset, and otherwise shares
        its coset minimum with the shorter s_i * w.
        """
        key = tuple(sorted(set(subset)))
        table = self._min_reps.get(key)
        if table is None:
            n_pos = self.datum.n_positive
            positions = [(i, self.datum.simple_root_positions[i]) for i in key]
            table = []
            for w in self.elements:
                winv = self._inverse[w.index].root_perm
                i = next((i for i, pos in positions if winv[pos] >= n_pos), None)
                table.append(w.index if i is None
                             else table[self.mult(self.simple[i], w).index])
            table = self._min_reps[key] = tuple(table)
        return table

    def min_rep(self, w: WeylElement, subset) -> WeylElement:
        """The unique minimal-length element of the coset W_subset * w."""
        return self.elements[self.min_reps(subset)[w.index]]

    def subgroup(self, subset):
        """Elements of the standard parabolic subgroup W_subset: those whose
        reduced word uses only letters from the subset."""
        letters = set(subset)
        return tuple(w for w in self.elements if letters.issuperset(w.word))


def _simple_perms(datum: RootDatum):
    """Root permutation of each simple reflection, read off the Cartan
    matrix."""
    return [tuple(datum.root_index[_reflect(datum.cartan, r.coords, i)]
                  for r in datum.roots) for i in range(datum.rank_ss)]


def generate_weyl(datum: RootDatum) -> WeylGroup:
    """Generate the full Weyl group by breadth-first closure on root
    permutations.

    The BFS visits children ``w * s_i`` in ascending generator order, so the
    recorded word of each element is its lexicographically smallest reduced
    word and elements come in order of length.  Each element's integer
    matrix is built once, from its parent's by updating column i.  The
    number of inversions is checked against the word length for every
    element (a cheap full-group sanity pass).
    """
    gens = _simple_perms(datum)
    coroots = datum.simple_coroots
    dim = datum.dim
    ident = tuple(tuple(1 if r == c else 0 for c in range(dim)) for r in range(dim))
    first = WeylElement(0, (), tuple(range(len(datum.roots))), ident)
    elements = [first]
    seen = {first.root_perm}
    frontier = [first]
    while frontier:
        new_frontier = []
        for elt in frontier:
            for i, gen in enumerate(gens):
                perm = tuple(elt.root_perm[k] for k in gen)
                if perm in seen:
                    continue
                # w * s_i changes only column i: v -> v - <alpha_i, v> alpha_i^vee
                mat = tuple(row[:i] + (row[i] - sum(a * b for a, b in
                                                    zip(row, coroots[i])),)
                            + row[i + 1:] for row in elt.matrix)
                child = WeylElement(len(elements), elt.word + (i,), perm, mat)
                elements.append(child)
                seen.add(perm)
                new_frontier.append(child)
                if len(elements) > _MAX_WEYL_ORDER:
                    raise CartanMatrixError("Weyl group too large; gave up")
        frontier = new_frontier

    group = WeylGroup(datum, tuple(elements))
    for elt in elements:
        invs = group.inversions(elt)
        if invs != elt.length:
            raise ConsistencyError(
                f"word length {elt.length} != inversion count {invs} for {elt!r}")
    return group


# --- folding ---------------------------------------------------------------


def _restrict(orbits, x):
    """Orbit sums of the first coordinates of x: the restriction of a root,
    given by its simple-root coordinates, to the sigma-fixed subspace."""
    return tuple(sum(x[i] for i in orbit) for orbit in orbits)


def _orbit_means(orbits, x):
    """The sigma-average of x on the first coordinates, one mean per orbit."""
    return tuple(Fraction(s, len(orbit)) for s, orbit in zip(_restrict(orbits, x), orbits))


class Folding:
    """A diagram automorphism and the folded (restricted) root datum.

    ``big`` is the original datum, ``small`` the folded one, living in its
    own coweight + central coordinates.  sigma permutes the big coweight
    coordinates along ``orbits`` and fixes the central ones, so a
    sigma-average is a mean over each orbit.  ``embed`` maps the folded
    space isomorphically onto the sigma-fixed subspace of the big one;
    ``project_vector`` is its left inverse, the orbit means of a vector.
    ``c`` holds, per folded root, the ratio of squared lengths (restricted
    over original); these lie in (0, 1] and scale coroots under restriction.
    """

    def __init__(self, big, perm, small, orbits, c_by_index, embed):
        self.big = big
        self.perm = perm
        self.small = small
        self.orbits = orbits
        self.c = c_by_index
        self.embed = embed

    def project_vector(self, v):
        """The orbit means of v, then its central coordinates unchanged."""
        return _orbit_means(self.orbits, v) + vec(v[self.big.rank_ss:])

    @cached_property
    def root_perm(self):
        """sigma on the big datum's roots: ``root_perm[k]`` is the index of
        sigma(roots[k]), where sigma sends alpha_i to alpha_perm[i]."""
        inverse = sorted(range(self.big.rank_ss), key=self.perm.__getitem__)
        return tuple(self.big.root_index[tuple(r.coords[i] for i in inverse)]
                     for r in self.big.roots)

    @cached_property
    def weyl_correspondence(self):
        """dict: folded Weyl element index -> sigma-fixed big Weyl element.

        w is sigma-fixed when its root permutation commutes with sigma's; it
        then preserves the fixed subspace and acts there as the folded
        element that sends the restriction of each root beta to the
        restriction of w(beta).  The restriction map from the
        sigma-centralizer onto the folded Weyl group is bijective; a failure
        here is a ConsistencyError.
        """
        sigma = self.root_perm
        smallw = self.small.weyl
        restricted = [self.small.root_index[_restrict(self.orbits, r.coords)]
                      for r in self.big.roots]
        match = {}
        for w in self.big.weyl.elements:
            w_perm = w.root_perm
            if any(sigma[w_perm[k]] != w_perm[sigma[k]] for k in range(len(w_perm))):
                continue
            image = {}
            for k, j in enumerate(restricted):
                if image.setdefault(j, restricted[w_perm[k]]) != restricted[w_perm[k]]:
                    raise ConsistencyError("preimages of a restricted root have "
                                           "different images")
            small = smallw.by_perm.get(tuple(image[j] for j in range(len(image))))
            if small is None:
                raise ConsistencyError("sigma-fixed element does not restrict "
                                       "to a folded Weyl element")
            if small.index in match:
                raise ConsistencyError("restriction of the sigma-centralizer "
                                       "is not injective")
            match[small.index] = w
        if len(match) != smallw.order:
            raise ConsistencyError(
                f"sigma-centralizer has {len(match)} elements, folded Weyl "
                f"group has {smallw.order}")
        return match


def fold(datum: RootDatum, perm) -> Folding:
    """Fold a datum along a Cartan-matrix-preserving permutation of the
    simple roots.

    Restricted roots are the orbit sums of the original roots' simple-root
    coordinates (non-reduced BC systems do occur).  The length ratio c of a
    root is the squared length of its orbit means over its own, and its
    restricted coroot is the orbit means of its coroot scaled by 1/c.
    Everything is asserted integral in the folded coordinates and
    cross-checked against every preimage.

    >>> f = fold(build_root_datum("A3"), (2, 1, 0))
    >>> [list(r) for r in f.small.cartan]
    [[2, -1], [-2, 2]]
    >>> sorted(set(f.c.values()))
    [Fraction(1, 2), Fraction(1, 1)]
    """
    n = datum.rank_ss
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise FoldingError("not a permutation of the simple roots")
    for i in range(n):
        for j in range(n):
            if datum.cartan[perm[i]][perm[j]] != datum.cartan[i][j]:
                raise FoldingError(
                    f"permutation does not preserve the Cartan matrix at ({i},{j})")

    # orbits, sorted by smallest member
    seen = set()
    orbits = []
    for i in range(n):
        if i in seen:
            continue
        orbit = [i]
        j = perm[i]
        while j != i:
            orbit.append(j)
            j = perm[j]
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=min)
    k = len(orbits)
    orbit_of = {i: a for a, orbit in enumerate(orbits) for i in orbit}

    def inner(x, y):
        """Big-datum inner product of covectors given by simple-root coordinates."""
        return sum((x[i] * y[j] * datum.gram[i][j]
                    for i in range(n) if x[i] for j in range(n) if y[j]), Fraction(0))

    def average(x):
        """The sigma-average of x: each coordinate replaced by its orbit mean."""
        means = _orbit_means(orbits, x)
        return tuple(means[orbit_of[i]] for i in range(n))

    # folded Cartan matrix from the inner products of averaged simple roots
    averaged = [average(datum.simple_roots[orbit[0]]) for orbit in orbits]
    folded_cartan = []
    for a in range(k):
        row = []
        for b in range(k):
            val = 2 * inner(averaged[a], averaged[b]) / inner(averaged[b], averaged[b])
            if val.denominator != 1:
                raise ConsistencyError(f"folded Cartan entry ({a},{b}) = {val} "
                                       "is not an integer")
            row.append(val.numerator)
        folded_cartan.append(row)

    # restrict every root; remember one preimage per restricted root and
    # check all preimages agree on c and on the folded coroot
    restricted = {}
    c_of = {}
    for r in datum.roots:
        fc = _restrict(orbits, r.coords)
        avg = average(r.coords)
        c_val = inner(avg, avg) / inner(r.coords, r.coords)
        folded_cor = tuple(x / c_val for x in _orbit_means(orbits, r.coroot))
        if any(x.denominator != 1 for x in folded_cor):
            raise ConsistencyError(
                f"folded coroot of {r.coords} is not integral: {folded_cor}")
        folded_cor = tuple(int(x) for x in folded_cor)
        if fc in restricted:
            if restricted[fc] != folded_cor or c_of[fc] != c_val:
                raise ConsistencyError(
                    f"preimages of restricted root {fc} disagree")
        else:
            restricted[fc] = folded_cor
            c_of[fc] = c_val
        if not 0 < c_val <= 1:
            raise ConsistencyError(f"length ratio {c_val} outside (0, 1]")

    small = RootDatum(folded_cartan, datum.rank_central,
                      label=f"{datum.label} folded",
                      _root_pairs=restricted)

    # sanity: the folded simple coroots must be the folded Cartan columns
    for o_idx in range(k):
        fc = tuple(1 if a == o_idx else 0 for a in range(k))
        col = tuple(folded_cartan[i][o_idx] for i in range(k))
        if restricted[fc] != col:
            raise ConsistencyError("folded simple coroot disagrees with the "
                                   "folded Cartan column")

    c_by_index = {small.root_index[fc]: c_of[fc] for fc in restricted}

    # embedding of the folded space: folded fundamental coweight of an orbit
    # goes to the sum of the big fundamental coweights over the orbit
    embed = tuple(
        tuple(Fraction(1 if i in orbit else 0) for orbit in orbits)
        + tuple(Fraction(1 if i == n + kk else 0) for kk in range(datum.rank_central))
        for i in range(datum.dim))

    return Folding(datum, perm, small, tuple(orbits), c_by_index, embed)
