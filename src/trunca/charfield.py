"""Finite fields, norm-one tori, and exact character sums.

The multiplicative side needs no field arithmetic at all: the group of
norm-one elements of ``F_{q^l}`` over ``F_q`` is cyclic of order
``m = (q^l - 1)/(q - 1)`` and Frobenius acts on it as multiplication by
``q``, so it is modeled abstractly as ``Z/m``.  Characters are exponents
``k`` with values in ``Q(zeta_m)``, and the character sums that decide
multiplicity one are assembled from those exact cyclotomic values.

The additive (Lie-algebra) side genuinely requires field arithmetic,
because Frobenius is not a scalar there: :class:`LieTorusModel` builds
``F_{q^l}`` from the deterministic least irreducible polynomial and pairs
it with itself through the absolute trace.  :class:`FiniteField` computes
on element indices with log/antilog tables of a primitive element and a
tabulated trace, so a product is one addition of logarithms and a trace
one lookup; polynomial products only build those tables.

No floating point anywhere; rationality of every reduced sum is asserted,
never assumed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicNumber, _poly_divmod_monic
from .errors import ConsistencyError


def factor_prime_power(q: int):
    """(p, e) with q = p**e, or None when q is not a prime power.

    >>> factor_prime_power(8), factor_prime_power(12)
    ((2, 3), None)
    >>> [q for q in range(2, 20) if factor_prime_power(q)]
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    """
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    return None  # pragma: no cover


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


# ---------------------------------------------------------------------------
# finite fields, just big enough for the additive model


def _least_irreducible(p: int, e: int) -> tuple:
    """Low coefficients of the lex-least monic irreducible of degree e.

    Candidates x**e + c_{e-1} x**(e-1) + ... + c_0 are ordered by the tuple
    (c_0, ..., c_{e-1}); irreducibility is by trial division against every
    monic polynomial of degree between 1 and e // 2.

    >>> _least_irreducible(2, 2), _least_irreducible(3, 2)
    ((1, 1), (1, 0))
    """
    if e == 1:
        return (0,)
    divisors = []
    for d in range(1, e // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisors.append(list(low) + [1])
    for low in itertools.product(range(p), repeat=e):
        f = list(low) + [1]
        if all(any(c % p for c in _poly_divmod_monic(f, g)[1]) for g in divisors):
            return tuple(low)
    raise ConsistencyError(f"no irreducible of degree {e} over F_{p}")  # pragma: no cover


class FiniteField:
    """F_{p^e} = F_p[x] / (least irreducible), computed on log/antilog tables.

    The public element form is the coefficient tuple ``(c_0, ..., c_{e-1})``
    of ``c_0 + c_1 x + ... + c_{e-1} x^(e-1)``.  Inside, an element is its
    index ``sum_k c_k p^(e-1-k)`` in ``0..p^e - 1``, so index order is the
    lexicographic order of :meth:`elements`.  The first use builds
    :meth:`tables` (Lidl-Niederreiter, *Finite Fields*, ch. 2): the powers
    of a primitive element and their logarithms, which turn a product into
    a sum of logarithms, and the trace of every element, which is F_p-linear
    and so fixed by the traces of the power basis.  Addition is
    coefficientwise and needs no table.

    >>> k = FiniteField(2, 3)            # modulus x^3 + x^2 + 1
    >>> antilog, log, trace = k.tables()
    >>> x, x2 = k.index((0, 1, 0)), k.index((0, 0, 1))
    >>> k.coeffs(antilog[(log[x] + log[x2]) % 7])  # x * x^2 = x^3 = x^2 + 1
    (1, 0, 1)
    >>> trace[x]
    1
    """

    def __init__(self, p: int, e: int):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("degree must be positive")
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = _least_irreducible(p, e)
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)
        self._tables = None

    def element(self, coeffs) -> tuple:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.e:
            raise ValueError("wrong coefficient count")
        return coeffs

    def elements(self):
        """All field elements, lexicographically by coefficient tuple."""
        return itertools.product(range(self.p), repeat=self.e)

    def index(self, a) -> int:
        """The index of a coefficient tuple."""
        i = 0
        for c in self.element(a):
            i = i * self.p + c
        return i

    def coeffs(self, i: int) -> tuple:
        """The coefficient tuple of an index."""
        out = [0] * self.e
        for k in range(self.e - 1, -1, -1):
            i, out[k] = divmod(i, self.p)
        return tuple(out)

    def tables(self):
        """``(antilog, log, trace)`` as lists over indices, built on first use.

        ``antilog[k]`` is the index of ``g^k`` for ``k < p^e - 1``, where g
        is the first primitive element in index order; ``log`` inverts it
        (``log[0]`` is None); ``trace[i]`` is the absolute trace of element
        i.  Only this build multiplies polynomials.
        """
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables

    def _build_tables(self):
        p, e, n = self.p, self.e, self.order - 1
        full = list(self.modulus) + [1]

        def mul(a, b):
            raw = [0] * (2 * e - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    raw[i + j] += x * y
            rem = [c % p for c in _poly_divmod_monic(raw, full)[1]]
            return tuple(rem) + (0,) * (e - len(rem))

        # the first nonzero g whose powers reach every nonzero element
        for g in itertools.islice(self.elements(), 1, None):
            powers, term = [self.one], g
            while term != self.one:
                powers.append(term)
                term = mul(term, g)
            if len(powers) == n:
                break
        else:  # pragma: no cover
            raise ConsistencyError(f"F_{self.order}* has no generator")
        antilog = [self.index(a) for a in powers]
        log = [None] * self.order
        for k, i in enumerate(antilog):
            log[i] = k

        # Tr(x^k) = sum over i < e of (x^k)^(p^i), by repeated products
        basis_trace = []
        for k in range(e):
            term = tuple(int(j == k) for j in range(e))
            total = self.zero
            for _ in range(e):
                total = self.add(total, term)
                frob = term
                for _ in range(p - 1):
                    frob = mul(frob, term)
                term = frob
            if any(total[1:]):
                raise ConsistencyError("trace landed outside the prime field")
            basis_trace.append(total[0])
        trace = [sum(c * t for c, t in zip(a, basis_trace)) % p
                 for a in self.elements()]
        return antilog, log, trace

    def add(self, a, b) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b, strict=True))

    def neg(self, a) -> tuple:
        return tuple((-x) % self.p for x in a)


# ---------------------------------------------------------------------------
# the multiplicative side: norm-one torus as Z/m


@dataclass(frozen=True)
class NormOneTorus:
    """Norm-one elements of F_{q^l} over F_q, as Z/m with Frobenius = x q.

    ``z`` is the order of the central subgroup (the centre of the ambient
    special linear group meets the torus in the unique subgroup of that
    order, generated by m // z).
    """

    q: int
    l: int
    p: int
    m: int
    z: int

    def character(self, k: int) -> "TorusCharacter":
        return TorusCharacter(self, k % self.m)

    def central_elements(self) -> tuple:
        step = self.m // self.z
        return tuple(step * t for t in range(self.z))

    def __repr__(self):
        return f"NormOneTorus(q={self.q}, l={self.l}, m={self.m}, z={self.z})"


@dataclass(frozen=True)
class TorusCharacter:
    """The character s -> zeta_m^(k s) of the cyclic torus model."""

    torus: NormOneTorus
    exponent: int

    def __repr__(self):
        return f"TorusCharacter(k={self.exponent} mod {self.torus.m})"


def build_torus(q: int, l: int) -> NormOneTorus:
    """The norm-one torus for the degree-l extension of F_q.

    >>> build_torus(3, 2)
    NormOneTorus(q=3, l=2, m=4, z=2)
    >>> build_torus(2, 3).m, build_torus(4, 3).z
    (7, 3)
    """
    pe = factor_prime_power(q)
    if pe is None:
        raise ValueError(f"q = {q} is not a prime power")
    p, _ = pe
    if not _is_prime(l):
        raise ValueError(f"l = {l} must be prime")
    if l == p:
        raise ValueError(f"l = {l} equals the residue characteristic")
    m = (q ** l - 1) // (q - 1)
    z = math.gcd(l, q - 1)
    if m * (q - 1) != q ** l - 1 or m % z:
        raise ConsistencyError("torus bookkeeping failed")  # pragma: no cover
    return NormOneTorus(q, l, p, m, z)


def general_position(theta: TorusCharacter) -> bool:
    """No nontrivial Frobenius power fixes the character.

    >>> t = build_torus(3, 2)
    >>> [general_position(t.character(k)) for k in (1, 2, 0)]
    [True, False, False]
    """
    t = theta.torus
    return all(theta.exponent * (t.q ** i - 1) % t.m for i in range(1, t.l))


def _require_general_position(*thetas):
    for theta in thetas:
        if not general_position(theta):
            raise ValueError(f"{theta!r} is not in general position")


def _require_same_torus(a: TorusCharacter, b: TorusCharacter):
    if a.torus != b.torus:
        raise ValueError("characters live on different tori")


def contragredient_test(theta_lambda: TorusCharacter, theta_mu: TorusCharacter) -> bool:
    """Is the inverse of the first character Frobenius-conjugate to the second?

    >>> t = build_torus(2, 3)
    >>> contragredient_test(t.character(1), t.character(3))
    True
    >>> contragredient_test(t.character(1), t.character(1))
    False
    """
    _require_same_torus(theta_lambda, theta_mu)
    _require_general_position(theta_lambda, theta_mu)
    t = theta_lambda.torus
    orbit = {theta_mu.exponent * t.q ** i % t.m for i in range(t.l)}
    return (-theta_lambda.exponent) % t.m in orbit


def central_character_ok(theta_lambda: TorusCharacter, theta_mu: TorusCharacter) -> bool:
    """Does the product character restrict trivially to the central subgroup?

    The divisibility shortcut z | (k_lambda + k_mu) is checked against the
    direct restriction to the subgroup generated by m // z; a mismatch
    raises :class:`ConsistencyError`.

    >>> central_character_ok(build_torus(3, 2).character(1), build_torus(3, 2).character(3))
    True
    >>> central_character_ok(build_torus(5, 2).character(1), build_torus(5, 2).character(2))
    False
    """
    _require_same_torus(theta_lambda, theta_mu)
    t = theta_lambda.torus
    total = theta_lambda.exponent + theta_mu.exponent
    shortcut = total % t.z == 0
    direct = all(total * s % t.m == 0 for s in t.central_elements())
    if shortcut != direct:  # pragma: no cover
        raise ConsistencyError("central restriction disagrees with divisibility")
    return shortcut


def _reduce_to_integer(order: int, counts, what: str) -> int:
    """The integer sum_e counts[e] * zeta_order^e; integer counts reduce to
    integer coordinates, so a rational value is an integer."""
    value = CyclotomicNumber.from_exponent_counts(order, counts)
    if not value.is_rational():
        raise ConsistencyError(f"{what} did not reduce to a rational")
    return int(value.as_rational())


def char_sum_regular(theta_lambda: TorusCharacter, theta_mu: TorusCharacter) -> int:
    """Sum of products of orbit sums over the noncentral torus elements.

    Computed by exponent counting: every term is a root of unity
    zeta_m^((q^i k_lambda + q^j k_mu) s), so one pass builds a length-m
    count vector and a single cyclotomic reduction gives the exact value,
    which must come out a rational integer.

    >>> t = build_torus(2, 3)
    >>> char_sum_regular(t.character(1), t.character(1))
    -9
    >>> char_sum_regular(t.character(1), t.character(3))
    12
    """
    _require_same_torus(theta_lambda, theta_mu)
    _require_general_position(theta_lambda, theta_mu)
    t = theta_lambda.torus
    central = set(t.central_elements())
    counts = [0] * t.m
    orbit_l = [t.q ** i * theta_lambda.exponent % t.m for i in range(1, t.l + 1)]
    orbit_m = [t.q ** j * theta_mu.exponent % t.m for j in range(1, t.l + 1)]
    for s in range(t.m):
        if s in central:
            continue
        for a in orbit_l:
            for b in orbit_m:
                counts[(a + b) * s % t.m] += 1
    return _reduce_to_integer(t.m, counts, "character sum")


# ---------------------------------------------------------------------------
# the additive side: the extension field under its trace pairing


class LieTorusModel:
    """The degree-l extension as an additive torus with Frobenius.

    This is the Lie algebra of the full induced torus: the whole field
    ``F_{q^l}``, on which the trace pairing is nondegenerate, so an element
    ``x`` defines the character ``s -> zeta_p^Tr(x s)`` (absolute trace)
    and distinct elements give distinct characters.  A character is regular
    when its Frobenius orbit has full size l; two regular elements are
    conjugate exactly when they share an orbit.  Small base fields are the
    reason for working here rather than on the norm-one hyperplane: the
    hyperplane can have every nonzero element in a single orbit, leaving no
    room for a non-conjugate pair, while the derived orbital constant is
    the same in either picture.

    >>> LieTorusModel(2, 3).field.order
    8
    """

    def __init__(self, q: int, l: int):
        torus = build_torus(q, l)  # validates q, l and fixes p, m, z
        self.q, self.l, self.p = q, l, torus.p
        self.m, self.z = torus.m, torus.z
        _, e = factor_prime_power(q)
        self.field = FiniteField(self.p, e * l)

    def _orbit(self, i: int) -> tuple:
        """The Frobenius orbit i, i^q, ..., i^(q^(l-1)) of an element index."""
        if not i:
            return (0,) * self.l
        antilog, log, _ = self.field.tables()
        n = self.field.order - 1
        return tuple(antilog[log[i] * self.q ** k % n] for k in range(self.l))

    def orbit(self, x) -> tuple:
        return tuple(map(self.field.coeffs, self._orbit(self.field.index(x))))

    def regular_character(self, x) -> bool:
        """Frobenius orbit of the induced character has size l."""
        return len(set(self._orbit(self.field.index(x)))) == self.l


def lie_char_sum(model: LieTorusModel, x_lambda, x_mu):
    """Brute additive analogue of the torus character sum, and its orbital term.

    Sums, over the nonzero elements of the extension, the product of the
    two characters' Frobenius-orbit sums.  Preconditions: both characters
    regular, and no product of orbit members trivial (no pair of orbit
    representatives summing to zero).  Returns ``(total, j)`` where
    ``j = -total / (l m)`` is the derived unipotent orbital contribution.

    >>> lie_char_sum(LieTorusModel(2, 3), (0, 0, 1), (1, 0, 1))
    (-9, Fraction(3, 7))
    """
    f = model.field
    for x in (x_lambda, x_mu):
        if not model.regular_character(x):
            raise ValueError(f"additive character {x} is not regular")
    orbit_l, orbit_m = model.orbit(x_lambda), model.orbit(x_mu)
    sums = [f.index(f.add(a, b)) for a in orbit_l for b in orbit_m]
    if 0 in sums:
        raise ValueError("a product of orbit characters is trivial")
    antilog, log, trace = f.tables()
    n = f.order - 1
    counts = [0] * model.p
    for c in sums:
        for s in range(1, f.order):
            counts[trace[antilog[(log[c] + log[s]) % n]]] += 1
    total = _reduce_to_integer(model.p, counts, "additive sum")
    return total, Fraction(-total, model.l * model.m)


def regular_pair(model: LieTorusModel):
    """Deterministic first pair of additive characters meeting every precondition.

    >>> regular_pair(LieTorusModel(3, 2))
    ((0, 1), (1, 1))
    """
    f = model.field
    regular = [orbit for orbit in map(model._orbit, range(f.order))
               if len(set(orbit)) == model.l]
    # an orbit sum a + b is zero exactly when b = -a
    negated = {f.index(f.neg(f.coeffs(a))) for a in regular[0]}
    for orbit in regular:
        if negated.isdisjoint(orbit):
            return f.coeffs(regular[0][0]), f.coeffs(orbit[0])
    raise ValueError("no admissible additive character pair exists")  # pragma: no cover


# ---------------------------------------------------------------------------
# assembling the multiplicity


def assemble_J(theta_lambda: TorusCharacter, theta_mu: TorusCharacter,
               char_sum: int) -> Fraction:
    """The assembled spectral multiplicity for a character pair.

    ``char_sum`` is the pair's :func:`char_sum_regular`, which the caller
    has already computed.  Zero straight away when the central restriction
    fails; otherwise (1/l) (1/m) char_sum + z * l (q-1) / (q^l - 1), where
    the volume factor 1/m and the unit orbital value folded into the last
    term are fixed rational constants.  The result must land in {0, 1}.

    >>> t = build_torus(2, 3)
    >>> a, b = t.character(1), t.character(3)
    >>> assemble_J(a, b, char_sum_regular(a, b))
    Fraction(1, 1)
    >>> assemble_J(a, a, char_sum_regular(a, a))
    Fraction(0, 1)
    """
    _require_same_torus(theta_lambda, theta_mu)
    _require_general_position(theta_lambda, theta_mu)
    t = theta_lambda.torus
    if not central_character_ok(theta_lambda, theta_mu):
        return Fraction(0)
    sum_part = Fraction(char_sum, t.l * t.m)
    orbital_part = t.z * Fraction(t.l * (t.q - 1), t.q ** t.l - 1)
    total = sum_part + orbital_part
    if total not in (0, 1):
        raise ConsistencyError(f"assembled multiplicity {total} is outside {{0, 1}}")
    return total


# ---------------------------------------------------------------------------
# the split-torus cuspidal filter


def cuspidal_filter_check(n: int, q: int, exps_lambda, exps_mu) -> bool:
    """Levi-centre restriction test for a split maximal torus of SL_n.

    The torus is the determinant-one diagonal subgroup; a character is a
    tuple of n exponents with respect to a generator of the multiplicative
    group (well defined up to a common shift).  The test passes when, for
    every maximal proper standard Levi (one block cut) and every Weyl
    permutation w, the character (theta_lambda^w)(theta_mu) restricts
    nontrivially to the Levi's central torus.

    >>> cuspidal_filter_check(2, 5, (1, 0), (2, 0))
    True
    >>> cuspidal_filter_check(2, 5, (1, 0), (1, 0))
    False
    >>> cuspidal_filter_check(2, 5, (1, 0), (-1, 0))
    False
    """
    if n < 2:
        raise ValueError("the group must have rank at least one")
    if factor_prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    d = q - 1
    exps_lambda = tuple(int(a) % d for a in exps_lambda)
    exps_mu = tuple(int(a) % d for a in exps_mu)
    if len(exps_lambda) != n or len(exps_mu) != n:
        raise ValueError(f"characters need {n} exponents")
    for w in itertools.permutations(range(n)):
        combined = tuple((exps_lambda[w[i]] + exps_mu[i]) % d for i in range(n))
        for cut in range(1, n):
            head = sum(combined[:cut]) % d
            tail = sum(combined[cut:]) % d
            trivial = all(
                (head * a + tail * b) % d == 0
                for a in range(d) for b in range(d)
                if (cut * a + (n - cut) * b) % d == 0)
            if trivial:
                return False
    return True
