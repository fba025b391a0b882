"""Verification suites: every acceptance check as a deterministic report.

Each ``suite_*`` function exercises one family of claims end to end and
returns :class:`ReportRecord` rows; :func:`run_suites` glues them together
for the command line.  Sampling is seeded and reproducible — identical
arguments give byte-identical reports — and every comparison is exact
rational arithmetic, so a record is either right or wrong, never close.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .charfield import (
    LieTorusModel,
    assemble_J,
    build_torus,
    central_character_ok,
    char_sum_regular,
    contragredient_test,
    cuspidal_filter_check,
    general_position,
    lie_char_sum,
    regular_pair,
)
from .errors import ConsistencyError, WallError
from .linalg import dot
from .parabolic import enumerate_standard
from .polyhedra import (
    canonical_refinement,
    project_polyhedron,
    random_polyhedron,
    semistability_indicator,
)
from .quasipoly import brute_sum, fit_quasipolynomial, product_eval, standard_lattice_spec
from .rootdata import build_root_datum, fold
from .truncation import TruncationContext

INVERSION_TYPES = ("A1", "A1xA1", "A2", "B2", "G2", "A3")
REFINEMENT_TYPES = ("A1", "A2", "B2", "A3")
SLL_SWEEP = ((3, 2), (5, 2), (2, 3), (4, 3), (2, 5))
FILTER_FIELDS = (3, 5, 7)


# -- report plumbing ----------------------------------------------------------


def fmt_rational(x) -> str:
    """Exact "num/den" form, denominator always spelled out."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def fmt_value(x) -> str:
    """Serialize a report value: rationals as "num/den", everything else via
    str."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, Fraction)):
        return fmt_rational(x)
    return str(x)


@dataclass(frozen=True)
class ReportRecord:
    """One verified claim: what was expected, what happened, and whether
    those agree."""

    suite: str
    case: str
    expected: str
    actual: str
    ok: bool

    def as_dict(self) -> dict:
        return {"suite": self.suite, "case": self.case,
                "expected": self.expected, "actual": self.actual,
                "ok": self.ok}


def _tally(suite: str, case: str, total: int, failures: list) -> ReportRecord:
    """A record that passes only when it checked something and all held."""
    expected = f"{total} exact"
    if failures:
        first = failures[0]
        actual = f"{total - len(failures)}/{total} exact; first failure: {first}"
    else:
        actual = expected
    return ReportRecord(suite, case, expected, actual, total > 0 and not failures)


# -- shared samplers ----------------------------------------------------------


def _wall_free_points(ctx: TruncationContext, rng: random.Random, count: int):
    """Rational points avoiding every projected-root and relative-weight
    wall of every standard pair, by rejection against the identity check
    itself (it raises on walls)."""
    datum = ctx.datum
    subsets = enumerate_standard(datum)
    pairs = [(p, q) for p in subsets for q in subsets if set(p) <= set(q)]
    points = []
    while len(points) < count:
        h = tuple(rng.randint(-40, 40) + Fraction(rng.randint(1, 6), 7)
                  for _ in range(datum.dim))
        try:
            for p, q in pairs:
                ctx.langlands_inversion_check(p, q, h)
        except WallError:
            continue
        points.append(h)
    return points, pairs


# -- criterion 1: Langlands inversion -----------------------------------------


def suite_inversion(samples: int = 1000, seed: int = 0,
                    types=INVERSION_TYPES) -> list[ReportRecord]:
    """The alternating tau / tau-hat identity returns delta_{P=Q} on
    wall-free rational points, for every standard pair of every type."""
    records = []
    for tname in types:
        datum = build_root_datum(tname)
        ctx = datum.truncation
        rng = random.Random(f"inversion:{tname}:{seed}")
        points, pairs = _wall_free_points(ctx, rng, samples)
        failures = []
        for h in points:
            for p, q in pairs:
                if not ctx.langlands_inversion_check(p, q, h):
                    failures.append(f"P={p} Q={q} H={h}")
        records.append(_tally("inversion", f"inversion/{tname}",
                              samples * len(pairs), failures))
    return records


# -- criterion 2: gamma properties --------------------------------------------


def suite_gamma(samples: int = 1000, seed: int = 0,
                types=INVERSION_TYPES) -> list[ReportRecord]:
    """Vanishing of gamma at X = 0 for proper parabolics, constancy at the
    full group, and lattice sums over the support bounds read from gamma's
    arrangement vertices that strictly wider bounds leave unchanged."""
    records = []
    for tname in types:
        datum = build_root_datum(tname)
        ctx = datum.truncation
        rng = random.Random(f"inversion:{tname}:{seed}")  # the same sampling
        points, _ = _wall_free_points(ctx, rng, samples)
        proper = [s for s in enumerate_standard(datum)
                  if len(s) < datum.rank_ss]
        full = tuple(range(datum.rank_ss))
        zero = (Fraction(0),) * datum.dim
        vanish, const = [], []
        for h in points:
            for p in proper:
                got = ctx.gamma(p, h, zero)
                if got != 0:
                    vanish.append(f"P={p} H={h} gamma={got}")
            x = tuple(rng.randint(-9, 9) + Fraction(rng.randint(1, 6), 7)
                      for _ in range(datum.dim))
            if ctx.gamma(full, h, x) != 1:
                const.append(f"H={h} X={x}")
        records.append(_tally("gamma", f"gamma/vanishing/{tname}",
                              samples * len(proper), vanish))
        records.append(_tally("gamma", f"gamma/full-group/{tname}",
                              samples, const))

    for tname, box in (("A1", 6), ("A2", 2)):
        datum = build_root_datum(tname)
        failures = []
        total = 0
        for subset in enumerate_standard(datum):
            if len(subset) == datum.rank_ss:
                continue
            spec = standard_lattice_spec(datum, subset)
            for coords in itertools.product(range(-box, box + 1),
                                            repeat=datum.dim):
                total += 1
                try:
                    brute_sum(spec, spec.x_point(coords), certify=True)
                except Exception as exc:  # ConsistencyError carries both sums
                    failures.append(f"P={subset} X={coords}: {exc}")
        records.append(_tally("gamma", f"gamma/support-doubling/{tname}",
                              total, failures))
    return records


# -- criteria 3 and 4: refinement and the semistability indicator -------------


def _corpus_records(suite: str, check, types, seed: int, samples: int,
                    corpora) -> list[ReportRecord]:
    """One record per type: ``check`` must not raise on any polyhedron of
    the type's seeded wall-free corpus, drawn lazily.  ``corpora`` is the
    dict that one :func:`run_suites` call hands to both suites that read
    the corpus: the first keeps each drawn list in it, and the second takes
    the list out instead of drawing it again."""
    records = []
    for tname in types:
        key = (tname, seed, samples)
        if corpora is not None and key in corpora:
            corpus = corpora.pop(key)
        else:
            datum = build_root_datum(tname)
            corpus = (random_polyhedron(datum, random.Random(f"corpus:{tname}:{seed}:{i}"))
                      for i in range(samples))
            if corpora is not None:
                corpus = corpora[key] = list(corpus)
        failures = []
        for i, cp in enumerate(corpus):
            try:
                check(cp)
            except Exception as exc:
                failures.append(f"instance {i}: {exc}")
        records.append(_tally(suite, f"{suite}/{tname}", samples, failures))
    return records


def _refinement_check(cp) -> None:
    """The canonical refinement, which cross-checks both of its clauses, and
    one degree on every chamber of each facet's coset.  A degree is the
    integer pairing of a root sum with a transported vertex, over
    ``cp.den``, so the pairings are compared."""
    canonical_refinement(cp)
    ctx = cp.datum.truncation
    weyl = cp.datum.weyl
    trans = cp.transported()
    for subset in enumerate_standard(cp.datum):
        root_sum = ctx.root_sum(subset, ctx.full)
        reps = weyl.min_reps(subset)
        by_rep = {}
        for w in weyl.elements:
            val = dot(root_sum, trans[w.index])
            if by_rep.setdefault(reps[w.index], val) != val:
                raise ConsistencyError("degree depends on the chamber representative")


def suite_refinement(samples: int = 1000, seed: int = 0,
                     types=REFINEMENT_TYPES, corpora=None) -> list[ReportRecord]:
    """Existence, uniqueness, and the two defining clauses of the canonical
    refinement over a seeded wall-free corpus, plus chamber-representative
    independence of every facet degree on every instance."""
    return _corpus_records("refinement", _refinement_check, types, seed, samples,
                           corpora)


def suite_indicator(samples: int = 1000, seed: int = 0,
                    types=REFINEMENT_TYPES, corpora=None) -> list[ReportRecord]:
    """The alternating obtuse-cone sum equals [refinement = G] on the same
    corpus the refinement suite uses (``semistability_indicator`` raises
    when they disagree)."""
    return _corpus_records("indicator", semistability_indicator, types, seed, samples,
                           corpora)


# -- criterion 5: foldings ----------------------------------------------------

FOLDINGS = (
    ("A3-to-C2", "A3", (2, 1, 0), [[2, -1], [-2, 2]]),
    ("D4-to-G2", "D4", (2, 1, 3, 0), [[2, -1], [-3, 2]]),
)


def suite_folding(samples: int = 100, seed: int = 0) -> list[ReportRecord]:
    """Diagram foldings produce the expected restricted systems with length
    ratios in (0, 1], and projected polyhedra validate."""
    records = []
    for name, big_name, perm, want_cartan in FOLDINGS:
        big = build_root_datum(big_name)
        folding = fold(big, perm)
        got_cartan = [list(map(int, row)) for row in folding.small.cartan]
        ratios_ok = all(0 < c <= 1 for c in folding.c.values())
        ok = got_cartan == want_cartan and ratios_ok
        records.append(ReportRecord(
            "folding", f"folding/{name}/system",
            f"cartan={want_cartan}, ratios in (0,1]",
            f"cartan={got_cartan}, ratios in (0,1]={ratios_ok}", ok))

        failures = []
        for i in range(samples):
            rng = random.Random(f"folding:{name}:{seed}:{i}")
            cp = random_polyhedron(big, rng, require_wall_free=False)
            try:
                project_polyhedron(cp, folding)  # validates before returning
            except Exception as exc:
                failures.append(f"instance {i}: {exc}")
        records.append(_tally("folding", f"folding/{name}/projection",
                              samples, failures))
    return records


# -- criterion 6: lattice sums vs geometric products ---------------------------

QPSUM_COMBOS = (
    ("A1", ()),
    ("A2", ()), ("A2", (0,)), ("A2", (1,)),
    ("B2", ()), ("B2", (0,)), ("B2", (1,)),
    ("G2", ()), ("G2", (0,)), ("G2", (1,)),
    ("A3", ()), ("A3", (0,)), ("A3", (1,)), ("A3", (2,)),
    ("A3", (0, 1)), ("A3", (0, 2)), ("A3", (1, 2)),
)
FIT_COMBOS = (
    ("A1", ()),
    ("A2", (0,)), ("A2", (1,)),
    ("B2", ()), ("B2", (0,)), ("B2", (1,)),
)
FIT_HELDOUT = 20


def suite_qpsum(samples: int = 50, seed: int = 0) -> list[ReportRecord]:
    """Geometric-series evaluation agrees with brute lattice summation at
    every sampled point, and each fitted quasi-polynomial law extrapolates
    to ``FIT_HELDOUT`` held-out points."""
    records = []
    data = {}
    for tname, subset in QPSUM_COMBOS:
        datum = data.setdefault(tname, build_root_datum(tname))
        spec = standard_lattice_spec(datum, subset)
        rng = random.Random(f"qpsum:{tname}:{subset}:{seed}")
        failures = []
        for _ in range(samples):
            coords = tuple(rng.randint(-5, 5) for _ in range(datum.dim))
            x = spec.x_point(coords)
            want = brute_sum(spec, x)
            got = product_eval(spec, x)
            if got != want:
                failures.append(f"X={coords}: product={fmt_value(got)} "
                                f"brute={fmt_value(want)}")
        records.append(_tally(
            "qpsum", f"qpsum/oracle/{tname}/P={_pretty_subset(subset)}",
            samples, failures))

    for tname, subset in FIT_COMBOS:
        datum = data.setdefault(tname, build_root_datum(tname))
        spec = standard_lattice_spec(datum, subset)
        span = spec.denominator * (spec.rank + 2)
        grid = itertools.product(range(span), repeat=len(spec.x_basis))
        law = fit_quasipolynomial(
            spec, [(c, brute_sum(spec, spec.x_point(c))) for c in grid])
        rng = random.Random(f"qpsum-fit:{tname}:{subset}:{seed}")
        failures = []
        for _ in range(FIT_HELDOUT):
            coords = tuple(rng.randint(span + 1, span + 12)
                           for _ in range(datum.dim))
            want = brute_sum(spec, spec.x_point(coords))
            got = law.evaluate_rational(coords)
            if got != want:
                failures.append(f"X={coords}: law={fmt_value(got)} "
                                f"brute={fmt_value(want)}")
        records.append(_tally(
            "qpsum", f"qpsum/fit/{tname}/P={_pretty_subset(subset)}",
            FIT_HELDOUT, failures))
    return records


def _pretty_subset(subset) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(subset)) + "}"


# -- criterion 7: the norm-one torus sweep ------------------------------------


def closed_form_char_sum(q: int, l: int, contragredient: bool) -> int:
    """The two closed-form values for the regular character sum over
    general-position pairs with compatible central characters."""
    m = (q ** l - 1) // (q - 1)
    z = math.gcd(l, q - 1)
    if contragredient:
        return -z * (l * l - l) + (m - z) * l
    return -z * l * l


def suite_slltrace() -> list[ReportRecord]:
    """The full multiplicity-one sweep: closed forms for the character sums,
    the unipotent term from brute additive sums, and the assembled 0/1
    multiplicity, over every case of the sweep."""
    records = []
    for q, l in SLL_SWEEP:
        torus = build_torus(q, l)
        tag = f"slltrace/q{q}l{l}"
        gp = [k for k in range(torus.m) if general_position(torus.character(k))]

        closed_fail, assembly_fail = [], []
        n_pairs = 0
        for ka, kb in itertools.product(gp, repeat=2):
            ta, tb = torus.character(ka), torus.character(kb)
            if not central_character_ok(ta, tb):
                continue
            n_pairs += 1
            contra = contragredient_test(ta, tb)
            want = closed_form_char_sum(q, l, contra)
            got = char_sum_regular(ta, tb)
            if got != want:
                closed_fail.append(f"(k_l={ka},k_m={kb}): sum={got} closed={want}")
            j = assemble_J(ta, tb, got)
            if j != (1 if contra else 0):
                assembly_fail.append(f"(k_l={ka},k_m={kb}): J={fmt_value(j)} "
                                     f"contragredient={contra}")
        records.append(_tally("slltrace", f"{tag}/closed-forms",
                              n_pairs, closed_fail))
        records.append(_tally("slltrace", f"{tag}/assembly",
                              n_pairs, assembly_fail))

        model = LieTorusModel(q, l)
        xa, xb = regular_pair(model)
        total, j_nilp = lie_char_sum(model, xa, xb)
        want_j = Fraction(l * (q - 1), q ** l - 1)
        ok = total == -l * l and j_nilp == want_j
        records.append(ReportRecord(
            "slltrace", f"{tag}/jnilp",
            f"sum={-l * l}, J={fmt_rational(want_j)}",
            f"sum={total}, J={fmt_rational(j_nilp)} at pair ({xa}, {xb})", ok))
    return records


# -- criterion 8: the split-torus cuspidal filter ------------------------------


def suite_filtercheck() -> list[ReportRecord]:
    """Exhaustive SL_2 check of the Levi-centre filter against the explicit
    condition: pass exactly when theta_mu avoids theta_lambda^{+-1}."""
    records = []
    for q in FILTER_FIELDS:
        d = q - 1
        failures = []
        for ea in itertools.product(range(d), repeat=2):
            for eb in itertools.product(range(d), repeat=2):
                got = cuspidal_filter_check(2, q, ea, eb)
                ka = (ea[0] - ea[1]) % d
                kb = (eb[0] - eb[1]) % d
                want = kb != ka and kb != (-ka) % d
                if got != want:
                    failures.append(f"lambda={ea} mu={eb}: "
                                    f"filter={got} condition={want}")
        records.append(_tally("filtercheck", f"filtercheck/SL2/q{q}",
                              d ** 4, failures))
    return records


# -- assembly ------------------------------------------------------------------

SUITES = {
    "inversion": suite_inversion,
    "gamma": suite_gamma,
    "refinement": suite_refinement,
    "indicator": suite_indicator,
    "folding": suite_folding,
    "qpsum": suite_qpsum,
    "slltrace": suite_slltrace,
    "filtercheck": suite_filtercheck,
}

_SAMPLED = {"inversion", "gamma", "refinement", "indicator", "folding", "qpsum"}


def run_suites(names=None, seed: int = 0, samples: int | None = None,
               types=None) -> list[ReportRecord]:
    """Run the named suites (all of them by default) and return the records
    sorted by case identifier.

    ``samples`` overrides each sampled suite's default count — handy for
    smoke runs; the defaults are the full acceptance sizes.  ``types``
    narrows the Cartan types where a suite ranges over them.
    """
    if names is None or names == ["all"]:
        names = sorted(SUITES)
    # one corpus per type for both suites that read it, dropped on return
    corpora = {} if {"refinement", "indicator"} <= set(names) else None
    records = []
    for name in names:
        fn = SUITES[name]
        kwargs = {}
        if name in _SAMPLED:
            kwargs["seed"] = seed
            if samples is not None:
                kwargs["samples"] = samples
        if types is not None and name in ("inversion", "gamma", "refinement",
                                          "indicator"):
            kwargs["types"] = tuple(types)
        if corpora is not None and name in ("refinement", "indicator"):
            kwargs["corpora"] = corpora
        records.extend(fn(**kwargs))
    return sorted(records, key=lambda r: r.case)
