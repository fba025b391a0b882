"""The four workloads: seeded inputs, the fixed case list of one round, and
the checks that the benchmark computes itself.

A workload is two functions.  ``inputs(seed, round_no, smoke)`` makes
plain data (argument lists, integers) from the seed and the round number
and never touches trunca; for round 0 it is the input-generation half of
set-up.  ``round_cases(lib, inputs)`` turns those inputs into the ordered
list of cases that one round runs.  Every round runs the same kinds of
case in the same order and numbers; only the seeded parameters differ, so
a run averages over more of them.  Cases of one round share a ``state``
dict, so a later case can check an earlier one's output (a re-asked qpsum
point, a far point against the law fitted in that round).

A case's ``call`` is the only part that is timed.  Its ``check`` runs
afterwards and returns ``None`` or a message saying what was wrong.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable


class CaseFailed(Exception):
    """The program did not answer: a non-zero exit or an exception."""


@dataclass
class Case:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def cli(lib, argv):
    """Run ``trunca.cli.main(argv)`` in-process and return its parsed stdout.

    argparse reports a bad flag by raising ``SystemExit``; that, like any
    non-zero exit, makes the case fail.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lib.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise CaseFailed(f"exit {rc}: {err.getvalue().strip()[-300:]}")
    return json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# qpsum: both lattice-sum routes through `trunca qpsum`

# The acceptance suite's QPSUM_COMBOS (1-based --P).  G2 Borel and A3 with
# P={1,2} are left out: on some parameters brute_sum misses support that
# lies on walls and disagrees with product_eval (see CHANGES.md, FOUND).
QPSUM_SPECS = (
    # (type, --P, points per round; each spec also re-asks one point).
    # Of the 44 queries, 11 are fast, 22 mid and 11 slow, so p50 falls in
    # the middle of the mid block and p95 in the middle of the A2 Borel one.
    ("A1", "", 2), ("B2", "1", 3), ("B2", "2", 3),   # ~5-10 ms a query
    ("A2", "1", 10), ("A2", "2", 10),                # ~50 ms
    ("B2", "", 6),                                   # ~90-150 ms
    ("A2", "", 3),                                   # ~600 ms
)
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


def qpsum_inputs(seed: int, round_no: int, smoke: bool):
    rng = random.Random(f"bench-qpsum:{seed}:{round_no}")
    out = []
    for ctype, p, count in QPSUM_SPECS:
        dim = 1 if ctype == "A1" else 2
        radius = 12 if ctype == "A1" else 4
        points = []
        for _ in range(1 if smoke else count):
            x = tuple(rng.randint(-radius, radius) for _ in range(dim))
            q = rng.choice(PRIME_POWERS)
            points.append((x, q))
        # one point is asked again under another q: the value may not move
        x0, q0 = points[0]
        q2 = rng.choice([q for q in PRIME_POWERS if q != q0])
        out.append((ctype, p, points, (x0, q2)))
    return out


def _qpsum_argv(ctype, p, x, q):
    return ["qpsum", "--type", ctype, f"--P={p}",
            "--X=" + ",".join(map(str, x)), "--q", str(q)]


def _qpsum_check(ctype, x, state, key, reask):
    def check(row):
        brute, product = Fraction(row["brute"]), Fraction(row["product"])
        if brute != product:
            return f"brute {brute} != product {product}"
        if row["equal"] is not True:
            return "equal flag is not true"
        if [Fraction(v) for v in row["X"]] != list(x):
            return f"X echoed as {row['X']}"
        if ctype == "A1" and brute != x[0] // 2:
            # A1 Borel on the coroot lattice 2Z: gamma(H) = [H > 0] - [H > X],
            # so the sum counts 0 < 2k <= X (minus X < 2k <= 0), i.e. floor(X/2)
            return f"A1 sum {brute} != floor(X/2) = {x[0] // 2}"
        if reask:
            first = state.get(key)
            if first is None:
                return "original query missing"
            if (brute, product) != first:
                return f"value moved with q: {first} -> {(brute, product)}"
        else:
            state[key] = (brute, product)
        return None
    return check


def qpsum_round(lib, inputs):
    state = {}
    cases = []
    for ctype, p, points, (rx, rq) in inputs:
        asks = [(x, q, False) for x, q in points] + [(rx, rq, True)]
        for x, q, reask in asks:
            argv = _qpsum_argv(ctype, p, x, q)
            key = (ctype, p, x)
            cases.append(Case(
                f"qpsum/{ctype}/P={p}" + ("/reask" if reask else ""),
                " ".join(argv),
                lambda argv=argv: cli(lib, argv),
                _qpsum_check(ctype, x, state, key, reask)))
    return cases


# ---------------------------------------------------------------------------
# lattice-law: enumerated sums, the fitted law, far points

# The acceptance suite's FIT_COMBOS (0-based subsets, as the library takes them).
FIT_SPECS = (
    ("A1", ()),
    ("A2", (0,)), ("A2", (1,)),
    ("B2", ()), ("B2", (0,)), ("B2", (1,)),
)


def lattice_inputs(seed: int, round_no: int, smoke: bool):
    """Seeded offsets of the far stencil's base point beyond the fitting grid.

    B2 Borel far points cost 0.3-0.6 s and grow with the offset, so its
    offsets vary over {1, 2} only; the cheap specs vary over 1..40.
    """
    rng = random.Random(f"bench-lattice:{seed}:{round_no}")
    out = []
    for ctype, subset in FIT_SPECS:
        dim = 1 if ctype == "A1" else 2
        lo, hi = (1, 2) if (ctype, subset) == ("B2", ()) else (1, 40)
        out.append((ctype, subset, tuple(rng.randint(lo, hi) for _ in range(dim))))
    return out


def _spec_case(lib, ctype, subset, state):
    def call():
        datum = lib.rootdata.build_root_datum(ctype)
        return lib.quasipoly.standard_lattice_spec(datum, subset)

    def check(spec):
        rank = len(spec.datum.cartan) - len(subset)
        if spec.rank != rank:
            return f"rank {spec.rank} != {rank}"
        span = spec.denominator * (rank + 2)
        corner = tuple(span - 1 for _ in spec.x_basis)
        if spec.x_coords(spec.x_point(corner)) != corner:
            return "x_point and x_coords do not invert each other"
        state["spec"] = spec
        state["samples"] = []
        return None
    return Case(f"lattice/{ctype}/P={subset}/spec", f"spec {ctype} {subset}",
                call, check)


def _grid_cases(lib, ctype, subset, state):
    """One case per point of the suite's fitting grid, [0, span)^dim with
    span = denominator * (rank + 2)."""
    spec = state["spec"]
    span = spec.denominator * (spec.rank + 2)
    dim = len(spec.x_basis)
    cases = []
    for index in range(span ** dim):
        coords = _unrank(index, span, dim)

        def call(coords=coords):
            return coords, lib.quasipoly.brute_sum(spec, spec.x_point(coords))

        def check(result):
            state["samples"].append(result)
            return None
        cases.append(Case(f"lattice/{ctype}/P={subset}/grid",
                          f"grid {ctype} {subset} {coords}", call, check))
    return cases


def _unrank(index, span, dim):
    coords = []
    for _ in range(dim):
        index, r = divmod(index, span)
        coords.append(r)
    return tuple(reversed(coords))


def _fit_case(lib, ctype, subset, state):
    def call():
        return lib.quasipoly.fit_quasipolynomial(state["spec"], state["samples"])

    def check(law):
        for coords, value in state["samples"]:
            if law.evaluate_rational(coords) != value:
                return f"law misses grid sample {coords}"
        step = math.lcm(*(f.denominator for freq in law.frequencies for f in freq))
        state["law"], state["step"] = law, step
        return None
    return Case(f"lattice/{ctype}/P={subset}/fit", f"fit {ctype} {subset}",
                call, check)


def _far_cases(lib, ctype, subset, offsets, state):
    """A finite-difference stencil: base + k*step*e_i for k = 0..rank+1
    along every coordinate i, sharing the base point.  Each enumerated sum
    must equal the law; the last point of each line also checks that the
    (rank+1)-th difference of the enumerated sums along it vanishes."""
    spec, step = state["spec"], state["step"]
    rank = spec.rank
    span = spec.denominator * (rank + 2)
    base = tuple(span + o for o in offsets)

    def point(axis, k):
        return tuple(c + k * step * (i == axis) for i, c in enumerate(base))
    far = {}
    cases = []
    for axis, k in [(0, 0)] + [(a, k) for a in range(len(base))
                               for k in range(1, rank + 2)]:
        coords = point(axis, k)

        def call(coords=coords):
            return lib.quasipoly.brute_sum(spec, spec.x_point(coords))

        def check(value, coords=coords, axis=axis, k=k):
            want = state["law"].evaluate_rational(coords)
            if value != want:
                return f"far point {coords}: enumerated {value} != law {want}"
            far[coords] = value
            if k == rank + 1:
                line = [far[point(axis, j)] for j in range(rank + 2)]
                diff = sum((-1) ** j * math.comb(rank + 1, j) * v
                           for j, v in enumerate(line))
                if diff != 0:
                    return f"difference of order {rank + 1} along axis {axis} is {diff}"
            return None
        cases.append(Case(f"lattice/{ctype}/P={subset}/far",
                          f"far {ctype} {subset} {coords}", call, check))
    return cases


def lattice_round(lib, inputs):
    """A generator: the grid and the stencil of a spec are known only once
    its spec case has run.  A spec whose earlier case failed is cut short."""
    for ctype, subset, offsets in inputs:
        state = {}
        yield _spec_case(lib, ctype, subset, state)
        if "spec" not in state:
            continue
        yield from _grid_cases(lib, ctype, subset, state)
        yield _fit_case(lib, ctype, subset, state)
        if "law" not in state:
            continue
        yield from _far_cases(lib, ctype, subset, offsets, state)


# ---------------------------------------------------------------------------
# refinement: `trunca refine` and the refinement-side verify suites

REFINE_TYPES = (
    # (type, refine calls per round).  The slow cases (A3, B3, C3, the
    # A3 verify calls) are 18 of the round's 199, with one folding call
    # above them, so p95 falls in the middle of the slow block and p50
    # among the ~20 ms rank-2 cases.
    ("A2", 58), ("B2", 58), ("G2", 58), ("A3", 12), ("B3", 2), ("C3", 2),
)
VERIFY_TYPES = ("A2", "B2", "G2", "A3")
# Textbook Cartan matrices, a_ij = <alpha_i, alpha_j^vee>, short root first.
TEXTBOOK_CARTAN = {"A3-to-C2": [[2, -1], [-2, 2]], "D4-to-G2": [[2, -1], [-3, 2]]}


def refinement_inputs(seed: int, round_no: int, smoke: bool):
    rng = random.Random(f"bench-refinement:{seed}:{round_no}")
    refine = [(t, rng.randint(0, 10 ** 6)) for t, n in REFINE_TYPES
              for _ in range(1 if smoke else n)]
    verify = [(suite, t, rng.randint(0, 10 ** 6))
              for t in VERIFY_TYPES for suite in ("indicator", "refinement")]
    return refine, verify, rng.randint(0, 10 ** 6)


def _refine_check(ctype, seed):
    def check(payload):
        if payload["type"] != ctype or payload["seed"] != seed:
            return "type or seed not echoed"
        ref = payload["refinement"]
        rows = payload["degrees"]
        degrees = [Fraction(r["degree"]) for r in rows]
        top = max(degrees)
        mine = [d for r, d in zip(rows, degrees)
                if r["subset"] == ref["subset"] and r["rep"] == ref["rep"]]
        if len(mine) != 1:
            return f"refinement {ref} is not a row of the degree table"
        if mine[0] != top:
            return f"refinement degree {mine[0]} is not the maximum {top}"
        inside = set(ref["subset"])
        for r, d in zip(rows, degrees):
            if d == top and not set(r["subset"]) <= inside:
                return f"maximal facet {r['subset']} lies outside {ref['subset']}"
        return None
    return check


_COUNT = re.compile(r"^(\d+) exact$")


def _records_check(payload, want_cartan=False):
    records = payload["records"]
    if not records or payload["ok"] is not True:
        return "suite not ok"
    for rec in records:
        if rec["ok"] is not True:
            return f"{rec['case']} failed: {rec['actual']}"
        m = _COUNT.match(rec["expected"])
        if m and int(m.group(1)) == 0:
            return f"{rec['case']} checked nothing"
        if want_cartan and rec["case"].endswith("/system"):
            name = rec["case"].split("/")[1]
            got = json.loads(re.search(r"cartan=(\[\[.*?\]\])", rec["actual"]).group(1))
            if got != TEXTBOOK_CARTAN[name]:
                return f"{name}: folded Cartan matrix {got}"
    if want_cartan and sum(r["case"].endswith("/system") for r in records) != 2:
        return "expected two folded systems"
    return None


def refinement_round(lib, inputs):
    refine, verify, folding = inputs
    cases = []
    for ctype, seed in refine:
        argv = ["refine", "--type", ctype, "--seed", str(seed)]
        cases.append(Case(f"refine/{ctype}", " ".join(argv),
                          lambda argv=argv: cli(lib, argv),
                          _refine_check(ctype, seed)))
    for suite, ctype, seed in verify:
        argv = ["verify", "--suite", suite, "--type", ctype,
                "--samples", "1", "--seed", str(seed)]
        cases.append(Case(f"verify-{suite}/{ctype}", " ".join(argv),
                          lambda argv=argv: cli(lib, argv), _records_check))
    argv = ["verify", "--suite", "folding", "--samples", "1", "--seed", str(folding)]
    cases.append(Case("verify-folding", " ".join(argv), lambda: cli(lib, argv),
                      lambda p: _records_check(p, want_cartan=True)))
    return cases


# ---------------------------------------------------------------------------
# torus: norm-one torus pairs, additive sums, the slltrace suite

PAIR_FIELDS = (
    # (q, l, pair queries per round), cheapest first.  With the five slow
    # cases, p50 falls in the middle of the (2, 7) pairs and p95 on the
    # verify call, the middle of the slow block.
    (8, 3, 8), (3, 5, 8), (2, 7, 14), (4, 5, 11),
)
# Additive (Lie) sums whose fields take about 0.1-2 s each.
LIE_FIELDS = ((2, 5), (7, 3), (3, 5), (8, 3))


def _torus_numbers(q, l):
    m = (q ** l - 1) // (q - 1)
    return m, math.gcd(l, q - 1)


def _general_position(k, q, l, m):
    return all(k * q ** i % m != k for i in range(1, l))


def torus_inputs(seed: int, round_no: int, smoke: bool):
    """Seeded character pairs in general position; half of them are
    contragredient by construction, so J = 1 occurs."""
    rng = random.Random(f"bench-torus:{seed}:{round_no}")
    pairs = []
    for q, l, count in PAIR_FIELDS:
        m, _ = _torus_numbers(q, l)
        gp = [k for k in range(m) if _general_position(k, q, l, m)]
        for i in range(1 if smoke else count):
            ka = rng.choice(gp)
            if i % 2:
                kb = (-ka * q ** rng.randrange(l)) % m
            else:
                kb = rng.choice(gp)
            pairs.append((q, l, ka, kb))
    return pairs


def _float_char_sum(q, l, ka, kb):
    """The regular character sum evaluated in complex floats, independently
    of the exact cyclotomic route: sum over non-central s of the product of
    the two Frobenius-orbit sums of zeta_m^(k s)."""
    m, z = _torus_numbers(q, l)
    central = {m // z * t for t in range(z)}
    orbit_a = [ka * q ** i % m for i in range(l)]
    orbit_b = [kb * q ** i % m for i in range(l)]
    total = 0j
    for s in range(m):
        if s in central:
            continue
        sa = sum(cmath.exp(2j * math.pi * (a * s % m) / m) for a in orbit_a)
        sb = sum(cmath.exp(2j * math.pi * (b * s % m) / m) for b in orbit_b)
        total += sa * sb
    return total


def _pair_check(q, l, ka, kb):
    def check(row):
        m, z = _torus_numbers(q, l)
        central = (ka + kb) * (m // z) % m == 0
        contra = (-ka) % m in {kb * q ** i % m for i in range(l)}
        if (row["k_lambda"], row["k_mu"]) != (ka, kb):
            return "pair not echoed"
        if row["general_position"] is not True:
            return "pair reported outside general position"
        if row["central_ok"] != central or row["contragredient"] != contra:
            return (f"central/contragredient {row['central_ok']}/"
                    f"{row['contragredient']} != {central}/{contra}")
        got = row["char_sum"]
        approx = _float_char_sum(q, l, ka, kb)
        if abs(approx.imag) > 1e-6 or abs(approx.real - got) > 1e-6:
            return f"char_sum {got} != float evaluation {approx}"
        if central:
            want = -z * (l * l - l) + (m - z) * l if contra else -z * l * l
            if got != want:
                return f"char_sum {got} != closed form {want}"
        if Fraction(row["J"]) != (1 if central and contra else 0):
            return f"J = {row['J']} with central={central} contragredient={contra}"
        return None
    return check


def _lie_case(lib, q, l):
    def call():
        model = lib.charfield.LieTorusModel(q, l)
        xa, xb = lib.charfield.regular_pair(model)
        return lib.charfield.lie_char_sum(model, xa, xb)

    def check(result):
        total, j = result
        want_j = Fraction(l * (q - 1), q ** l - 1)
        if (total, j) != (-l * l, want_j):
            return f"lie sum {(total, j)} != {(-l * l, want_j)}"
        return None
    return Case(f"lie/q{q}l{l}", f"lie_char_sum q={q} l={l}", call, check)


def torus_round(lib, inputs):
    cases = []
    for q, l, ka, kb in inputs:
        argv = ["slltrace", "--q", str(q), "--l", str(l),
                "--theta-lambda", str(ka), "--theta-mu", str(kb)]
        cases.append(Case(f"slltrace/q{q}l{l}", " ".join(argv),
                          lambda argv=argv: cli(lib, argv),
                          _pair_check(q, l, ka, kb)))
    for q, l in LIE_FIELDS:
        cases.append(_lie_case(lib, q, l))
    argv = ["verify", "--suite", "slltrace"]
    cases.append(Case("verify-slltrace", " ".join(argv),
                      lambda: cli(lib, argv), _records_check))
    return cases


WORKLOADS = {
    "qpsum": (qpsum_inputs, qpsum_round),
    "lattice-law": (lattice_inputs, lattice_round),
    "refinement": (refinement_inputs, refinement_round),
    "torus": (torus_inputs, torus_round),
}
