"""Acceptance gate: one test per release criterion, at full scale.

Each test drives the matching suite from :mod:`trunca.verify` at its default
(full) sample sizes, requires every resulting record to pass, and enforces
the stated runtime budget.  ``pytest -v tests/test_acceptance.py`` therefore
prints exactly one pass/fail line per criterion; add ``-s`` for the timing
summaries.
"""

import time

from trunca.verify import (
    FILTER_FIELDS,
    INVERSION_TYPES,
    REFINEMENT_TYPES,
    SLL_SWEEP,
    run_suites,
)


def _gate(records, elapsed, budget=None):
    assert records, "suite produced no records"
    bad = [r.case for r in records if not r.ok]
    assert not bad, f"failed cases: {bad}"
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget:.0f}s"


def _timed(names, **kwargs):
    t0 = time.monotonic()
    records = run_suites(names, **kwargs)
    return records, time.monotonic() - t0


def test_criterion_1_langlands_inversion():
    slowest = 0.0
    for kind in INVERSION_TYPES:
        records, elapsed = _timed(["inversion"], types=(kind,))
        _gate(records, elapsed, budget=60.0)
        slowest = max(slowest, elapsed)
    print(f"criterion 1 (inversion identity, {len(INVERSION_TYPES)} types): "
          f"PASS - slowest type {slowest:.1f}s")


def test_criterion_2_gamma_properties():
    records, elapsed = _timed(["gamma"])
    _gate(records, elapsed)
    cases = {r.case for r in records}
    assert {f"gamma/vanishing/{t}" for t in INVERSION_TYPES} <= cases
    assert {f"gamma/full-group/{t}" for t in INVERSION_TYPES} <= cases
    assert {"gamma/support-doubling/A1", "gamma/support-doubling/A2"} <= cases
    print(f"criterion 2 (gamma vanishing/constant/support): PASS - "
          f"{len(records)} cases in {elapsed:.1f}s")


def test_criterion_3_canonical_refinement():
    records, elapsed = _timed(["refinement"])
    _gate(records, elapsed, budget=300.0)
    assert {r.case for r in records} == {f"refinement/{t}" for t in REFINEMENT_TYPES}
    print(f"criterion 3 (refinement, 1000 polyhedra/type): PASS - {elapsed:.1f}s")


def test_criterion_4_semistability_indicator():
    records, elapsed = _timed(["indicator"])
    _gate(records, elapsed)
    assert {r.case for r in records} == {f"indicator/{t}" for t in REFINEMENT_TYPES}
    print(f"criterion 4 (indicator = [refinement is full]): PASS - {elapsed:.1f}s")


def test_criterion_5_foldings():
    records, elapsed = _timed(["folding"])
    _gate(records, elapsed)
    assert {r.case for r in records} == {
        "folding/A3-to-C2/system", "folding/A3-to-C2/projection",
        "folding/D4-to-G2/system", "folding/D4-to-G2/projection"}
    print(f"criterion 5 (foldings + 100 projections each): PASS - {elapsed:.1f}s")


def test_criterion_6_lattice_sum_routes():
    records, elapsed = _timed(["qpsum"])
    _gate(records, elapsed, budget=600.0)
    oracle = [r for r in records if "/oracle/" in r.case]
    fits = [r for r in records if "/fit/" in r.case]
    assert len(oracle) == 17 and len(fits) == 6
    print(f"criterion 6 (series = enumeration, fits predict): PASS - {elapsed:.1f}s")


def test_criterion_7_character_sum_sweep():
    records, elapsed = _timed(["slltrace"])
    _gate(records, elapsed, budget=300.0)
    for q, l in SLL_SWEEP:
        for part in ("closed-forms", "jnilp", "assembly"):
            assert any(r.case == f"slltrace/q{q}l{l}/{part}" for r in records)
    print(f"criterion 7 (character sums, {len(SLL_SWEEP)} field cases): "
          f"PASS - {elapsed:.1f}s")


def test_criterion_8_cuspidal_filter():
    records, elapsed = _timed(["filtercheck"])
    _gate(records, elapsed)
    assert [r.case for r in records] == [
        f"filtercheck/SL2/q{q}" for q in FILTER_FIELDS]
    # exhaustive pair counts: (q-1)^4 per field
    assert [r.expected for r in records] == ["16 exact", "256 exact", "1296 exact"]
    print(f"criterion 8 (rank-one filter, exhaustive): PASS - {elapsed:.1f}s")
