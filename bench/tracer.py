"""Per-layer tracing from outside the program.

The tracer replaces the public functions and methods listed in ``TARGETS``
with timing wrappers: a module-level function in its defining module and in
every loaded ``trunca`` module that imported it by name, a method on its
class.  Each call made while a case runs becomes a span (name, start, end,
parent span, case id) kept in flat arrays, and its self time (duration
minus the time its child spans cover) and call count are added up as it
returns.  Every case is a root span of its own, so the self times of one
case add up to the case's time.  A target that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (span name, module, class or None, attributes wrapped under that name).
# The layer is the part of the span name before the dot.  `parabolic` and
# `linalg` are leaf helpers: their time stays in their callers' self time.
# Spans that no metric names (build, fold, random, degree, ...) are there so
# that their self time lands in the right layer of the trace's layer totals.
TARGETS = (
    ("cli.main", "trunca.cli", None, ("main",)),
    ("verify.run_suites", "trunca.verify", None, ("run_suites",)),
    ("rootdata.build", "trunca.rootdata", None, ("build_root_datum",)),
    ("rootdata.fold", "trunca.rootdata", None, ("fold",)),
    ("rootdata.weyl_generate", "trunca.rootdata", None, ("generate_weyl",)),
    ("rootdata.mult", "trunca.rootdata", "WeylGroup", ("mult",)),
    ("rootdata.act", "trunca.rootdata", "WeylGroup", ("act",)),
    ("rootdata.min_rep", "trunca.rootdata", "WeylGroup", ("min_rep",)),
    ("truncation.gamma", "trunca.truncation", "TruncationContext", ("gamma",)),
    ("truncation.support_box", "trunca.truncation", "TruncationContext",
     ("gamma_support_box",)),
    ("polyhedra.random", "trunca.polyhedra", None, ("random_polyhedron",)),
    ("polyhedra.generate", "trunca.polyhedra", None, ("generate",)),
    ("polyhedra.degree", "trunca.polyhedra", None, ("degree",)),
    ("polyhedra.refine", "trunca.polyhedra", None, ("canonical_refinement",)),
    ("polyhedra.indicator", "trunca.polyhedra", None, ("semistability_indicator",)),
    ("polyhedra.project", "trunca.polyhedra", None, ("project_polyhedron",)),
    ("quasipoly.spec_build", "trunca.quasipoly", None, ("standard_lattice_spec",)),
    ("quasipoly.brute_sum", "trunca.quasipoly", None, ("brute_sum",)),
    ("quasipoly.product_eval", "trunca.quasipoly", None, ("product_eval",)),
    ("quasipoly.fit", "trunca.quasipoly", None, ("fit_quasipolynomial",)),
    ("cyclotomic.mul", "trunca.cyclotomic", "CyclotomicNumber", ("__mul__", "__rmul__")),
    ("cyclotomic.add", "trunca.cyclotomic", "CyclotomicNumber",
     ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("cyclotomic.neg", "trunca.cyclotomic", "CyclotomicNumber", ("__neg__",)),
    ("cyclotomic.inverse", "trunca.cyclotomic", "CyclotomicNumber", ("inverse",)),
    ("cyclotomic.reduce", "trunca.cyclotomic", "CyclotomicNumber",
     ("from_exponent_counts",)),
    ("charfield.build_torus", "trunca.charfield", None, ("build_torus",)),
    ("charfield.char_sum", "trunca.charfield", None, ("char_sum_regular",)),
    ("charfield.assemble", "trunca.charfield", None, ("assemble_J",)),
    ("charfield.lie_model", "trunca.charfield", "LieTorusModel", ("__init__",)),
    ("charfield.regular_pair", "trunca.charfield", None, ("regular_pair",)),
    ("charfield.lie_sum", "trunca.charfield", None, ("lie_char_sum",)),
    ("charfield.field_mul", "trunca.charfield", "FiniteField", ("mul",)),
)

CASE_SPAN = "bench.case"
GAMMA, BRUTE = "truncation.gamma", "quasipoly.brute_sum"
ARITH = ("cyclotomic.mul", "cyclotomic.add", "cyclotomic.neg", "cyclotomic.inverse")

# (metric, unit, what, span names): what is "calls", "self_ms", or
# "lattice_points" (gamma calls made inside brute_sum).
METRICS = (
    ("rootdata.weyl_generate_calls", "count", "calls", ("rootdata.weyl_generate",)),
    ("rootdata.weyl_generate_ms", "ms", "self_ms", ("rootdata.weyl_generate",)),
    ("rootdata.mult_calls", "count", "calls", ("rootdata.mult",)),
    ("rootdata.mult_ms", "ms", "self_ms", ("rootdata.mult",)),
    ("rootdata.act_calls", "count", "calls", ("rootdata.act",)),
    ("rootdata.act_ms", "ms", "self_ms", ("rootdata.act",)),
    ("rootdata.min_rep_calls", "count", "calls", ("rootdata.min_rep",)),
    ("rootdata.min_rep_ms", "ms", "self_ms", ("rootdata.min_rep",)),
    ("polyhedra.generate_ms", "ms", "self_ms", ("polyhedra.generate",)),
    ("polyhedra.refine_calls", "count", "calls", ("polyhedra.refine",)),
    ("polyhedra.refine_ms", "ms", "self_ms", ("polyhedra.refine",)),
    ("polyhedra.indicator_ms", "ms", "self_ms", ("polyhedra.indicator",)),
    ("polyhedra.project_ms", "ms", "self_ms", ("polyhedra.project",)),
    ("truncation.support_box_calls", "count", "calls", ("truncation.support_box",)),
    ("truncation.support_box_ms", "ms", "self_ms", ("truncation.support_box",)),
    ("truncation.gamma_calls", "count", "calls", (GAMMA,)),
    ("truncation.gamma_ms", "ms", "self_ms", (GAMMA,)),
    ("quasipoly.lattice_points", "count", "lattice_points", (GAMMA,)),
    ("quasipoly.brute_sum_calls", "count", "calls", (BRUTE,)),
    ("quasipoly.fit_ms", "ms", "self_ms", ("quasipoly.fit",)),
    ("quasipoly.product_eval_calls", "count", "calls", ("quasipoly.product_eval",)),
    ("quasipoly.product_eval_ms", "ms", "self_ms", ("quasipoly.product_eval",)),
    ("quasipoly.spec_build_ms", "ms", "self_ms", ("quasipoly.spec_build",)),
    ("cyclotomic.mul_calls", "count", "calls", ("cyclotomic.mul",)),
    ("cyclotomic.add_calls", "count", "calls", ("cyclotomic.add",)),
    ("cyclotomic.inverse_calls", "count", "calls", ("cyclotomic.inverse",)),
    ("cyclotomic.arith_ms", "ms", "self_ms", ARITH),
    ("cyclotomic.reduce_calls", "count", "calls", ("cyclotomic.reduce",)),
    ("cyclotomic.reduce_ms", "ms", "self_ms", ("cyclotomic.reduce",)),
    ("charfield.char_sum_calls", "count", "calls", ("charfield.char_sum",)),
    ("charfield.char_sum_ms", "ms", "self_ms", ("charfield.char_sum",)),
    ("charfield.assemble_ms", "ms", "self_ms", ("charfield.assemble",)),
    ("charfield.lie_sum_ms", "ms", "self_ms", ("charfield.lie_sum",)),
    ("charfield.field_mul_calls", "count", "calls", ("charfield.field_mul",)),
    ("cli.self_ms", "ms", "self_ms", ("cli.main",)),
    ("verify.self_ms", "ms", "self_ms", ("verify.run_suites",)),
)


class Tracer:
    """Spans and per-name totals for the calls made inside cases."""

    def __init__(self):
        self.names = [CASE_SPAN] + [t[0] for t in TARGETS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self._brute, self._gamma = self._index[BRUTE], self._index[GAMMA]
        self.absent = []
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.lattice_points = 0
        self._brute_depth = 0
        self._stack = []  # [span id, name index, start, child time]
        self._case = -1
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_case = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.origin = time.perf_counter()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, modname, clsname, attrs in TARGETS:
            module = sys.modules.get(modname)
            owner = module if clsname is None else getattr(module, clsname, None)
            for attr in attrs:
                where = f"{modname}.{clsname + '.' if clsname else ''}{attr}"
                if owner is None or attr not in vars(owner):
                    self.absent.append(where)
                    continue
                if clsname is None:
                    self._patch_function(owner, attr, name)
                else:
                    self._patch_method(owner, attr, name)

    def _patch_function(self, module, attr, name) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for modname, mod in list(sys.modules.items()):
            if modname != "trunca" and not modname.startswith("trunca."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, name) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, self._wrap(name, raw))

    def _wrap(self, name, fn):
        index = self._index[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._case < 0:
                return fn(*args, **kwargs)
            self._enter(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    # -- spans ------------------------------------------------------------

    def _enter(self, index) -> None:
        span = len(self.span_name)
        self.span_name.append(index)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_case.append(self._case)
        self.span_end.append(0.0)
        if index == self._brute:
            self._brute_depth += 1
        elif index == self._gamma and self._brute_depth:
            self.lattice_points += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([span, index, start, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span, index, start, child = self._stack.pop()
        self.span_end[span] = end
        duration = end - start
        self.calls[index] += 1
        self.self_s[index] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if index == self._brute:
            self._brute_depth -= 1

    def run_case(self, case_id: int, call):
        """Run ``call`` as the root span of case ``case_id``."""
        self._case = case_id
        self._enter(0)
        try:
            return call()
        finally:
            self._exit()
            self._case = -1

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for metric, unit, what, names in METRICS:
            idx = [self._index[n] for n in names]
            if what == "calls":
                value = sum(self.calls[i] for i in idx)
            elif what == "self_ms":
                value = 1000 * sum(self.self_s[i] for i in idx)
            else:
                value = self.lattice_points
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path, extra: dict) -> None:
        def us(values):
            return [round((v - self.origin) * 1e6) for v in values]
        layers = {}
        for name, secs in zip(self.names, self.self_s):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + 1000 * secs
        payload = dict(extra)
        payload.update({
            "absent": self.absent,
            "calls": dict(zip(self.names, self.calls)),
            "self_ms": {n: 1000 * s for n, s in zip(self.names, self.self_s)},
            "layer_self_ms": layers,
            "lattice_points": self.lattice_points,
            "span_names": self.names,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "case": list(self.span_case),
                "start_us": us(self.span_start),
                "end_us": us(self.span_end),
            },
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
