"""Command-line surface: exact, deterministic, scriptable.

Every subcommand is a thin wrapper over one library operation; all numeric
output is exact (rationals as ``num/den`` strings) and identical invocations
produce byte-identical output.  Flags can be preloaded from a JSON config
file with ``--config``; explicitly passed flags win over the file.

Exit codes: 0 on success, 1 when a check fails or a module raises, 2 for an
invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
from fractions import Fraction

from .charfield import (
    assemble_J,
    build_torus,
    central_character_ok,
    char_sum_regular,
    contragredient_test,
    cuspidal_filter_check,
    factor_prime_power,
    general_position,
)
from .errors import CartanMatrixError, ConsistencyError
from .parabolic import enumerate_semistandard
from .polyhedra import canonical_refinement, degree, random_polyhedron
from .quasipoly import brute_sum, product_eval, standard_lattice_spec
from .rootdata import build_root_datum
from .verify import SUITES, fmt_rational, run_suites


# -- parsing helpers -----------------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """ "3/7", "-2", "5/1" — exact, no floats.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def parse_vector(text: str):
    """Comma-separated rationals; the empty string is the empty tuple."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_rational(part) for part in text.split(","))


def parse_subset(text: str) -> tuple[int, ...]:
    """1-based comma-separated simple-root indices -> 0-based sorted tuple."""
    vals = parse_vector(text)
    out = []
    for v in vals:
        if v.denominator != 1 or v < 1:
            raise ValueError(f"subset entries must be positive integers: {text!r}")
        out.append(int(v) - 1)
    return tuple(sorted(set(out)))


def fmt_vector(v) -> list[str]:
    return [fmt_rational(x) for x in v]


# -- output --------------------------------------------------------------------


def _emit(payload, config: argparse.Namespace) -> None:
    if config.out_format == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload) -> str:
    """Flatten the payload's row list (or the payload itself) to CSV."""
    rows = payload
    if isinstance(payload, dict):
        for key in ("records", "rows", "positive_roots", "elements"):
            if key in payload:
                rows = payload[key]
                break
        else:
            rows = [payload]
    buf = io.StringIO()
    if not rows:
        return ""
    header = list(rows[0])
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    return buf.getvalue()


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)


# -- subcommands -----------------------------------------------------------


class ConfigError(ValueError):
    """An invalid configuration: reported with exit status 2."""


def _datum(label):
    """A bad type label is a configuration problem, not a module failure."""
    try:
        return build_root_datum(label)
    except CartanMatrixError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_roots(config: argparse.Namespace) -> int:
    datum = _datum(config.ctype)
    rows = [{"index": r.index + 1,
             "coords": [int(c) for c in r.coords],
             "covector": [int(c) for c in r.cov],
             "coroot": [int(c) for c in r.coroot],
             "reduced": r.reduced}
            for r in datum.positive_roots()]
    _emit({"type": datum.label, "rank_ss": datum.rank_ss,
           "rank_central": datum.rank_central,
           "positive_roots": rows}, config)
    return 0


def cmd_weyl(config: argparse.Namespace) -> int:
    datum = _datum(config.ctype)
    weyl = datum.weyl
    elements = sorted(
        ({"word": w.label,
          "length": w.length} for w in weyl.elements),
        key=lambda e: (e["length"], e["word"]))
    _emit({"type": datum.label, "order": weyl.order,
           "longest_length": elements[-1]["length"],
           "elements": elements}, config)
    return 0


def cmd_refine(config: argparse.Namespace) -> int:
    datum = _datum(config.ctype)
    cp = random_polyhedron(datum, random.Random(f"cli:{config.ctype}:{config.seed}"))
    refinement = canonical_refinement(cp)
    table = []
    for facet in enumerate_semistandard(datum):
        table.append({
            "subset": [i + 1 for i in facet.subset],
            "rep": facet.rep.label,
            "degree": fmt_rational(degree(cp, facet)),
        })
    table.sort(key=lambda row: (len(row["subset"]), row["subset"], row["rep"]))
    _emit({
        "type": datum.label,
        "seed": config.seed,
        "polyhedron": {k: fmt_vector(v) for k, v in sorted(cp.to_mapping().items())},
        "refinement": {
            "subset": [i + 1 for i in refinement.subset],
            "rep": refinement.rep.label,
        },
        "degrees": table,
    }, config)
    return 0


def _check_subset(datum, subset) -> None:
    """An out-of-range --P is a configuration problem, not a module failure."""
    if any(i >= datum.rank_ss for i in subset):
        raise ConfigError(f"--P indices must lie in 1..{datum.rank_ss} for "
                          f"{datum.label}, got {[i + 1 for i in subset]}")


def _batch_rows(path: str, width: int, what: str):
    """The rational rows of a --batch CSV, skipping blank and # lines; an
    unreadable file, a malformed row or a file without rows is a
    configuration problem, as the same flag would be."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read --batch file: {exc}") from exc
    rows = []
    with fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != width:
                raise ConfigError(f"{where}: batch rows need {width} entries "
                                  f"({what}), got {len(row)}")
            try:
                rows.append(tuple(parse_rational(c) for c in row))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: the --batch file has no rows")
    return rows


def _gamma_points(config: argparse.Namespace, dim: int):
    if config.batch:
        for vals in _batch_rows(config.batch, 2 * dim, "H then X"):
            yield vals[:dim], vals[dim:]
    else:
        if config.h is None or config.x is None:
            raise ConfigError("gamma needs --H and --X (or --batch)")
        yield config.h, config.x


def cmd_gamma(config: argparse.Namespace) -> int:
    datum = _datum(config.ctype)
    _check_subset(datum, config.p_subset)
    rows = []
    for h, x in _gamma_points(config, datum.dim):
        if len(h) != datum.dim or len(x) != datum.dim:
            raise ConfigError(f"H and X must have {datum.dim} coordinates")
        rows.append({"H": fmt_vector(h), "X": fmt_vector(x),
                     "gamma": datum.truncation.gamma(config.p_subset, h, x)})
    payload = rows[0] if not config.batch else {"rows": rows}
    _emit(payload, config)
    return 0


def cmd_qpsum(config: argparse.Namespace) -> int:
    datum = _datum(config.ctype)
    if config.q is None:
        raise ConfigError("qpsum needs --q")
    if factor_prime_power(config.q) is None:
        raise ConfigError(f"q must be a prime power, got {config.q}")
    _check_subset(datum, config.p_subset)
    spec = standard_lattice_spec(datum, config.p_subset)
    points = []
    if config.batch:
        points.extend(_batch_rows(config.batch, datum.dim, "X"))
    else:
        if config.x is None:
            raise ConfigError("qpsum needs --X (or --batch)")
        points.append(config.x)
    rows = []
    all_equal = True
    for x in points:
        if len(x) != datum.dim:
            raise ConfigError(f"X must have {datum.dim} coordinates")
        b = brute_sum(spec, x)
        p = product_eval(spec, x)
        equal = b == p
        all_equal = all_equal and equal
        rows.append({"X": fmt_vector(x), "brute": fmt_rational(b),
                     "product": fmt_rational(p), "equal": equal})
    payload = rows[0] if not config.batch else {"rows": rows}
    _emit(payload, config)
    return 0 if all_equal else 1


def _orbit_min(k: int, q: int, l: int, m: int) -> int:
    return min(k * pow(q, i, m) % m for i in range(l))


def _sll_row(torus, ka: int, kb: int) -> dict:
    ta, tb = torus.character(ka), torus.character(kb)
    # contragredient_test raises unless both characters are in general position
    row = {"k_lambda": ka, "k_mu": kb,
           "general_position": general_position(ta) and general_position(tb),
           "central_ok": central_character_ok(ta, tb),
           "contragredient": contragredient_test(ta, tb),
           "char_sum": char_sum_regular(ta, tb)}
    row["J"] = fmt_rational(assemble_J(ta, tb, row["char_sum"]))
    return row


def cmd_slltrace(config: argparse.Namespace) -> int:
    if config.q is None or config.l is None:
        raise ConfigError("slltrace needs --q and --l")
    try:
        torus = build_torus(config.q, config.l)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.sweep:
        reps = sorted({_orbit_min(k, torus.q, torus.l, torus.m)
                       for k in range(torus.m)
                       if general_position(torus.character(k))})
        rows = [_sll_row(torus, ka, kb)
                for ka in reps for kb in reps]
        _emit({"q": torus.q, "l": torus.l, "m": torus.m, "z": torus.z,
               "rows": rows}, config)
        return 0
    if config.theta_lambda is None or config.theta_mu is None:
        raise ConfigError("slltrace needs --theta-lambda and --theta-mu "
                          "(or --sweep)")
    try:
        ka, kb = int(config.theta_lambda), int(config.theta_mu)
    except ValueError as exc:
        raise ConfigError(f"character exponents must be integers: {exc}") from exc
    row = _sll_row(torus, ka % torus.m, kb % torus.m)
    _emit(row, config)
    return 0


def cmd_filtercheck(config: argparse.Namespace) -> int:
    group = config.group.upper()
    n = int(group[2:]) if group.startswith("SL") and group[2:].isdigit() else 0
    if n < 2:
        raise ConfigError(f"unsupported group {config.group!r} "
                          f"(expected SLn with n >= 2)")
    if config.q is None:
        raise ConfigError("filtercheck needs --q")
    if factor_prime_power(config.q) is None:
        raise ConfigError(f"q must be a prime power, got {config.q}")
    if config.theta_lambda is None or config.theta_mu is None:
        raise ConfigError("filtercheck needs --theta-lambda and --theta-mu")

    def exps(text):
        try:
            vals = parse_vector(text)
        except ValueError as exc:
            raise ConfigError(f"character exponents: {exc}") from exc
        if len(vals) == 1 and n == 2:
            vals = (vals[0], Fraction(0))
        if len(vals) != n or any(v.denominator != 1 for v in vals):
            raise ConfigError(f"need {n} integer exponents, got {text!r}")
        return tuple(int(v) for v in vals)

    el, em = exps(config.theta_lambda), exps(config.theta_mu)
    verdict = cuspidal_filter_check(n, config.q, el, em)
    _emit({"group": group, "q": config.q,
           "theta_lambda": list(el), "theta_mu": list(em),
           "pass": verdict}, config)
    return 0


def cmd_verify(config: argparse.Namespace) -> int:
    if config.samples is not None and config.samples < 0:
        raise ConfigError(f"--samples must be >= 0, got {config.samples}")
    if config.suite != "all" and config.suite not in SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}; choose from "
                          f"{', '.join(sorted(SUITES))} or all")
    types = None
    if config.ctype:
        types = [t.strip() for t in config.ctype.split(",") if t.strip()]
        for t in types:
            _datum(t)  # validates the label up front
    records = run_suites(None if config.suite == "all" else [config.suite],
                         seed=config.seed, samples=config.samples,
                         types=types)
    payload = {"suite": config.suite,
               "ok": all(r.ok for r in records),
               "records": [r.as_dict() for r in records]}
    _emit(payload, config)
    return 0 if payload["ok"] else 1


# -- argument plumbing -----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser():
    """The parser and its subparsers by name, built on the first call, not
    at import, and shared by every later one: nothing may change them."""
    parser = _Parser(
        prog="trunca",
        description="Exact truncation combinatorics: root systems, "
                    "refinements, lattice sums, torus character sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.add_argument("--config", help="JSON file of flag defaults")
        p.add_argument("--format", dest="out_format", choices=("json", "csv"),
                       default="json", help="output format")
        p.add_argument("--out", dest="out_path", help="write output to a file")
        return p

    p = add("roots", "positive roots of a Cartan type")
    p.add_argument("--type", dest="ctype", required=True)

    p = add("weyl", "Weyl group elements and reduced words")
    p.add_argument("--type", dest="ctype", required=True)

    p = add("refine", "refine a seeded random polyhedron")
    p.add_argument("--type", dest="ctype", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("gamma", "evaluate the truncation gamma function")
    p.add_argument("--type", dest="ctype", required=True)
    p.add_argument("--P", dest="p_subset", default="",
                   help="1-based simple indices of the parabolic; empty = Borel")
    p.add_argument("--H", dest="h", help="comma-separated rational coordinates")
    p.add_argument("--X", dest="x", help="comma-separated rational coordinates")
    p.add_argument("--batch", help="CSV of rows with H then X coordinates")

    p = add("qpsum", "lattice sum vs geometric-series product")
    p.add_argument("--type", dest="ctype", required=True)
    p.add_argument("--P", dest="p_subset", default="",
                   help="1-based simple indices of the parabolic; empty = Borel")
    p.add_argument("--q", type=int,
                   help="prime power (checked; the result does not depend on it)")
    p.add_argument("--X", dest="x", help="comma-separated rational coordinates")
    p.add_argument("--batch", help="CSV of X rows")

    p = add("slltrace", "norm-one torus character table")
    p.add_argument("--q", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--theta-lambda", dest="theta_lambda",
                   help="character exponent")
    p.add_argument("--theta-mu", dest="theta_mu", help="character exponent")
    p.add_argument("--sweep", action="store_true",
                   help="all orbit representatives in general position")

    p = add("filtercheck", "split-torus cuspidal filter")
    p.add_argument("--group", default="SL2")
    p.add_argument("--q", type=int)
    p.add_argument("--theta-lambda", dest="theta_lambda",
                   help="comma-separated exponents")
    p.add_argument("--theta-mu", dest="theta_mu",
                   help="comma-separated exponents")

    p = add("verify", "run acceptance suites")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all' (default)")
    p.add_argument("--type", dest="ctype",
                   help="restrict type-ranging suites to these labels "
                        "(comma-separated)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int,
                   help="override per-suite sample counts (smoke runs)")

    return parser, sub.choices


COMMANDS = {
    "roots": cmd_roots,
    "weyl": cmd_weyl,
    "refine": cmd_refine,
    "gamma": cmd_gamma,
    "qpsum": cmd_qpsum,
    "slltrace": cmd_slltrace,
    "filtercheck": cmd_filtercheck,
    "verify": cmd_verify,
}


def _config_value(action, value):
    """A config file value, read as its flag would read it: a switch takes
    a JSON boolean, an integer flag a JSON integer, and any flag a string,
    which is its command-line text."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
    elif isinstance(value, str):
        try:
            parsed = action.type(value) if action.type else value
        except ValueError as exc:
            raise ConfigError(f"config key {action.dest!r}: {exc}") from exc
        if action.choices and parsed not in action.choices:
            raise ConfigError(f"config key {action.dest!r}: {value!r} is not "
                              f"one of {list(action.choices)}")
        return parsed
    elif action.type is int and type(value) is int:
        return value
    raise ConfigError(f"config key {action.dest!r} has the wrong JSON type: "
                      f"{json.dumps(value)}")


def _load_config(parser_for_cmd, argv, ns):
    """Re-parse with the --config file values already in the namespace (the
    shared parser keeps its own defaults), so explicit flags keep priority."""
    with open(ns.config, encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    actions = {a.dest: a for a in parser_for_cmd._actions}
    unknown = set(values) - set(actions)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = parser_for_cmd.parse_args(argv[1:], argparse.Namespace(
        **{key: _config_value(actions[key], value) for key, value in values.items()}))
    merged.command = ns.command
    return merged


def _to_config(ns) -> argparse.Namespace:
    """The parsed flags, with --P, --H and --X read as tuples."""
    if isinstance(getattr(ns, "p_subset", None), str):
        ns.p_subset = parse_subset(ns.p_subset)
    for name in ("h", "x"):
        if isinstance(getattr(ns, name, None), str):
            setattr(ns, name, parse_vector(getattr(ns, name)))
    return ns


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if getattr(ns, "config", None):
            ns = _load_config(by_name[ns.command], argv, ns)
        config = _to_config(ns)
    except ConfigError as exc:
        print(f"trunca: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"trunca: invalid configuration: {exc}", file=sys.stderr)
        return 2

    try:
        return COMMANDS[config.command](config)
    except ConfigError as exc:
        print(f"trunca: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConsistencyError, OSError) as exc:
        print(f"trunca: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
