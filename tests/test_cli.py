"""End-to-end command surface: payload shapes, exit codes, determinism.

Everything runs in-process through ``main(argv)`` (which returns the exit
code); one subprocess test at the bottom exercises the installed console
script and the exit status of a usage error.
"""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trunca.charfield import factor_prime_power
from trunca.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- tables ---------------------------------------------------------------------


def test_roots_table(capsys):
    payload = run_json(capsys, "roots", "--type", "A2")
    rows = payload["positive_roots"]
    assert payload["rank_ss"] == 2 and len(rows) == 3
    assert [r["index"] for r in rows] == [1, 2, 3]
    assert all(r["reduced"] for r in rows)
    # the highest root of A2 has coords (1, 1) and self-dual covector
    high = next(r for r in rows if r["coords"] == [1, 1])
    assert high["covector"] == [1, 1] and high["coroot"] == [1, 1]


def test_weyl_table(capsys):
    payload = run_json(capsys, "weyl", "--type", "A2")
    assert payload["order"] == 6
    words = [e["word"] for e in payload["elements"]]
    assert words[0] == "e" and payload["longest_length"] == 3
    lengths = [e["length"] for e in payload["elements"]]
    assert lengths == sorted(lengths)


def test_refine_payload_and_determinism(capsys):
    first = run_cli(capsys, "refine", "--type", "B2", "--seed", "11")
    second = run_cli(capsys, "refine", "--type", "B2", "--seed", "11")
    assert first == second                      # byte-identical
    other = run_cli(capsys, "refine", "--type", "B2", "--seed", "12")
    assert other[1] != first[1]
    payload = json.loads(first[1])
    assert set(payload) == {"type", "seed", "polyhedron", "refinement", "degrees"}
    assert set(payload["refinement"]) == {"subset", "rep"}
    assert all(1 <= i <= 2 for i in payload["refinement"]["subset"])
    for row in payload["degrees"]:
        Fraction(row["degree"])                 # "num/den" strings re-parse


@pytest.mark.parametrize("ctype", ["A2", "B2", "G2", "A3"])
def test_refine_stdout_is_pinned(capsys, ctype):
    # the files hold the stdout that `trunca refine` printed when polyhedra
    # kept Fraction vertices; the integer-scaled route must print the same
    code, out, _ = run_cli(capsys, "refine", "--type", ctype, "--seed", "7")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"refine-{ctype}-seed7.json").read_bytes()


# -- pointwise commands ------------------------------------------------------------


def test_gamma_single_point(capsys):
    payload = run_json(capsys, "gamma", "--type", "A1", "--P", "",
                       "--H", "1/2", "--X", "2")
    assert payload == {"H": ["1/2"], "X": ["2/1"], "gamma": 1}


def test_gamma_vanishes_at_zero(capsys):
    payload = run_json(capsys, "gamma", "--type", "A2", "--P", "1",
                       "--H", "3/7,-2/7", "--X", "0,0")
    assert payload["gamma"] == 0


def test_gamma_batch(tmp_path, capsys):
    batch = tmp_path / "points.csv"
    batch.write_text("1/2,2\n5/2,2\n-1,2\n")
    payload = run_json(capsys, "gamma", "--type", "A1", "--P", "",
                       "--batch", str(batch))
    assert [row["gamma"] for row in payload["rows"]] == [1, 0, 0]


def test_qpsum_agreement(capsys):
    payload = run_json(capsys, "qpsum", "--type", "A1", "--P", "",
                       "--X", "6", "--q", "3")
    assert payload["equal"] is True
    assert payload["brute"] == payload["product"] == "3/1"


def test_slltrace_sweep_table(capsys):
    payload = run_json(capsys, "slltrace", "--q", "2", "--l", "3", "--sweep")
    assert (payload["m"], payload["z"]) == (7, 1)
    rows = [(r["k_lambda"], r["k_mu"], r["char_sum"], r["J"])
            for r in payload["rows"]]
    assert rows == [(1, 1, -9, "0/1"), (1, 3, 12, "1/1"),
                    (3, 1, 12, "1/1"), (3, 3, -9, "0/1")]
    assert all(r["general_position"] and r["central_ok"] for r in payload["rows"])


def test_slltrace_single_pair(capsys):
    payload = run_json(capsys, "slltrace", "--q", "3", "--l", "2",
                       "--theta-lambda", "1", "--theta-mu", "3")
    assert payload["contragredient"] is True
    assert payload["J"] == "1/1"


def test_filtercheck_both_outcomes(capsys):
    yes = run_json(capsys, "filtercheck", "--group", "SL2", "--q", "5",
                   "--theta-lambda", "1", "--theta-mu", "2")
    no = run_json(capsys, "filtercheck", "--group", "SL2", "--q", "5",
                  "--theta-lambda", "1", "--theta-mu", "3")
    assert yes["pass"] is True
    assert no["pass"] is False     # theta_mu = theta_lambda^{-1}


def test_verify_suite(capsys):
    payload = run_json(capsys, "verify", "--suite", "filtercheck")
    assert payload["ok"] is True
    assert [r["suite"] for r in payload["records"]] == ["filtercheck"] * 3
    cases = [r["case"] for r in payload["records"]]
    assert cases == sorted(cases)


def test_verify_small_sampled_suite(capsys):
    payload = run_json(capsys, "verify", "--suite", "inversion",
                       "--type", "A1", "--samples", "5", "--seed", "9")
    assert payload["ok"] is True
    assert all(r["ok"] for r in payload["records"])


# -- formats, files, config ----------------------------------------------------------


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "A1", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",") == ["index", "coords", "covector", "coroot", "reduced"]
    assert row.split(",") == ["1", "1", "1", "2", "true"]


def test_out_path(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "weyl", "--type", "A1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["order"] == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"q": 2, "l": 3, "sweep": True}))
    payload = run_json(capsys, "slltrace", "--config", str(cfg))
    assert payload["m"] == 7 and len(payload["rows"]) == 4
    # flags still win over the file on re-parse
    payload = run_json(capsys, "slltrace", "--config", str(cfg), "--q", "3", "--l", "2")
    assert payload["m"] == 4
    # and the file's values do not outlive the call that read them
    code, _, err = run_cli(capsys, "slltrace", "--q", "2", "--l", "3")
    assert code == 2 and "--sweep" in err


def test_parser_is_built_on_the_first_call_only(capsys, monkeypatch):
    run_cli(capsys, "roots", "--type", "A1")
    added = []
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                        lambda self, *args, **kwargs: added.append(args))
    assert run_cli(capsys, "weyl", "--type", "A1")[0] == 0
    assert added == []
    # importing the module builds nothing
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counting(self, *args, **kwargs):\n"
             "    built.append(1)\n"
             "    init(self, *args, **kwargs)\n"
             "argparse.ArgumentParser.__init__ = counting\n"
             "import trunca.cli\n"
             "print(len(built))\n")
    fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "0"


# -- failure modes ----------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("refine", "--type", "Q9"),
    ("verify", "--suite", "nonsense"),
    ("verify", "--suite", "inversion", "--type", "E9"),
    ("gamma", "--type", "A1", "--P", "", "--H", "1/2"),        # missing --X
    ("gamma", "--type", "A2", "--P", "", "--H", "1", "--X", "0,0"),  # bad dim
    ("qpsum", "--type", "A1", "--P", "", "--X", "4", "--q", "6"),
    ("slltrace", "--q", "6", "--l", "2", "--sweep"),
    ("filtercheck", "--group", "GL2", "--q", "5",
     "--theta-lambda", "1", "--theta-mu", "2"),
    ("gamma", "--type", "A1", "--P", "", "--H", "1/0", "--X", "1"),
    ("gamma", "--type", "A2", "--P", "5", "--H", "1,1", "--X", "1,1"),
    ("qpsum", "--type", "A2", "--P", "5", "--X", "1,1", "--q", "2"),
    ("filtercheck", "--group", "SL2", "--q", "6",
     "--theta-lambda", "1", "--theta-mu", "2"),
    ("verify", "--suite", "refinement", "--samples", "-1"),
    ("slltrace", "--q", "2", "--l", "3", "--theta-lambda", "x", "--theta-mu", "1"),
    ("slltrace", "--q", "2", "--l", "3", "--theta-lambda", "1.5", "--theta-mu", "1"),
    ("filtercheck", "--q", "5", "--theta-lambda", "x", "--theta-mu", "1"),
    ("filtercheck", "--q", "5", "--theta-lambda", "1/0", "--theta-mu", "1"),
    ("filtercheck", "--group", "SL1", "--q", "5",
     "--theta-lambda", "1", "--theta-mu", "2"),
    ("qpsum", "--type", "A1", "--batch", os.devnull, "--q", "2"),  # no rows
    ("gamma", "--type", "A1", "--P", "", "--batch", os.devnull),
])
def test_invalid_configuration_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "trunca:" in err


@pytest.mark.parametrize("command,row", [
    ("gamma", "1/2,two"),     # non-numeric
    ("gamma", "1/2,2,3"),     # wrong length
    ("gamma", "1/0,2"),       # zero denominator
    ("qpsum", "x"),
    ("qpsum", "4,4"),
])
def test_malformed_batch_row_exits_2(tmp_path, capsys, command, row):
    batch = tmp_path / "points.csv"
    batch.write_text(f"# comment\n{row}\n")
    extra = ("--q", "3") if command == "qpsum" else ()
    code, _, err = run_cli(capsys, command, "--type", "A1", "--P", "",
                           "--batch", str(batch), *extra)
    assert code == 2
    assert f"{batch}:2:" in err


@pytest.mark.parametrize("command", ["gamma", "qpsum"])
def test_missing_batch_file_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "missing.csv"
    extra = ("--q", "3") if command == "qpsum" else ()
    code, out, err = run_cli(capsys, command, "--type", "A1", "--P", "",
                             "--batch", str(missing), *extra)
    assert code == 2 and out == ""
    assert "--batch" in err and str(missing) in err


def test_config_file_validation(tmp_path, capsys):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"quux": 1}))
    code, _, err = run_cli(capsys, "slltrace", "--config", str(bad_key))
    assert code == 2 and "quux" in err
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    code, _, _ = run_cli(capsys, "slltrace", "--config", str(not_object))
    assert code == 2
    code, _, _ = run_cli(capsys, "slltrace", "--config", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize("argv,values", [
    (("gamma", "--type", "A1"), {"h": [1.5], "x": [2]}),
    (("gamma", "--type", "A1"), {"h": 3, "x": "2"}),
    (("qpsum", "--type", "A2", "--q", "3", "--X", "1,1"), {"p_subset": 1}),
    (("slltrace",), {"q": 7.5, "l": 3, "sweep": True}),
    (("filtercheck",), {"theta_lambda": [1], "theta_mu": 2, "q": 5}),
    (("roots", "--type", "A1"), {"out_format": "xml"}),      # not a --format choice
])
def test_config_value_the_flag_would_refuse_exits_2(tmp_path, capsys, argv, values):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "trunca:" in err


# config key: (flag, an argv that is valid as it stands)
_FLAG_HOMES = {
    "h": ("--H", ("gamma", "--type", "A1", "--P", "", "--H", "1/2", "--X", "2")),
    "x": ("--X", ("qpsum", "--type", "A1", "--P", "", "--q", "3", "--X", "6")),
    "p_subset": ("--P", ("gamma", "--type", "A2", "--P", "1", "--H", "1,1", "--X", "1,1")),
    "q": ("--q", ("qpsum", "--type", "A1", "--P", "", "--q", "3", "--X", "6")),
    "l": ("--l", ("slltrace", "--q", "2", "--l", "3", "--sweep")),
    "theta_lambda": ("--theta-lambda", ("filtercheck", "--q", "5", "--theta-lambda", "1",
                                        "--theta-mu", "2")),
    "theta_mu": ("--theta-mu", ("slltrace", "--q", "3", "--l", "2", "--theta-lambda", "1",
                                "--theta-mu", "3")),
    "samples": ("--samples", ("verify", "--suite", "filtercheck", "--samples", "3")),
}

_malformed = st.one_of(
    st.text("abcxyzQ", min_size=1, max_size=3),                 # letters
    st.just("1/0"),
    st.sampled_from((",", "1,", ",1", "1,,2")),                 # empty components
    st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(
        lambda xs: "[" + ",".join(map(str, xs)) + "]"),         # bracketed lists
)
_not_prime_powers = st.sampled_from(
    [str(q) for q in range(-2, 40) if factor_prime_power(q) is None])


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(_FLAG_HOMES)), data=st.data())
def test_malformed_values_exit_2(tmp_path, capsys, key, data):
    value = data.draw(_malformed | _not_prime_powers if key == "q" else _malformed)
    flag, home = _FLAG_HOMES[key]
    at = home.index(flag)
    as_flag = [*home[:at + 1], value, *home[at + 2:]]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    as_file = [*home[:at], *home[at + 2:], "--config", str(cfg)]
    for argv in (as_flag, as_file):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("trunca:"), argv
    # the valid home argv runs, and prints the same bytes every time
    assert main(list(home)) == 0
    first = capsys.readouterr().out
    assert main(list(home)) == 0
    assert capsys.readouterr().out == first


def test_verify_checking_nothing_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "refinement",
                           "--type", "A2", "--samples", "0")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_module_errors_exit_1(capsys):
    # exponent 0 is not in general position: a module-level ValueError
    code, _, err = run_cli(capsys, "slltrace", "--q", "3", "--l", "2",
                           "--theta-lambda", "0", "--theta-mu", "1")
    assert code == 1
    assert "general position" in err


def test_console_script_and_usage_errors():
    ok = subprocess.run([sys.executable, "-m", "trunca.cli", "roots", "--type", "A1"],
                        capture_output=True, text=True)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["rank_ss"] == 1
    bad = subprocess.run([sys.executable, "-m", "trunca.cli", "nosuchcommand"],
                         capture_output=True, text=True)
    assert bad.returncode == 2
    assert bad.stderr.startswith("trunca:")
