"""Command-line front end: dispatch, determinism, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import projqde
from projqde import hypergeom, qde, stokes
from projqde.cli import build_parser, main, parse_kclass_expr, parse_sector, parse_z
from projqde.ring import LaurentPoly
from projqde.ktheory import xz_vars


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gram_beilinson_rank2(capsys):
    code, out = run(capsys, "gram", "--n", "2", "--basis", "beilinson")
    assert code == 0
    rep = json.loads(out)
    assert rep["unitriangular"] is True
    # upper-right entry is Z1^-1 + Z2^-1
    entry = rep["gram"][0][1]
    assert entry["terms"] == [
        {"exp": [-1, 0], "num": "1", "den": "1"},
        {"exp": [0, -1], "num": "1", "den": "1"},
    ]


def test_json_deterministic(capsys):
    _, out1 = run(capsys, "dioph-check", "--n", "3")
    _, out2 = run(capsys, "dioph-check", "--n", "3")
    assert out1 == out2
    assert json.loads(out1)["char_poly_residual_zero"] is True


def test_dioph_check_rank4_six_letter_word(capsys):
    code, out = run(capsys, "dioph-check", "--n", "4", "--word", "1,1,1,1,1,1")
    assert code == 0
    rep = json.loads(out)
    assert rep["char_poly_residual_zero"] is True
    assert rep["markov_residuals_zero"] == [True, True, True]


def test_solve_qde(capsys):
    code, out = run(
        capsys, "solve-qde", "--n", "2", "--z", "0,0.37", "--q", "0.3", "--order", "30",
        "--solution", "top",
    )
    assert code == 0
    rep = json.loads(out)
    assert float(rep["ode_residual"]) < 1e-9


def test_qkz_matrix_and_check(capsys):
    code, out = run(capsys, "qkz", "--n", "2", "--i", "1", "--q", "0.5", "--z", "0.3,-0.45")
    assert code == 0
    rep = json.loads(out)
    assert float(rep["matrix"][1][0][0]) == pytest.approx(2.0)  # 1/q
    code, _ = run(
        capsys, "qkz-check", "--n", "2", "--q", "0.2", "--z", "0,0.37", "--class", "X",
    )
    assert code == 0


def test_psi_with_oracle(capsys):
    code, out = run(
        capsys, "psi", "--n", "2", "--z", "0,0.37", "--q", "0.1", "--class", "X^1",
        "--oracle", "contour",
    )
    assert code == 0
    assert float(json.loads(out)["oracle_deviation"]) < 1e-6


def test_b_check(capsys):
    code, out = run(capsys, "b-check", "--n", "2", "--z", "0,0.37", "--k", "0")
    assert code == 0
    assert float(json.loads(out)["deviation"]) < 1e-6


def test_stokes_and_roots(capsys):
    code, out = run(capsys, "stokes", "--n", "2", "--sector", "vp:0")
    assert code == 0
    rep = json.loads(out)
    assert all(rep["identities"].values())
    code, out = run(capsys, "roots-of-unity", "--n", "2")
    assert code == 0


def test_dubrovin(capsys):
    code, out = run(capsys, "dubrovin", "--n", "2")
    assert code == 0
    assert json.loads(out)["antisymmetric_exact"] is True


def test_verify_all_fast(capsys):
    code, out = run(capsys, "verify-all", "--n", "2", "--fast")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_all_fails_on_any_stokes_verdict(capsys, monkeypatch):
    # every verdict of gram_stokes_check counts, not only the two it prints
    real = stokes.gram_stokes_check
    monkeypatch.setattr(stokes, "gram_stokes_check", lambda *a: {**real(*a), "formal_monodromy": False})
    assert main(["verify-all", "--n", "2", "--fast"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "FAILED: verification failed: stokes_gram\n")


def test_verify_all_fails_on_the_left_dual_verdict(capsys, monkeypatch):
    # verify-all reports that the basis on e^{i pi} V is the left dual of the one on V
    monkeypatch.setattr(stokes, "half_turn_is_left_dual", lambda *a: False)
    assert main(["verify-all", "--n", "2", "--fast"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "FAILED: verification failed: half_turn_left_dual\n")


@pytest.mark.parametrize("order", ["40", "120"])
def test_psi_refuses_an_unconverged_series(capsys, order):
    # at q = 1e4 the terms q^d/(d!)^2 still grow at the cut-off
    argv = ["psi", "--n", "2", "--z", "0.1,0.4", "--q", "1e4", "--order", order]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: residue series not converged at q = 1e4 by --order {order}\n")
    assert main(argv[:-1] + ["400"]) == 0


@pytest.mark.parametrize(
    "argv, q, what",
    [
        (["solve-qde", "--n", "2", "--z", "0.1,0.4"], "1e3", "qDE"),
        (["solve-qde", "--n", "2", "--z", "0.1,0.4", "--solution", "top"], "1e3", "qDE"),
        (["qkz-check", "--n", "2", "--z", "0.1,0.4"], "1e3", "residue"),
        (["qkz-check", "--n", "2", "--z", "0.1,0.4"], "1e8", "residue"),
    ],
)
def test_unconverged_series_exit_2(capsys, argv, q, what):
    # the truncation, not a failed identity: the terms still grow at order 40
    assert main(argv + ["--q", q]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {what} series not converged at q = {q} by --order 40\n")


@pytest.mark.parametrize("solution", ["levelt", "top"])
def test_solve_qde_at_large_q_by_a_high_order(capsys, solution):
    # both series converge at q = 1e3 by order 120, though q^119 alone
    # overflows a double: the terms are summed by Horner's rule or formed as
    # one exponential each
    argv = ["solve-qde", "--n", "2", "--z", "0.1,0.4", "--q", "1e3", "--order", "120", "--solution", solution]
    assert main(argv) == 0
    assert float(json.loads(capsys.readouterr().out)["ode_residual"]) <= 1e-8


def test_exact_formal_reduce_refuses_a_high_order(capsys):
    # the exact rank-2 coefficients grow with the order; the numeric path takes any
    assert main(["formal-reduce", "--n", "2", "--order", "21"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: exact formal reduction takes --order at most 20; pass --z\n")
    assert main(["formal-reduce", "--n", "2", "--z", "0.1,0.4", "--order", "60"]) == 0


def test_bad_usage_exit_2(capsys):
    assert main(["gram"]) == 2  # missing --n
    assert main(["no-such-command"]) == 2
    assert main(["solve-qde", "--n", "2", "--z", "0,1", "--q", "0.1"]) == 2  # resonance


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--n", "0"],
        ["dioph-check", "--n", "0"],
        ["qkz", "--n", "2", "--i", "3", "--q", "0.3", "--z", "0.2,0.6"],
        ["gram", "--n", "1"],
        ["braid", "--n", "1"],
        ["dioph-check", "--n", "1"],
        ["mutate", "--n", "3", "--side", "left", "--pivot", "O(1)", "--target", "X^5000"],
        ["mutate", "--n", "3", "--side", "left", "--pivot", "O(1)", "--target", "X^7*Z1"],
        ["psi", "--n", "2", "--z", "0.1,0.37", "--q", "0.3", "--class", "O(-5)"],
        ["gram", "--n", "4", "--basis", "Qp", "--k", "40"],
        ["b-check", "--n", "2", "--z", "0.1,0.37", "--k", "300"],
        ["stokes", "--n", "4", "--sector", "vpp:-8"],
        ["psi", "--n", "2", "--z", "0.1,0.37", "--q", "0.3", "--class", "9^9^9^9"],
        ["psi", "--n", "2", "--z", "0.1,0.37", "--q", "0.3", "--class", "(X+Z1+Z2)^400"],
        ["psi", "--n", "2", "--z", "0.1,0.37", "--q", "0.3", "--class", "((X+Z1+Z2)^4)^4"],
        ["psi", "--n", "4", "--z", "0.1,0.3,0.55,0.8", "--q", "0.3", "--class", "*".join(["(X+Z1+Z2+Z3+Z4)^8"] * 4)],
        ["psi", "--n", "4", "--z", "0.1,0.3,0.55,0.8", "--q", "0.3", "--class", "*".join(["(X+Z1+Z2+Z3+Z4)^8"] * 6)],
        ["gram", "--n", "4", "--word", ",".join(["1"] * 40)],
        ["dioph-check", "--n", "4", "--word", ",".join(["1"] * 7)],
        ["braid", "--n", "2", "--word", "1,-1,1,-1,1"],
        ["gram", "--n", "3", "--word"],
        ["gram", "--n", "3", "--no-such-flag"],
        ["no-such-command", "--n", "3"],
        # a series order is a positive integer, a tolerance finite and >= 0
        ["psi", "--n", "2", "--z", "0.1,0.4", "--q", "0.3", "--order", "-1"],
        ["solve-qde", "--n", "2", "--z", "0.1,0.4", "--q", "0.3", "--order", "0"],
        ["solve-qde", "--n", "2", "--z", "0.1,0.4", "--q", "0.3", "--order", "-1", "--solution", "top"],
        ["formal-reduce", "--n", "2", "--order", "-1"],
        ["solve-qde", "--n", "2", "--z", "0.1,0.4", "--q", "0.3", "--order", "1", "--tol", "nan"],
        ["dubrovin", "--n", "2", "--tol", "-1"],
        ["b-check", "--n", "2", "--z", "0.1,0.4", "--tol", "inf"],
    ],
)
def test_out_of_range_input_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if line.strip()]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "--n", "2", "--z", "0.1,0.37", "--q", "0"],
        ["qkz-check", "--n", "2", "--z", "0.1,0.37", "--q", "0"],
        ["qkz", "--n", "2", "--i", "1", "--z", "0.1,0.37", "--q", "0"],
        ["solve-qde", "--n", "2", "--z", "0.1,0.37", "--q", "0"],
        ["qkz", "--n", "2", "--i", "1", "--z", "0.1,0.37", "--q", "inf"],
    ],
)
def test_q_out_of_domain_names_q(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: q must be")


def test_order_and_tol_from_a_config_file_are_checked(tmp_path, capsys):
    for line in ("order = 0", "tol = nan"):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        assert main(["--config", str(conf), "b-check", "--n", "2", "--z", "0.1,0.4"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "must be" in err


def _z(n):
    return ",".join(f"{(i + 0.5) / (n + 1):.4f}" for i in range(n))


# each command one rank above its ceiling, the rest of the line valid
ABOVE_CEILING = [
    ["gram", "--n", "12"],
    ["mutate", "--n", "10", "--side", "left", "--pivot", "O(1)", "--target", "O(0)"],
    ["braid", "--n", "9", "--name", "C"],
    ["dioph-check", "--n", "11"],
    ["solve-qde", "--n", "66", "--z", _z(66), "--q", "0.3"],
    ["qkz", "--n", "241", "--i", "1", "--q", "0.3", "--z", _z(241)],
    ["qkz-check", "--n", "161", "--q", "0.3", "--z", _z(161)],
    ["psi", "--n", "161", "--z", _z(161), "--q", "0.3"],
    ["b-check", "--n", "161", "--z", _z(161)],
    ["stokes", "--n", "11", "--sector", "vp:0"],
    ["formal-reduce", "--n", "22", "--z", _z(22)],
    ["roots-of-unity", "--n", "21"],
    ["dubrovin", "--n", "22"],
    ["verify-all", "--n", "11", "--fast"],
]


@pytest.mark.parametrize("argv", ABOVE_CEILING, ids=lambda argv: argv[0])
def test_a_rank_above_the_ceiling_exits_2_before_any_work(capsys, argv):
    n = int(argv[2])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[0]} takes --n at most {n - 1}, got {n}\n"


def test_every_command_has_a_ceiling_case():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(argv[0] for argv in ABOVE_CEILING) == sorted(sub.choices)


# commands that read neither a series order nor a tolerance, or only one
WITHOUT_ORDER = {
    "gram": ["--n", "2"],
    "mutate": ["--n", "2", "--side", "left", "--pivot", "O(1)", "--target", "O(0)"],
    "braid": ["--n", "2"],
    "dioph-check": ["--n", "2"],
    "qkz": ["--n", "2", "--i", "1", "--q", "0.3", "--z", "0.1,0.4"],
    "stokes": ["--n", "2", "--sector", "vp:0"],
    "roots-of-unity": ["--n", "2"],
    "verify-all": ["--n", "2", "--fast"],
    "dubrovin": ["--n", "2"],
}
WITHOUT_TOL = {**WITHOUT_ORDER, "formal-reduce": ["--n", "2"]}
del WITHOUT_TOL["dubrovin"]


@pytest.mark.parametrize(
    "argv",
    [[cmd, *rest, "--order", "3"] for cmd, rest in WITHOUT_ORDER.items()]
    + [[cmd, *rest, "--tol", "5"] for cmd, rest in WITHOUT_TOL.items()],
)
def test_a_flag_the_command_does_not_read_is_refused(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"projqde: error: unrecognized arguments: {' '.join(argv[-2:])}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-qde", "--n", "2", "--z", "0.1,0.4", "--q", "1e30"],
        # nothing overflows at 1e8: the one line names the unconverged series
        ["solve-qde", "--n", "2", "--z", "0.1,0.4", "--q", "1e8"],
        ["psi", "--n", "2", "--z", "0.1,0.4", "--q", "1e30"],  # NaN restrictions
        ["solve-qde", "--n", "2", "--z", "0.1,0.4", "--solution", "top", "--q", "1e30"],
    ],
)
def test_overflow_at_large_q_names_q(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    q = argv[-1]
    want = "qDE series not converged at q = 1e8 by --order 40" if q == "1e8" else f"numeric overflow at q = {q}"
    assert captured.err.startswith(f"error: {want}")
    assert len(captured.err.splitlines()) == 1


def test_overflow_warns_nothing(capsys):
    # numpy's overflow warnings would reach stderr ahead of the one-line verdict
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["qkz-check", "--n", "2", "--z", "0.1,0.4", "--q", "1e8"]) == 2
        main(["psi", "--n", "2", "--z", "0.1,0.4", "--q", "1e30"])
    assert [str(w.message) for w in caught] == []


def test_exact_commands_load_no_scipy():
    # a fresh process, so that no earlier test has imported scipy
    code = "import sys; from projqde.cli import main; print(main(['gram', '--n', '2']), 'scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(projqde.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False"


def test_nan_residual_is_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(hypergeom, "solution_qkz_residual", lambda *args: float("nan"))
    assert main(["qkz-check", "--n", "2", "--z", "0.1,0.4", "--q", "0.3"]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("FAILED: difference residual nan")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-qde", "--n", "2", "--z", "0.1,0.4", "--q", "0.3"],
        ["verify-all", "--n", "2", "--fast"],
    ],
)
def test_nan_ode_residual_is_a_failure(monkeypatch, capsys, argv):
    monkeypatch.setattr(qde, "ode_residual", lambda *args: float("nan"))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("FAILED")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-qde", "--n", "2", "--z", "0.1,nan", "--q", "0.3"],
        ["qkz", "--n", "2", "--i", "1", "--z", "inf,0.3", "--q", "0.3"],
        ["psi", "--n", "2", "--z", "0.1,nan+1j", "--q", "0.3"],
    ],
)
def test_z_out_of_domain_names_z(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: z must be finite")
    assert len(captured.err.splitlines()) == 1


def test_largest_accepted_exponents(capsys):
    # |k| = 2n for classes and twists, |k| = n for sectors
    n = "2"
    assert main(["mutate", "--n", n, "--side", "right", "--pivot", "X^-4", "--target", "O(4)"]) == 0
    assert main(["gram", "--n", n, "--basis", "Qpt", "--k", "-4"]) == 0
    assert main(["stokes", "--n", n, "--sector", "vp:-2"]) == 0


@pytest.mark.parametrize("n", ["3", "5"])
def test_mutate_of_line_bundles_matches_their_laurent_form(capsys, n):
    # O(i) is read over E1..En, X^-i through its Laurent polynomial over Z1..Zn
    cases = (("left", "O(1)", "O(0)", "X^-1", "1"), ("right", "O(-2)", "O(3)", "X^2", "X^-3"))
    for side, pivot, target, pivot_x, target_x in cases:
        code, out = run(capsys, "mutate", "--n", n, "--side", side, "--pivot", pivot, "--target", target)
        assert code == 0
        assert run(capsys, "mutate", "--n", n, "--side", side, "--pivot", pivot_x, "--target", target_x) == (0, out)


def test_values_with_a_leading_minus(capsys):
    # a braid word that starts with an inverse letter, and negative parameters
    code, out = run(capsys, "gram", "--n", "3", "--word", "-1,2")
    assert code == 0
    assert run(capsys, "gram", "--n", "3", "--word=-1,2") == (0, out)
    code, _ = run(capsys, "solve-qde", "--n", "2", "--z", "-0.1,0.37", "--q", "0.3")
    assert code == 0


def test_config_file_flags_win(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("n = 2\nbasis = beilinson\n")
    code, out = run(capsys, "--config", str(conf), "gram", "--n", "3")
    assert code == 0
    assert json.loads(out)["n"] == 3  # explicit flag beats config


def test_parse_helpers():
    assert parse_z("0,1/3,5/7", 3)[1] == pytest.approx(1 / 3)
    assert parse_sector("vpp:-1").kind == "Vdprime"
    p = parse_kclass_expr("X^2 - Z1*X", 2)
    vs = xz_vars(2)
    want = LaurentPoly.variable(vs, "X", 2) - LaurentPoly.variable(vs, "Z1") * LaurentPoly.variable(vs, "X")
    assert p == want
    assert parse_kclass_expr("O(-1)", 2) == LaurentPoly.variable(vs, "X")
    with pytest.raises(ValueError):
        parse_kclass_expr("__import__('os')", 2)
