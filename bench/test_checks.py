"""The benchmark's checks reject wrong outputs.

Each test takes a real output, shows that its check accepts it, then breaks it
the way a fault in the program could (one entry of S1 perturbed, one Gram entry
shifted by a monomial, two basis elements swapped, a wrong braid move, a
perturbed number in a CLI report) and shows that the check rejects it.

    python3 -m pytest bench/test_checks.py      or      python3 bench/test_checks.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from projqde import ktheory, stokes  # noqa: E402
from projqde.ktheory import BraidWord  # noqa: E402
from projqde.ring import LaurentMatrix, LaurentPoly  # noqa: E402


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def shifted(m: LaurentMatrix, i: int, j: int, exps) -> LaurentMatrix:
    """m with the monomial Z^exps added to entry (i, j)."""
    rows = [list(row) for row in m.entries]
    rows[i][j] = rows[i][j] + LaurentPoly.monomial(m.vars, exps)
    return LaurentMatrix(rows)


def swapped(elements, a: int, b: int) -> tuple:
    out = list(elements)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def run_ops(ops) -> dict:
    state: dict = {}
    for op in ops:
        state[op.name] = op.run(state)
    return state


def test_stokes_check_rejects_perturbed_s1():
    n = 3
    rep = stokes.gram_stokes_check(stokes.SectorId("Vprime", 0), n)
    rng = random.Random(1)
    points = [checks.torus_point(rng, n)]
    checks.check_stokes(rep["s1"], rep["s2"], rep["gram"], n, points)
    for i, j in [(0, 1), (1, 2), (1, 0)]:
        s1 = shifted(rep["s1"], i, j, (1, 0, 0))
        assert rejects(checks.check_stokes, s1, rep["s2"], rep["gram"], n, points)
    s2 = shifted(rep["s2"], 2, 0, (0, -1, 0))
    assert rejects(checks.check_stokes, rep["s1"], s2, rep["gram"], n, points)


def _orbit(n, scaled: bool):
    rng = random.Random(7)
    base = ktheory.beilinson_basis(n)
    word = BraidWord((1, -2))
    if not scaled:
        ops = workloads.orbit_ops("t", base, word, rng)
        return {op.name.split()[0]: op for op in ops}, run_ops(ops), None
    chars = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n)]
    ops = workloads.orbit_ops(
        "t", workloads.scaled_basis(base, chars), word, rng, unscaled=base, chars=chars
    )
    return {op.name.split()[0]: op for op in ops}, run_ops(ops), chars


def test_orbit_checks_reject_shifted_gram_and_swapped_elements():
    for scaled in (False, True):
        ops, state, _ = _orbit(4, scaled)
        act, gram = "act t", "gram t"
        g = state[gram]
        ops["gram"].check(g, state)
        assert rejects(ops["gram"].check, shifted(g, 0, 2, (1, 0, -1, 0)), state)
        assert rejects(ops["gram"].check, shifted(g, 2, 0, (0, 0, 0, 0)), state)
        b = state[act]
        bad = dict(state)
        bad[act] = ktheory.ExceptionalBasis(swapped(b.elements, 0, 3), verify=False)
        assert rejects(ops["gram"].check, g, bad)
        for name in ("left", "right", "sigma", "serre"):
            out = state[next(k for k in state if k.startswith(name))]
            ops[name].check(out, state)
            assert rejects(ops[name].check, out, bad), name


def test_scaled_gram_check_rejects_wrong_character():
    ops, state, chars = _orbit(3, True)
    g = state["gram t"]
    g0 = ktheory.gram_matrix(ktheory.braid_act(BraidWord((1, -2)), ktheory.beilinson_basis(3)))
    z = checks.torus_point(random.Random(3), 3)
    perm = checks.braid_permutation((1, -2), 3)
    checks.check_scaled_gram(g, g0, [chars[p] for p in perm], z)
    wrong = [chars[p] for p in perm]
    wrong[0] = tuple(x + 1 for x in wrong[0])
    assert rejects(checks.check_scaled_gram, g, g0, wrong, z)


def test_dual_serre_and_sigma_checks_reject_swapped_outputs():
    ops, state, _ = _orbit(4, False)
    left = state["left dual t"]
    assert rejects(ops["left"].check, ktheory.ExceptionalBasis(swapped(left.elements, 1, 2), verify=False), state)
    right = state["right dual t"]
    assert rejects(ops["right"].check, ktheory.ExceptionalBasis(swapped(right.elements, 0, 1), verify=False), state)
    via_braid, twisted = state["serre t"]
    assert rejects(ops["serre"].check, (via_braid, swapped(twisted, 0, 1)), state)
    assert rejects(ops["serre"].check, (swapped(via_braid, 0, 1), swapped(twisted, 0, 1)), state)
    beta, odd, even = state["sigma t"]
    assert rejects(ops["sigma"].check, (beta, odd, swapped(even, 2, 3)), state)
    assert rejects(ops["sigma"].check, (swapped(beta, 2, 3),) * 3, state)


def test_braid_relation_check_rejects_a_wrong_move():
    ops, state, _ = _orbit(4, False)
    ops["act"].check(state["act t"], state)
    move_left = ktheory._move_left
    ktheory._move_left = ktheory._move_right  # the inverse move replaced by the move itself
    try:
        assert rejects(ops["act"].check, state["act t"], state)
    finally:
        ktheory._move_left = move_left


def _cli_outputs(seed: int = 5) -> dict:
    ops = {op.name: op for op in workloads.numeric_cli(seed)}
    return ops, {name: op.run({}) for name, op in ops.items() if "n=2" in name}


def _edit(result, edit):
    rc, out, err = result
    rep = json.loads(out)
    edit(rep)
    return rc, json.dumps(rep), err


def _bump(pair, by=1e-3):
    return [repr(float(pair[0]) + by), pair[1]]


def test_cli_checks_reject_perturbed_reports():
    ops, outs = _cli_outputs()
    for name, result in outs.items():
        ops[name].check(result, {})

    def bump_matrix(key):
        def edit(rep):
            rep[key][0][1] = _bump(rep[key][0][1])

        return edit

    def bump_vector(key):
        def edit(rep):
            rep[key][1] = _bump(rep[key][1])

        return edit

    def set_value(key, value):
        def edit(rep):
            rep[key] = value

        return edit

    cases = {
        "b-check n=2": [bump_matrix("matrix"), bump_matrix("analytic")],
        "psi --oracle contour n=2": [bump_vector("restrictions"), bump_vector("x_coords")],
        "qkz n=2": [bump_matrix("matrix")],
        "qkz-check n=2": [lambda rep: rep["residuals"].update(shift_1="1e-05")],
        "solve-qde n=2": [set_value("ode_residual", "1e-05")],
        "formal-reduce n=2": [lambda rep: rep["coeffs"][0][0].__setitem__(0, ["1.0", "1e-12"])],
        "dubrovin n=2": [set_value("antisymmetric_exact", False), set_value("residual", "1e-05")],
    }
    for name, edits in cases.items():
        for edit in edits:
            assert rejects(ops[name].check, _edit(outs[name], edit), {}), name
    assert rejects(ops["b-check n=2"].check, (1, "", "FAILED: deviation\n"), {})


def test_malformed_check_wants_exit_2_and_one_line():
    check = checks.check_malformed
    check((2, "", "error: rank must be at least 1\n"))
    assert rejects(check, (1, "", "error: x\n"))
    assert rejects(check, (0, "{}\n", ""))
    assert rejects(check, (2, "", "Traceback (most recent call last):\n  ...\nIndexError: x\n"))


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
