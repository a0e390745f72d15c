"""Fuzz over the argv grammar: every command line either answers or fails with
exit 1 (a failed identity) or 2 (bad input, one stderr line), never with a
traceback, and within a time limit."""

import contextlib
import io
import signal
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st

from projqde.cli import main

TIME_LIMIT_S = 20.0
Z_POOL = ("0.1", "0.37", "0.62", "0.85")

# sampled_from draws uniformly; integers() would favour 0
ranks = st.sampled_from(range(-2, 5))
exponents = st.one_of(st.integers(-10, 10), st.integers(-300, 300))
indices = st.sampled_from(range(-1, 6))
qs = st.sampled_from(["0", "0.3"])
orders = st.sampled_from(["-1", "0", "8"])
tols = st.sampled_from([["--tol", "nan"], ["--tol", "-1"], []])
classes = st.one_of(
    st.just("1"),
    exponents.map(lambda k: f"X^{k}"),
    exponents.map(lambda k: f"X^{k}*Z1"),
    exponents.map(lambda k: f"O({k})"),
    exponents.map(lambda k: f"(X+Z1)^{k}"),
    st.tuples(exponents, exponents).map(lambda ks: f"X^{ks[0]}^{ks[1]}"),
    st.tuples(exponents, exponents).map(lambda ks: f"((X+Z1)^{ks[0]})^{ks[1]}"),
)


# braid words: letters around the valid range 1..n-1 of each sign, with 0,
# and words that are not comma-separated integers
words = st.one_of(
    st.lists(st.integers(-6, 6), max_size=4).map(lambda ls: ",".join(map(str, ls))),
    st.sampled_from(["1,,2", "a", "1.5", " "]),
)


def z_text(n: int) -> str:
    return ",".join(Z_POOL[: max(n, 1)])


@st.composite
def command_lines(draw):
    n = draw(ranks)
    N = ["--n", str(n)]
    z = ["--z", z_text(n)]
    # --order and --tol only where the command reads them
    series = [*z, "--order", draw(orders), *draw(tols)]
    kind = draw(
        st.sampled_from(
            ["gram", "braid", "dioph-check", "mutate", "psi", "qkz-check", "qkz", "solve-qde",
             "b-check", "stokes", "formal-reduce", "dubrovin", "roots-of-unity", "verify-all",
             "usage-error"]
        )
    )
    basis = ["--basis", draw(st.sampled_from(["beilinson", "Q", "Qp", "Qpp", "Qpt", "Qppt"]))]
    twist = ["--k", str(draw(exponents))]
    word = ["--word", draw(words)]
    if kind in ("gram", "dioph-check"):
        return [kind, *N, *basis, *twist, *word]
    if kind == "braid":
        if draw(st.booleans()):
            return ["braid", *N, *basis, *twist, *word]
        name = draw(st.sampled_from(["beta", "C", "gamma", "sigma_odd", "sigma_even"]))
        return ["braid", *N, *basis, *twist, "--name", name]
    if kind == "mutate":
        side = draw(st.sampled_from(["left", "right"]))
        return ["mutate", *N, "--side", side, "--pivot", draw(classes), "--target", draw(classes)]
    if kind in ("psi", "qkz-check"):
        return [kind, *N, *series, "--q", draw(qs), "--class", draw(classes)]
    if kind == "qkz":
        basis = draw(st.sampled_from(["g", "x"]))
        return ["qkz", *N, *z, "--q", draw(qs), "--i", str(draw(indices)), "--basis", basis]
    if kind == "solve-qde":
        return ["solve-qde", *N, *series, "--q", draw(qs)]
    if kind == "b-check":
        return ["b-check", *N, *series, *twist]
    if kind == "stokes":
        sector = f"{draw(st.sampled_from(['vp', 'vpp']))}:{draw(exponents)}"
        return ["stokes", *N, "--sector", sector]
    if kind == "formal-reduce":
        order = draw(st.sampled_from(["-1", "0", "2"]))
        return ["formal-reduce", *N, *(z if draw(st.booleans()) else []), "--order", order]
    if kind == "dubrovin":
        return ["dubrovin", *N, *draw(tols)]
    if kind == "verify-all":
        return ["verify-all", *N, "--fast"]
    if kind == "usage-error":
        # an unknown flag, after a command that may also miss a required one
        return [draw(st.sampled_from(["gram", "psi", "stokes"])), *N, "--no-such-flag"]
    return [kind, *N]


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_limited(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue(), time.perf_counter() - start


MUTATE_X = ["mutate", "--n", "3", "--side", "left", "--pivot", "O(1)", "--target"]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command_lines())
@example(["gram", "--n", "1"])
@example(["braid", "--n", "1"])
@example(["dioph-check", "--n", "1"])
@example(["psi", "--n", "2", "--z", "0.1,0.37", "--q", "0"])
@example(["qkz-check", "--n", "2", "--z", "0.1,0.37", "--q", "0"])
@example(["qkz", "--n", "2", "--i", "1", "--z", "0.1,0.37", "--q", "0"])
@example(MUTATE_X + ["X^5000"])
@example(MUTATE_X + ["X^40"])
@example(MUTATE_X + ["X^60"])
@example(MUTATE_X + ["X^100"])
@example(["psi", "--n", "2", "--z", "0.1,0.37", "--q", "0.3", "--class", "9^9^9^9"])
@example(["psi", "--n", "2", "--z", "0.1,0.37", "--q", "0.3", "--class", "(X+Z1+Z2)^400"])
@example(["gram", "--n", "-2", "--basis", "beilinson", "--k", "0", "--word", "-1,0"])
@example(["gram", "--n", "4", "--word", ",".join(["1"] * 40)])
def test_argv_fuzz(argv):
    code, err, elapsed = run_limited(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert err.count("\n") == 1, (argv, err)
    assert elapsed < TIME_LIMIT_S, (argv, elapsed)
