"""Benchmark of projqde: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes over the workload's operations, with the program's
`lru_cache`s cleared before each pass, until the passes have taken S seconds
(at least three passes).  Times are medians over the passes, operation by
operation.  Outputs are checked after the passes, untimed.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  A traced run also times one untraced pass, reports the tracing
overhead on stderr and writes its spans to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
# one thread: numpy's BLAS reads these when it is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_PROBES = 5
MIN_PASSES = 3  # an untraced run times at least this many passes, so medians reject a disturbed one
# The speed of a shared machine drifts by 10-50% over seconds to tens of
# seconds, and the program's work with it.  Times are reported at the speed at
# which reference_work() takes REFERENCE_WORK_S, its typical time on the shared
# 2-core Xeon (2.1 GHz) container the figures in README.md were measured on.
REFERENCE_WORK_S = 0.005
# The machine's speed is read from the reference timings next to an operation,
# up to this many operations before and after it.  Over a run of tens of
# seconds its phases change (one torus-braid run had passes of 5.3 and 7.1 s),
# and the median of 21 timings is still steady.
REFERENCE_WINDOW = 10
OUT_DIR = HERE / "out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def program_caches() -> list:
    """Every lru_cache of the program, so that each pass starts cold."""
    caches = []
    for name, mod in list(sys.modules.items()):
        if name == "projqde" or name.startswith("projqde."):
            caches += [v for v in vars(mod).values() if hasattr(v, "cache_clear")]
    return caches


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter until its operations are ready."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc})")
    return elapsed


# Two sparse polynomials in five variables, as dicts from exponent tuples to
# integer coefficients: the data layout of projqde.ring, but built and
# multiplied here, so that no change to the program changes the reference work.
# A product with thousands of terms speeds up and slows down with the machine
# as the program's large products do; in a fast phase of the machine, one of a
# thousand terms ran 1.7 times as fast and torus-braid's products 1.3 times.
_REF_A = {(i, -j, (i * j) % 7, i - j, j % 3): 3 * i - j + 1 for i in range(10) for j in range(6)}
_REF_B = {(j, i % 4, -i, (i + 2 * j) % 5, i % 2): i * j - 5 for i in range(10) for j in range(6)}


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work: a product of two
    sparse polynomials, 3,600 term products into 3,425 terms, written as
    projqde.ring multiplies.  Timed before every operation, it gives the speed
    of the machine at that moment (see local_scales)."""
    t0 = time.perf_counter()
    tm: dict = {}
    get = tm.get
    for e1, c1 in _REF_A.items():
        for e2, c2 in _REF_B.items():
            e = tuple(map(int.__add__, e1, e2))
            tm[e] = get(e, 0) + c1 * c2
    return time.perf_counter() - t0


def local_scales(reference_times: list[float]) -> list[float]:
    """For the operation timed after each reference timing: REFERENCE_WORK_S
    over the median of the reference timings up to REFERENCE_WINDOW operations
    away from it, the factor that brings its time to the reference speed."""
    w = REFERENCE_WINDOW
    return [
        REFERENCE_WORK_S / statistics.median(reference_times[max(0, j - w) : j + w + 1])
        for j in range(len(reference_times))
    ]


def run_pass(ops, caches, reference_times: list[float]) -> tuple[list, list[float], float, dict]:
    """One pass: every operation once, in order, each after one timing of the
    reference work (appended to reference_times).  Returns per-operation
    (output, error), per-operation seconds, the pass's seconds and the state."""
    for c in caches:
        c.cache_clear()
    gc.collect()  # every pass starts from the same heap, so collector work does not carry over
    state: dict = {}
    results, times = [], []
    start = time.perf_counter()
    for op in ops:
        reference_times.append(reference_work())
        t0 = time.perf_counter()
        try:
            out, err = op.run(state), None
        except Exception as exc:  # an operation's failure is counted, not fatal
            out, err = None, exc
        times.append(time.perf_counter() - t0)
        if err is None:
            state[op.name] = out
        results.append((out, err))
    return results, times, time.perf_counter() - start, state


def same(a, b) -> bool:
    (out_a, err_a), (out_b, err_b) = a, b
    if err_a is not None or err_b is not None:
        return repr(err_a) == repr(err_b)
    return out_a == out_b


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "projqde").is_dir():
        sys.stderr.write(f"no program source in {SRC}\n")
        return 1
    try:
        import checks
        import workloads
    except ImportError as exc:
        sys.stderr.write(f"cannot import the program: {exc}\n")
        return 1
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    caches = program_caches()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()

    # the first pass is untimed by the tracer and gives the reference outputs
    reference_times: list[float] = []
    reference, first_times, first_wall, ref_state = run_pass(ops, caches, reference_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls, traced_walls = [first_wall], []
    pass_times = [first_times]  # untraced passes, seconds per operation
    failures = [0] * len(ops)
    passes = 1
    measured = first_wall
    min_passes = 1 if tracer else MIN_PASSES
    while measured < args.seconds or passes < min_passes or (tracer and not traced_walls):
        if tracer:
            tracer.install()
        try:
            results, times, wall, _ = run_pass(ops, caches, reference_times)
        finally:
            if tracer:
                tracer.uninstall()
        (traced_walls if tracer else walls).append(wall)
        if not tracer:
            pass_times.append(times)
        measured += wall
        passes += 1
        for i, (ref, got) in enumerate(zip(reference, results)):
            if not same(ref, got):
                failures[i] += 1
        del results

    mismatched = [op.name for op, f in zip(ops, failures) if f]
    correct = not mismatched
    if mismatched:
        sys.stderr.write(f"outputs differ between passes: {mismatched}\n")
    for i, (op, (out, err)) in enumerate(zip(ops, reference)):
        if err is not None:
            sys.stderr.write(f"FAILED {op.name}: {type(err).__name__}: {err}\n")
            failures[i] = passes
            continue
        try:
            op.check(out, ref_state)
        except Exception as exc:  # a check that cannot run rejects the output
            correct = False
            failures[i] = passes
            kind = "" if isinstance(exc, checks.CheckFailed) else f"{type(exc).__name__}: "
            sys.stderr.write(f"WRONG {op.name}: {kind}{exc}\n")

    if tracer:
        metrics = tracer.metrics(len(traced_walls))
        units = spans.metric_units()
        overhead = min(traced_walls) - min(walls)
        OUT_DIR.mkdir(exist_ok=True)
        dump = tracer.dump()
        dump.update(
            workload=args.workload, seed=args.seed, untraced_wall_s=walls,
            traced_wall_s=traced_walls, overhead_s=overhead, metrics=metrics,
        )
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(dump) + "\n")
        sys.stderr.write(
            f"tracing overhead {overhead:.3f} s per pass "
            f"(fastest traced pass {min(traced_walls):.3f} s, untraced {min(walls):.3f} s); "
            f"spans in {path.relative_to(HERE.parent)}\n"
        )
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        from scipy.stats.mstats import hdquantiles

        # Each operation's time at the reference speed (see REFERENCE_WORK_S),
        # then its median over the passes: a pass disturbed by another
        # process, or one operation of it, does not move the figures.  The
        # median over the operations is the Harrell-Davis estimate, a weighted
        # mean of the order statistics around the middle: the operations'
        # times have gaps (braid-orbit's jump from 10.8 to 12.6 ms three
        # places below the middle), and the sample median jumps across them.
        scales = local_scales(reference_times)
        scaled = [t * f for t, f in zip((t for ts in pass_times for t in ts), scales)]
        k = len(ops)
        op_medians = [statistics.median(scaled[i::k]) for i in range(k)]
        out_metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": sum(op_medians), "unit": "s"},
            "op_s.p50": {"value": float(hdquantiles(op_medians, prob=0.5)[0]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(
            f"{args.workload}: {passes} passes of {len(ops)} operations; wall_s the sum and op_s.p50 the Harrell-Davis "
            f"median of the {len(ops)} per-operation medians over the passes; setup_s median of {len(setup)} probes"
        )
        sys.stderr.write(
            f"reference work: median {statistics.median(reference_times) * 1e3:.4f} ms over "
            f"{len(reference_times)} timings, time scale {min(scales):.4f}-{max(scales):.4f}; "
            f"unscaled pass walls: fastest {min(walls):.4f} s, median {statistics.median(walls):.4f} s, "
            f"slowest {max(walls):.4f} s\n"
        )
    print(json.dumps({
        "correct": correct,
        "attempted": passes * len(ops),
        "failed": sum(failures),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
