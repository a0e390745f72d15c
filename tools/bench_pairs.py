"""Paired benchmark runs of two checkouts, written as one BENCH_*.json file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --seeds 61-70 --out BENCH_N.json

For every workload of CHANGE_DIR/BENCHMARK.json and every seed, runs
`bench/run.py --workload W --seed S --seconds T --trace 0` once in each
checkout, T the file's `run_seconds`.  The two sides alternate which runs
first from one seed to the next, so a drift of the machine's speed does not
favour one of them.  The file is rewritten after every pair: per run the
`correct`, `attempted` and `failed` fields and the end-to-end metrics, and per
workload their medians, quartiles (linear interpolation), the ratio of the
medians (change over parent) and in how many pairs the change was better.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'A-B' as the seeds A..B."""
    a, b = text.split("-")
    return list(range(int(a), int(b) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout: its last stdout line, flattened."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {key: report[key] for key in ("correct", "attempted", "failed")}
    out.update((name, m["value"]) for name, m in report["metrics"].items())
    return out


def summary(runs: dict, seeds: list[int], metrics: list[dict]) -> dict:
    """Medians, quartiles, change over parent and wins over the finished pairs."""
    done = [str(s) for s in seeds if all(str(s) in runs[side] for side in SIDES)]
    out: dict = {key: {} for key in ("median", "quartiles", "change_over_parent", "change_wins")}
    for m in metrics:
        name = m["name"]
        vals = {side: [runs[side][s][name] for s in done] for side in SIDES}
        for side in SIDES:
            out["median"].setdefault(side, {})[name] = round(statistics.median(vals[side]), 6)
            q = statistics.quantiles(vals[side], n=4, method="inclusive") if len(done) > 1 else vals[side] * 3
            out["quartiles"].setdefault(side, {})[name] = [round(q[0], 6), round(q[2], 6)]
        out["change_over_parent"][name] = round(
            statistics.median(vals["change"]) / statistics.median(vals["parent"]), 4
        )
        lower = m.get("better", "lower") == "lower"
        out["change_wins"][name] = sum(
            (c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"])
        )
    out["all_correct"] = all(
        runs[side][s]["correct"] and runs[side][s]["failed"] == 0 for side in SIDES for s in done
    )
    return out


def git_head(checkout: Path) -> str:
    proc = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--seeds", required=True, help="A-B: the seeds A..B")
    p.add_argument("--out", type=Path, required=True, help="the BENCH_*.json file to write")
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    doc = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "machine": (
            f"{os.cpu_count()}-core {platform.machine()} machine, Python {platform.python_version()}; "
            "parent and change alternate which runs first for each seed"
        ),
        "parent": git_head(args.parent),
        "change": git_head(args.change),
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        runs: dict = {side: {} for side in SIDES}
        entry = doc["workloads"][name] = {"seeds": seeds, "runs": runs}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side][str(seed)] = run_once(getattr(args, side), name, seed, seconds)
                r = runs[side][str(seed)]
                sys.stderr.write(f"{name} seed {seed} {side}: wall_s {r['wall_s']} correct {r['correct']}\n")
            entry.update(summary(runs, seeds, spec["end_to_end"]))
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
