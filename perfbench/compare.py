"""Parent-versus-change comparison of the end-to-end metrics.

    python3 perfbench/compare.py --parent ../parent --change . --workload small-train --pairs 10

``--parent`` and ``--change`` are two source checkouts, each holding this
benchmark. Pair i runs both sides on seed ``--first-seed + i``; the side
that runs first alternates from pair to pair. For every end-to-end metric
the table gives each side's median and quartiles, the pairs the change
won (ties count for neither) and a verdict by the rule in the README:

- ``gain``: at least ten pairs, the change won at least nine tenths of
  them, and the medians differ by more than the parent's own quartile
  spread;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's spread is wider than the bound and the
  change's runs do not all beat the parent's;
- ``same`` otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: seed {seed} failed its output checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return wins, "regression"
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and abs(c_med - p_med) > spread:
        return wins, "gain"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(p_med) and not all_better:
        return wins, "unresolved"
    return wins, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two checkouts on one workload")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {"parent": {n: [] for n in metrics}, "change": {n: [] for n in metrics}}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got = run_side(getattr(args, side), args.workload, seed, spec["run_seconds"])
            for name in metrics:
                values[side][name].append(got[name])
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)

    print(f"{'metric':32s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} wins  verdict")
    for name, m in metrics.items():
        cells = []
        for side in ("parent", "change"):
            v = values[side][name]
            q1, _, q3 = statistics.quantiles(v, n=4)
            cells.append(f"{statistics.median(v):.6g} [{q1:.6g}, {q3:.6g}]")
        wins, word = verdict(values["parent"][name], values["change"][name], m["better"], m["bound"])
        print(f"{name:32s} {cells[0]:34s} {cells[1]:34s} {wins:2d}/{args.pairs}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
