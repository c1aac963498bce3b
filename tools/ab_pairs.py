"""Alternating A/B pairs of bench/run.py on two source checkouts.

    git worktree add ../parent HEAD~1
    python3 tools/ab_pairs.py ../parent . --workload calculus_cli --seed 3 --seconds 30 --pairs 10

Each pair runs ``python3 bench/run.py --trace 0`` once in each checkout,
one after the other; the side that runs first alternates from pair to
pair, so a drift of the host's speed falls on both sides alike.  The last
line of each run's stdout is its JSON result.  For every end-to-end
metric of BENCHMARK.json (read from the root of this checkout) it prints
the median and quartiles of each side, the median over the pairs of the
ratio B / A, and how many pairs each side won by the metric's
direction; ties count for neither.  A run that exits nonzero stops the
script; the exit code is 1 when a run gave a wrong answer.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One --trace 0 run in the checkout: the JSON object of its last line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{checkout}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A, for example the parent")
    parser.add_argument("b", type=Path, help="checkout B, for example the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    sides = {"A": args.a.resolve(), "B": args.b.resolve()}
    results: dict[str, list[dict]] = {"A": [], "B": []}
    bad = 0
    for k in range(args.pairs):
        for side in ("AB" if k % 2 == 0 else "BA"):
            out = run_once(sides[side], args.workload, args.seed, args.seconds)
            bad += not out["correct"]
            results[side].append(out["metrics"])
            shown = "  ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                              for m in spec if m["name"] in out["metrics"])
            print(f"pair {k + 1} {side}: {shown}", file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s; "
          f"A = {sides['A']}, B = {sides['B']}")
    print(f"{'metric':16s} {'A q1':>10s} {'A median':>10s} {'A q3':>10s}"
          f" {'B q1':>10s} {'B median':>10s} {'B q3':>10s} {'B/A':>7s} {'A won':>5s} {'B won':>5s}")
    for metric in spec:
        name = metric["name"]
        pairs = [(a[name]["value"], b[name]["value"])
                 for a, b in zip(results["A"], results["B"]) if name in a and name in b]
        if not pairs:
            continue
        higher = metric["better"] == "higher"
        wins_a = sum((x > y) if higher else (x < y) for x, y in pairs)
        wins_b = sum((y > x) if higher else (y < x) for x, y in pairs)
        ratios = [y / x for x, y in pairs if x]
        ratio = f"{statistics.median(ratios):7.3f}" if ratios else f"{'-':>7s}"
        qa = spread([x for x, _ in pairs])
        qb = spread([y for _, y in pairs])
        print(f"{name:16s} " + " ".join(f"{v:10.4g}" for v in qa + qb)
              + f" {ratio} {wins_a:5d} {wins_b:5d}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
