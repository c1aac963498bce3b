"""Digest of every benchmark answer, checked by its oracle.

    python3 tools/answer_digest.py            # seeds 1-6
    python3 tools/answer_digest.py --seeds 1
    python3 tools/answer_digest.py | diff tools/answer_digest.txt -

Run from the root of a source checkout; padicops is imported from src/.
For each workload of bench/workloads.py and each seed it builds the task
pool at bench/run.py's POOL_PASSES, asks for every answer once and hands
it to the task's oracle.  It prints one line per workload and task kind:
the number of answers, how many failed (raised or were refused by the
oracle), the least oracle margin, and a SHA-256 of repr(answer) over the
answers in pool order, seeds in order.  Two checkouts whose lines agree
gave byte-identical answers.  tools/answer_digest.txt holds the seeds
1-6 table of the current answers, and CI compares a run with it; a
change that alters answers on purpose updates it.  The exit code is 1
when an answer failed.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True

import workloads  # noqa: E402
from run import POOL_PASSES  # noqa: E402


def digest(workload: str, seeds: list[int]) -> dict[str, list]:
    """{kind: [answers, failures, least margin, sha256]} over the seeds."""
    out: dict[str, list] = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            for task in workloads.build(workload, seed, workdir, POOL_PASSES[workload]):
                row = out.setdefault(task.kind, [0, 0, None, hashlib.sha256()])
                row[0] += 1
                try:
                    answer = task.run()
                    margin = task.check(answer)
                except Exception as exc:
                    row[1] += 1
                    answer = f"{type(exc).__name__}: {exc}"
                    margin = None
                    print(f"{workload} seed {seed} {task.kind}: {answer}", file=sys.stderr)
                if margin is not None:
                    row[2] = margin if row[2] is None else min(row[2], margin)
                row[3].update(repr(answer).encode())
                row[3].update(b"\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    args = parser.parse_args(argv)
    failed = 0
    print(f"seeds {' '.join(map(str, args.seeds))}")
    print(f"{'workload':13s} {'kind':26s} {'answers':>7s} {'failed':>6s} {'margin':>6s}  sha256")
    for workload in workloads.WORKLOADS:
        for kind, (count, bad, margin, sha) in digest(workload, args.seeds).items():
            failed += bad
            print(f"{workload:13s} {kind:26s} {count:7d} {bad:6d} {str(margin):>6s}  {sha.hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
