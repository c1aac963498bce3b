"""Where a workload's time goes, task kind by task kind, on two checkouts.

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 tools/kind_times.py ../parent . --workload calculus_cli --seed 3 --rounds 20

Each checkout's padicops (from its src/) and benchmark modules (from its
bench/) are imported into this one process, and each builds its own task
pool as tools/answer_digest.py does, at bench/run.py's POOL_PASSES; the
two pools must list the same task kinds in the same order.  Every answer
is checked by its oracle once.  Then each round answers every task of
both pools once, on fresh copies of its inputs: task i of A beside task
i of B, the side that goes first alternating from answer to answer, so
a drift of the host's speed falls on both sides alike.  A task's time is
the median of its rounds.  For each task kind the table prints, per side, the median
of its tasks' times and the kind's share of the pool (the sum of its
tasks' times over the sum of all tasks' times), then the ratio B / A of
the medians; the last row is the whole pool.  Times are wall clock, not
scaled to a reference host as bench/run.py scales them.  A second table
prints, per kind and per side, the calls per answer (the mean over the
kind's tasks) of Window.mul and NormalForm.mul, the products, and of
linalg's add_product and Padic.__truediv__, the elimination updates
and the divisions (pivot divisions among them): the checking pass
counts them by wrapping those names in that side's modules, and the
timed rounds run unwrapped.  The exit code is 1 when an answer failed its
oracle.  Standard library only.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

# the modules a checkout brings: its library and its benchmark's helpers
BENCH_MODULES = ("workloads", "oracle", "intmath", "run")
# the calls counted per answer: (module, class or None for the module
# itself, attribute, column heading)
COUNTED = (("padicops.residues", "Window", "mul", "Window.mul"),
           ("padicops.operators", "NormalForm", "mul", "NF.mul"),
           ("padicops.linalg", None, "add_product", "add_product"),
           ("padicops.scalars", "Padic", "__truediv__", "Padic /"))


def _owned(name: str) -> bool:
    return name in BENCH_MODULES or name == "padicops" or name.startswith("padicops.")


class Side:
    """One checkout's modules and task pool, swapped into sys.modules to run."""

    def __init__(self, checkout: Path, workload: str, seed: int, workdir: str):
        self.checkout = checkout
        for name in [n for n in sys.modules if _owned(n)]:
            del sys.modules[name]
        paths = [str(checkout / "src"), str(checkout / "bench")]
        sys.path[:0] = paths
        try:
            import padicops.cli  # noqa: F401  the CLI workload imports it per call
            import workloads
            from run import POOL_PASSES
            self.tasks = workloads.build(workload, seed, workdir, POOL_PASSES[workload])
        finally:
            del sys.path[:len(paths)]
        self.modules = {n: m for n, m in sys.modules.items() if _owned(n)}

    def enter(self) -> None:
        for name in [n for n in sys.modules if _owned(n)]:
            del sys.modules[name]
        sys.modules.update(self.modules)

    def check(self) -> int:
        """Answer every task once and hand it to its oracle; the failures.
        Each answer's calls of the COUNTED names go to self.counts, one
        tuple per task, counted by wrapping the names for this pass
        only (the oracles call no padicops)."""
        self.enter()
        owners = [self.modules[module] if name is None else getattr(self.modules[module], name)
                  for module, name, _, _ in COUNTED]
        originals = [vars(owner)[attr] for owner, (_, _, attr, _) in zip(owners, COUNTED)]
        tally = [0] * len(owners)

        def counted(k, f):
            def wrapper(*args, **kwargs):
                tally[k] += 1
                return f(*args, **kwargs)
            return wrapper

        for k, (owner, (_, _, attr, _), f) in enumerate(zip(owners, COUNTED, originals)):
            setattr(owner, attr, counted(k, f))
        failed, self.counts = 0, []
        try:
            for task in self.tasks:
                tally[:] = [0] * len(owners)
                try:
                    task.check(task.run())
                except Exception as exc:
                    failed += 1
                    print(f"{self.checkout} {task.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
                self.counts.append(tuple(tally))
        finally:
            for owner, (_, _, attr, _), f in zip(owners, COUNTED, originals):
                setattr(owner, attr, f)
        return failed

    def answer(self, i: int) -> float:
        """The wall time of one answer to task i, on fresh inputs."""
        self.enter()
        task = self.tasks[i]
        inputs = task.fresh_inputs()
        start = time.perf_counter()
        task.call(*inputs)
        return time.perf_counter() - start


def kinds(side: Side, times: list[list[float]]) -> dict[str, list[float]]:
    """{kind: the median time of each of its tasks}, in pool order."""
    out: dict[str, list[float]] = {}
    for task, took in zip(side.tasks, times):
        out.setdefault(task.kind, []).append(statistics.median(took))
    return out


def calls(side: Side) -> dict[str, list[float]]:
    """{kind: the mean calls of each COUNTED name per answer}, in pool order."""
    out: dict[str, list[tuple[int, ...]]] = {}
    for task, counts in zip(side.tasks, side.counts):
        out.setdefault(task.kind, []).append(counts)
    out["pool"] = side.counts
    return {kind: [statistics.fmean(c) for c in zip(*rows)] for kind, rows in out.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A, for example the parent")
    parser.add_argument("b", type=Path, help="checkout B, for example the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True

    with tempfile.TemporaryDirectory() as dir_a, tempfile.TemporaryDirectory() as dir_b:
        sides = [Side(args.a.resolve(), args.workload, args.seed, dir_a),
                 Side(args.b.resolve(), args.workload, args.seed, dir_b)]
        if [t.kind for t in sides[0].tasks] != [t.kind for t in sides[1].tasks]:
            raise SystemExit("the two checkouts build pools of different task kinds")
        failed = sum(side.check() for side in sides)
        times = [[[] for _ in side.tasks] for side in sides]
        for r in range(args.rounds):
            for i in range(len(sides[0].tasks)):
                for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    times[k][i].append(sides[k].answer(i))
    a, b = (kinds(side, t) for side, t in zip(sides, times))
    total_a = sum(map(sum, a.values()))
    total_b = sum(map(sum, b.values()))

    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds; "
          f"A = {sides[0].checkout}, B = {sides[1].checkout}")
    print(f"{'kind':26s} {'tasks':>5s} {'A ms':>8s} {'A share':>7s} {'B ms':>8s} {'B share':>7s} {'B/A':>6s}")
    for kind, ta in a.items():
        tb = b[kind]
        ma, mb = statistics.median(ta) * 1e3, statistics.median(tb) * 1e3
        print(f"{kind:26s} {len(ta):5d} {ma:8.3f} {sum(ta) / total_a:7.1%}"
              f" {mb:8.3f} {sum(tb) / total_b:7.1%} {mb / ma:6.3f}")
    print(f"{'pool':26s} {sum(map(len, a.values())):5d} {total_a * 1e3:8.3f} {1:7.1%}"
          f" {total_b * 1e3:8.3f} {1:7.1%} {total_b / total_a:6.3f}")
    print()
    print("calls per answer")
    names = [heading for _, _, _, heading in COUNTED]
    print(f"{'kind':26s} " + " ".join(f"{side + ' ' + name:>13s}" for side in "AB" for name in names))
    ca, cb = (calls(side) for side in sides)
    for kind, counts in ca.items():
        print(f"{kind:26s} " + " ".join(f"{x:13.2f}" for x in (*counts, *cb[kind])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
