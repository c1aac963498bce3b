"""padicops benchmark: certified answers per second on three workloads.

    python3 bench/run.py --workload idem_dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; padicops is imported from src/.
One caller, one thread, closed loop: the next answer is asked for only
after the previous one returned and passed its oracle.

--trace 0 measures the end-to-end metrics: whole cycles over the seeded
task pool for about --seconds (at least three cycles), timing every
answer on fresh copies of its inputs.  Each latency is scaled to a
reference host speed read by probes around and during the answer (see
HostClock), and each task's latency is the median of its answers.
--trace 1 runs the pool untraced, traced with the layer wrappers of
tracing.py, and untraced again, then the microbenchmarks, and reports the
per-layer metrics.  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# Passes in a run's task pool (a pass is the fixed mix of one workload, see
# workloads.py).  One pass of idem_dense (24 tasks) or scale_window (20)
# already spans its sizes and ranks; two give the p90, taken over the
# tasks, four or more tasks beyond it.  A calculus_cli pass has one task
# per leaf (11); in four passes its idempotent leaves see each first piece
# of workloads.FIRST_PIECES once.
POOL_PASSES = {"idem_dense": 2, "scale_window": 2, "calculus_cli": 4}
# Set-ups per --trace 0 run, spread over its answering time; setup_s is
# their median.
SETUP_REPEATS = 5
# Each task is visited in at least MIN_CYCLES cycles, and a run times at
# least MIN_ANSWERS answers.
MIN_CYCLES = 3
MIN_ANSWERS = 100
# Answering time per task in one cycle, at least one answer.
VISIT_S = 0.05


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _loadavg() -> list[float] | None:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(str(ROOT / ".git" / ref))
    if loose:
        return loose.strip()
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


PROBE_MOD = 3 ** 40
# The probe's best time on a 2-vCPU Intel Xeon host in its fast phase: a
# time scaled by PROBE_REFERENCE_S / probe reads as it would on that host
# at that speed.
PROBE_REFERENCE_S = 170e-6


def _probe_step(x: int, i: int, table: list[int]) -> int:
    table[i & 15] = x
    return (x * 1234567891 + table[(i * 7) & 15]) % PROBE_MOD


def probe_s() -> float:
    """Best of three timings of a fixed pure-Python loop of about 0.2 ms:
    calls, list stores and modular products of 64-bit integers, the
    operations padicops spends its time on.  It reads the host's speed at
    this moment; it never calls padicops, so no change to padicops moves
    it."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x, table = 12345, [0] * 16
        for i in range(600):
            x = _probe_step(x, i, table)
        best = min(best, time.perf_counter() - start)
    return best


# Probes while a call runs: one every SAMPLE_EVERY_S.
SAMPLE_EVERY_S = 0.02


class HostClock:
    """Times calls and reads the host's speed around and during each.

    A probe runs before the call, after it, and every SAMPLE_EVERY_S while
    it runs, from the handler of a timer signal in this same thread, so a
    change of host speed in the middle of a long call is seen.  The time
    the handlers take is taken out of the call's latency, and the latency
    is scaled by PROBE_REFERENCE_S over the mean probe time.  Use it as a
    context manager: it owns SIGALRM while open."""

    def __init__(self):
        self.probes: list[float] = []  # probe times of the last call
        self._spent = 0.0
        self._last = probe_s()
        self._old_handler = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe_s())
        self._spent += time.perf_counter() - start

    def __enter__(self) -> "HostClock":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def call(self, fn: Callable, *args) -> tuple[object, Exception | None, float, float]:
        """fn(*args): returns its result, the exception it raised (or None),
        its latency and its latency scaled to the reference host speed."""
        self.probes, self._spent = [self._last], 0.0
        result, error = None, None
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the caller decides what a raised call means
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        took = time.perf_counter() - start - self._spent
        self._last = probe_s()
        self.probes.append(self._last)
        return result, error, took, took * PROBE_REFERENCE_S / statistics.fmean(self.probes)


def _plain_call(fn: Callable, *args) -> tuple[object, Exception | None, float, float]:
    """fn(*args) timed without probes; the scaled latency is the latency."""
    result, error = None, None
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        error = exc
    took = time.perf_counter() - start
    return result, error, took, took


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


class Tally:
    """Attempts, failures and margins of checked answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.margins: list[int] = []
        self.errors: list[str] = []

    def answer(self, task, clock: HostClock | None = None) -> tuple[bool, float, float, object]:
        """Ask for one answer and check it; returns (passed, latency, latency
        scaled by `clock`, answer).  The inputs are copied before the clock
        starts.  A raised answer is a failed answer, never an abort."""
        self.attempted += 1
        inputs = task.fresh_inputs()
        result, error, took, scaled = (clock.call if clock else _plain_call)(task.call, *inputs)
        m = None
        if error is None:
            try:
                m = task.check(result)
            except Exception as exc:
                error = exc
        if error is not None:
            self._fail(task, error)
            return False, took, scaled, result
        if m is not None:
            self.margins.append(m)
        return True, took, scaled, result

    def _fail(self, task, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{task.kind}: {type(exc).__name__}: {exc}")


def _padicops_modules() -> list[str]:
    return [n for n in sys.modules if n == "padicops" or n.startswith("padicops.")]


def import_padicops(workdir: Path) -> None:
    """Import padicops afresh from src/: forget any earlier import, and look
    for bytecode only in an empty directory under the run's workdir (none is
    written), so every import compiles the sources whatever __pycache__
    the tree holds."""
    for name in _padicops_modules():
        del sys.modules[name]
    sys.pycache_prefix = str(workdir / "no-bytecode")
    importlib.import_module("padicops.cli")  # the CLI workload drives it


def set_up(workload: str, seed: int, workdir: Path, passes: int, tally: Tally,
           clock: HostClock) -> tuple[list, float]:
    """One set-up: a fresh import, pool generation and a warm-up of two
    answers; returns the pool and the time taken, scaled by `clock`."""
    import workloads

    def work():
        import_padicops(workdir)
        workdir.mkdir(exist_ok=True)
        tasks = workloads.build(workload, seed, str(workdir), passes)
        for task in tasks[:2]:
            tally.answer(task)
        return tasks

    tasks, error, _, scaled = clock.call(work)
    if error is not None:
        raise error
    return tasks, scaled


def set_up_aside(workload: str, seed: int, workdir: Path, passes: int, tally: Tally,
                 clock: HostClock) -> float:
    """Time one more set-up, then drop its pool and put back the padicops
    modules the timed pool was built with; returns the time taken.  The
    dropped modules and pool are collected before and after, so that the
    peak memory of a run does not depend on when the collector last ran."""
    kept = {name: sys.modules[name] for name in _padicops_modules()}
    gc.collect()
    try:
        return set_up(workload, seed, workdir, passes, tally, clock)[1]
    finally:
        for name in _padicops_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()


def timed_loop(tasks, seconds: float, tally: Tally, clock: HostClock,
               between: Callable[[float], None]) -> tuple[list[list[float]], list[list[float]], int]:
    """Whole cycles over the pool until about `seconds` of wall clock have
    passed (the run ends at the cycle boundary nearest to it), MIN_CYCLES
    were run and MIN_ANSWERS answers timed.  A cycle visits every task
    once and answers it again until the visit has taken VISIT_S, so that
    short tasks get many samples.  Returns, per task, the
    latencies of its answers that passed their oracle, scaled by `clock`
    and raw, and the number of cycles.  `between(elapsed)` is called after
    every cycle."""
    scaled: list[list[float]] = [[] for _ in tasks]
    raw: list[list[float]] = [[] for _ in tasks]
    cycles = 0
    start = time.perf_counter()
    elapsed = 0.0
    # stop at the end of the cycle nearest to `seconds`
    while (cycles < MIN_CYCLES or sum(map(len, raw)) < MIN_ANSWERS
           or elapsed + elapsed / cycles / 2 < seconds):
        for i, task in enumerate(tasks):
            visit = 0.0
            while visit < VISIT_S:
                good, took, took_scaled, _ = tally.answer(task, clock)
                visit += took
                if not good:
                    break
                raw[i].append(took)
                scaled[i].append(took_scaled)
        cycles += 1
        elapsed = time.perf_counter() - start
        between(elapsed)
    return scaled, raw, cycles


def _latency_metrics(per_task: list[list[float]]) -> tuple[float, float, float]:
    """Answers per second, p50 and p90 in ms over the tasks' median
    latencies.  Each task counts once, so the figures have the pool's mix;
    and the median of a task's answers is not moved by one answer whose
    scaling was off because the host changed speed between two probes."""
    medians = [statistics.median(xs) for xs in per_task if xs]
    deciles = statistics.quantiles(medians, n=10)
    return len(medians) / sum(medians), deciles[4] * 1e3, deciles[8] * 1e3


def end_to_end(tasks, seconds: float, tally: Tally, clock: HostClock, record: dict,
               setup_s: float, set_up_again: Callable[[], float]) -> dict:
    """Latency and rate over the tasks' median latencies, scaled to the
    reference host speed.

    Host speed on shared machines swings by up to 2x for seconds at a
    time, and a slow phase can last a whole run; the clock's probes around
    and during each answer read that speed, and scaling by it leaves the
    cost of the code.  Every call gets fresh copies of its inputs.  The
    run record keeps the unscaled figures and the rate of each task's
    first answer beside them, so a cost that only the first call of a
    process pays can be seen.

    The set-ups are spread over the run, each scaled by the clock, and
    setup_s is their median: one before the loop, the others after
    the cycles that pass equal shares of `seconds` (or after the loop).
    """
    setups = [setup_s]
    marks = [seconds * k / (SETUP_REPEATS - 1) for k in range(1, SETUP_REPEATS - 1)]

    def between(elapsed: float) -> None:
        while marks and elapsed >= marks[0]:
            marks.pop(0)
            setups.append(set_up_again())

    scaled, raw, cycles = timed_loop(tasks, seconds, tally, clock, between)
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up_again())
    rate, p50, p90 = _latency_metrics(scaled)
    record["setup_s_each"] = setups
    record["tasks"], record["cycles"] = len(tasks), cycles
    record["timed_answers"] = sum(map(len, scaled))
    record["unscaled"] = dict(zip(("answers_per_s", "answer_p50_ms", "answer_p90_ms"),
                                  _latency_metrics(raw)))
    first = [xs[0] for xs in raw if xs]
    record["first_cycle_answers_per_s"] = len(first) / sum(first) if first else None
    return {
        "answers_per_s": (rate, "1/s"),
        "answer_p50_ms": (p50, "ms"),
        "answer_p90_ms": (p90, "ms"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "margin_min": (min(tally.margins), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(tasks, tally: Tally, workdir: str) -> dict:
    import micro
    from tracing import Tracer

    # untraced, traced, untraced: the overhead ratio uses the mean of the
    # two untraced passes, so a drift in host speed cancels to first order
    untraced = sum(tally.answer(t)[1] for t in tasks)
    tracer = Tracer()
    tracer.install()
    try:
        traced, iterations = 0.0, 0
        for task in tasks:
            good, took, _, result = tally.answer(task)
            traced += took
            if good and task.kind == "calculus teich-idem":
                iterations += json.loads(result[1])["iterations"]
    finally:
        tracer.uninstall()
    untraced = (untraced + sum(tally.answer(t)[1] for t in tasks)) / 2
    c, s = tracer.calls, tracer.self_s
    out = {}
    for key in ("operators.nf_mul", "operators.nf_add", "operators.normalize",
                "idempotents.refine", "scale.determinant"):
        out[f"{key}.calls"] = (c[key], "count")
        out[f"{key}.self_s"] = (s[key], "s")
    for key in ("operators.nf_norm", "operators.nf_vanishes_to", "operators.op_apply",
                "scalars.add", "scalars.mul", "scalars.div", "scalars.from_unit",
                "scalars.binomial"):
        out[f"{key}.calls"] = (c[key], "count")
    for key in ("idempotents.lift", "idempotents.equiv", "idempotents.split", "scale.willis",
                "calculus.certify", "calculus.apply", "calculus.teich", "calculus.fz",
                "mahler.expand", "mahler.eval", "io.parse", "io.emit", "cli.main"):
        out[f"{key}.self_s"] = (s[key], "s")
    for layer in ("operators", "idempotents", "scale", "calculus", "mahler", "io"):
        out[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    out["idempotents.nf_mul_per_answer"] = (c["operators.nf_mul"] / len(tasks), "count/answer")
    out["calculus.teich.iterations"] = (iterations, "count")
    out["trace.overhead_ratio"] = (traced / untraced - 1, "ratio")
    out.update(micro.run(workdir))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
              "cpu": _cpu_model(), "git_commit": _git_commit(),
              "loadavg_start": _loadavg(), "probe_us_start": probe_s() * 1e6}
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("PADIC_OPALG_CONFIG", None)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            import_padicops(workdir)
        except ImportError as exc:
            print(f"bench: cannot import padicops from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        where = Path(sys.modules["padicops.cli"].__file__).resolve()
        if (ROOT / "src") not in where.parents:
            print(f"bench: padicops was imported from {where}, not this checkout", file=sys.stderr)
            return 2
        tally = Tally()
        passes = POOL_PASSES[args.workload]
        with HostClock() as clock:
            tasks, setup_s = set_up(args.workload, args.seed, workdir, passes, tally, clock)
            if args.trace == 0:
                metrics = end_to_end(tasks, args.seconds, tally, clock, record, setup_s,
                                     lambda: set_up_aside(args.workload, args.seed, workdir / "aside",
                                                          passes, tally, clock))
            else:
                metrics = per_layer(tasks, tally, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_end"] = _loadavg()
    record["probe_us_end"] = probe_s() * 1e6
    record["errors"] = tally.errors
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
