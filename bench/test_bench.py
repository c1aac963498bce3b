"""Self-tests of the benchmark: determinism, oracle sensitivity, tracing.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import intmath  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _inputs_bytes(tasks) -> bytes:
    """Everything padicops is given: operator reprs, argv, and file contents."""
    parts = []
    for task in tasks:
        parts.append(repr(task.inputs))
        argv = task.inputs[0]
        if isinstance(argv, list):
            parts += [Path(arg).read_text() for arg in argv if arg.endswith(".json")]
    return "\n".join(parts).encode()


def _subset(workload: str, tasks):
    """One task of each kind; scale windows of size 7 and 8 are left to the
    benchmark itself because they take seconds each."""
    seen, out = set(), []
    for task in tasks:
        if task.kind not in seen and task.kind not in ("willis_scale_finite_7", "willis_scale_finite_8"):
            seen.add(task.kind)
            out.append(task)
    return out


@pytest.fixture(params=workloads.WORKLOADS)
def workload(request):
    return request.param


def test_unimodular_inverse_is_exact():
    rng = random.Random(3)
    for n in (2, 5, 8):
        u, u_inv = intmath.unimodular(rng, n, 3 * n)
        assert intmath.mat_mul(u, u_inv) == intmath.identity(n)


def test_scalar_text_round_trip():
    for q in (1, -1, 45, intmath.Fraction(7, 27), intmath.Fraction(-5, 9)):
        v, unit, prec = intmath.parse_text(intmath.encode(q, 3, 40), 3, 40)
        assert (unit * 3 ** (v + 3) - q * 27) % 3 ** 40 == 0


def _built(workload: str, seed: int, path: Path) -> bytes:
    path.mkdir()
    tasks = workloads.build(workload, seed, str(path), 1)
    return _inputs_bytes(tasks).replace(str(path).encode(), b"")


def test_same_seed_same_inputs(workload, tmp_path):
    first = _built(workload, 7, tmp_path / "a")
    assert first == _built(workload, 7, tmp_path / "b")
    assert first != _built(workload, 8, tmp_path / "c")


def test_calls_get_fresh_inputs(tmp_path):
    task = workloads.build("idem_dense", 3, str(tmp_path), 1)[0]
    first, second = task.fresh_inputs(), task.fresh_inputs()
    assert repr(first) == repr(second) == repr(task.inputs)
    assert first[0] is not task.inputs[0] and first[0] is not second[0]


def _tamper_padic(x):
    """Change the lowest unit digit of a nonzero scalar to another nonzero digit."""
    p, d = x.prime, x.unit % x.prime
    return dataclasses.replace(x, unit=x.unit - d + d % (p - 1) + 1)


def _tamper_operator(op):
    """Change one digit the answer certifies: in an entry of valuation below the target."""
    kind = type(op).__name__
    if kind == "Sum":
        return dataclasses.replace(op, terms=[_tamper_operator(op.terms[0])] + op.terms[1:])
    key = next(k for k, v in op.entries.items() if not v.is_zero and v.valuation < workloads.TARGET)
    return dataclasses.replace(op, entries={**op.entries, key: _tamper_padic(op.entries[key])})


_DIGIT = re.compile(r"(\d+)\^(-?\d+)\*(\d)")


def _tamper_printed(kind: str, stdout: str) -> str:
    if kind == "idem trivialize":
        return re.sub(r'"finite_rank": (\d)', lambda m: f'"finite_rank": {int(m.group(1)) + 1}',
                      stdout, count=1)
    if kind.startswith("calculus certify"):
        lines = stdout.rstrip("\n").split("\n")
        n = len(lines) - 1
        lines[-1] = f"{n}\t{intmath.legendre(n, 3) - 1}"
        return "\n".join(lines) + "\n"

    # change the first digit below p^target: a digit at or above it is
    # outside the certified answer, so changing it leaves a right answer
    done = False

    def swap(m):
        nonlocal done
        p, e, d = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if done or e >= workloads.TARGET:
            return m.group(0)
        done = True
        return f"{m.group(1)}^{m.group(2)}*{d % (p - 1) + 1}"

    tampered = _DIGIT.sub(swap, stdout)
    assert tampered != stdout
    return tampered


def _tamper(task, answer):
    from padicops import EquivalenceWitness, ScaleValue

    if isinstance(answer, tuple):
        code, stdout = answer
        return code, _tamper_printed(task.kind, stdout)
    if isinstance(answer, ScaleValue):
        return ScaleValue(answer.exponent + 1)
    if isinstance(answer, EquivalenceWitness):
        return dataclasses.replace(answer, u=_tamper_operator(answer.u))
    return _tamper_operator(answer)


def test_oracles_accept_answers_and_reject_tampered_ones(workload, tmp_path):
    tasks = _subset(workload, workloads.build(workload, 11, str(tmp_path), 1))
    for task in tasks:
        answer = task.run()
        task.check(answer)
        with pytest.raises((oracle.Mismatch, intmath.Unverifiable)):
            task.check(_tamper(task, answer))


def _answers(tasks) -> list[str]:
    out = []
    for task in tasks:
        answer = task.run()
        out.append(answer[1] if isinstance(answer, tuple) else repr(answer))
    return out


def _traced(tasks) -> tuple[list[str], dict]:
    tracer = Tracer()
    tracer.install()
    try:
        answers = _answers(tasks)
    finally:
        tracer.uninstall()
    return answers, dict(tracer.calls)


def test_tracing_keeps_answers_and_counts_repeat(workload, tmp_path):
    tasks = _subset(workload, workloads.build(workload, 5, str(tmp_path), 1))
    plain = _answers(tasks)
    first, calls_a = _traced(tasks)
    second, calls_b = _traced(tasks)
    assert plain == first == second
    assert calls_a == calls_b
    # the workload's entry point is looked up at call time, so it is traced
    entry = {"idem_dense": "idempotents.refine", "scale_window": "scale.willis",
             "calculus_cli": "cli.main"}[workload]
    assert calls_a[entry] > 0
    # uninstall restored every original
    assert _answers(tasks) == plain


def test_tracing_restores_library():
    import padicops
    from padicops import operators, scalars

    before = (scalars.Padic.__dict__["from_unit"], operators.NormalForm.mul, padicops.normalize)
    tracer = Tracer()
    tracer.install()
    assert operators.NormalForm.mul is not before[1]
    tracer.uninstall()
    assert (scalars.Padic.__dict__["from_unit"], operators.NormalForm.mul, padicops.normalize) == before


def test_certify_oracle_uses_legendre():
    table = "n\tnorm_exponent\n" + "".join(f"{n}\t{intmath.legendre(n, 3)}\n" for n in range(1, 7))
    oracle.check_certify(table, 6, 3)
    with pytest.raises(oracle.Mismatch):
        oracle.check_certify(table.replace("6\t2", "6\t1"), 6, 3)


def test_host_clock_probes_during_a_call_and_takes_its_probes_out():
    with run.HostClock() as clock:
        result, error, took, scaled = clock.call(lambda: time.sleep(0.2) or "done")
    assert (result, error) == ("done", None)
    # a probe before, after and about every SAMPLE_EVERY_S in between
    assert len(clock.probes) >= 2 + 0.2 / run.SAMPLE_EVERY_S / 2
    # the handlers' time is taken out; a sleep ends at its deadline however
    # long they took, so what is left is 0.2 s less the probes during it
    during = sum(clock.probes[1:-1])
    assert 0.2 - 2 * during - 0.01 < took < 0.2 - 0.9 * during
    assert scaled == pytest.approx(took * run.PROBE_REFERENCE_S * len(clock.probes)
                                   / sum(clock.probes))


def test_result_line_shape(tmp_path):
    import subprocess

    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "calculus_cli",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
