"""Layer microbenchmarks on fixed inputs (the same for every seed).

Each one times a batch of calls sized to take about 20 ms, repeats the
batch, and reports the median time per call.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import workloads
from intmath import encode

REPEATS = 5
BATCH_S = 0.02


def per_call(fn, repeats: int = REPEATS) -> float:
    """Median seconds per call of fn()."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    loops = max(1, int(BATCH_S / max(once, 1e-7)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops)
    return statistics.median(samples)


def _dense(rng: random.Random, n: int, p: int, precision: int):
    from padicops import FiniteMatrix, Padic

    return FiniteMatrix(p, {(i, j): Padic.from_int(rng.randrange(1, p ** precision), p, precision)
                            for i in range(n) for j in range(n)})


def run(workdir: str) -> dict[str, tuple[float, str]]:
    import padicops as lib

    p, prec, target = workloads.P, workloads.PRECISION, workloads.TARGET
    rng = random.Random("micro")
    out: dict[str, tuple[float, str]] = {}

    for width in (40, 200):
        x = lib.Padic.from_int(rng.randrange(1, p ** width) * p + 1, p, width)
        y = lib.Padic.from_int(rng.randrange(1, p ** width) * p + 2, p, width)
        for name, op in (("add", x.__add__), ("mul", x.__mul__), ("div", x.__truediv__)):
            out[f"scalars.{name}_ns.p{width}"] = (per_call(lambda op=op: op(y)) * 1e9, "ns")

    a = lib.normalize(_dense(rng, 8, p, prec))
    b = lib.normalize(_dense(rng, 8, p, prec))
    out["operators.nf_mul_dense8_us"] = (per_call(lambda: a.mul(b)) * 1e6, "us")
    gens = lib.sum_ring_generators(p)
    head = _dense(rng, 4, p, prec)
    left = lib.normalize(lib.Sum([gens.up, head]))
    right = lib.normalize(lib.Sum([gens.down, head]))
    out["operators.nf_mul_tail_us"] = (per_call(lambda: left.mul(right)) * 1e6, "us")

    rows6 = [[lib.Padic.from_int(rng.randrange(1, p ** prec), p, prec) for _ in range(6)]
             for _ in range(6)]
    out["scale.det6_us"] = (per_call(lambda: lib.determinant(rows6, p)) * 1e6, "us")
    window, _ = workloads.scale_window(rng, 6, 0)
    w6 = workloads.finite_matrix(window)
    out["scale.willis6_ms"] = (per_call(lambda: lib.willis_scale_finite(w6, 6)) * 1e3, "ms")

    e5 = workloads.conjugated_idempotent(rng, 5, 2)
    a5 = workloads.finite_matrix(workloads.perturbed(rng, rng, e5, 3))
    out["idempotents.refine5_ms"] = (per_call(lambda: lib.idempotent_refine(a5, target)) * 1e3, "ms")
    e8 = workloads.conjugated_idempotent(rng, 8, 2)
    a8 = workloads.finite_matrix(workloads.perturbed(rng, rng, e8, 2))
    out["idempotents.lift8_ms"] = (
        per_call(lambda: lib.idempotent_lift(a8, target=target, budget=64)) * 1e3, "ms")
    e4 = workloads.conjugated_idempotent(rng, 4, 2)
    e4_op = workloads.finite_matrix(e4)
    f4 = lib.idempotent_refine(workloads.finite_matrix(workloads.perturbed(rng, rng, e4, 2)), target)
    out["idempotents.equiv4_ms"] = (
        per_call(lambda: lib.idempotent_equivalence(e4_op, f4, target)) * 1e3, "ms")

    text = json.dumps(lib.operator_to_obj(_dense(rng, 8, p, prec), prec))
    out["io.parse8_us"] = (per_call(lambda: lib.operator_from_json(text)) * 1e6, "us")

    path = os.path.join(workdir, "one_coefficient.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"p": p, "precision": prec, "kind": "mahler",
                   "coefficients": [encode(7, p, prec)], "tail_exponent": None}, fh)
    argv = ["mahler", "eval", "--in", path, "--x", "3^0*1"]
    code, printed = workloads.call_cli(argv)
    if code != 0 or printed.strip() != encode(7, p, prec):
        raise RuntimeError(f"small CLI leaf printed {printed!r} with exit code {code}")
    out["cli.small_leaf_ms"] = (per_call(lambda: workloads.call_cli(argv)) * 1e3, "ms")
    return out
