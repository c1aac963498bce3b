"""Per-layer call counts and self times, gathered from outside padicops.

``Tracer.install()`` replaces the public functions and methods listed in
LAYERS by wrappers and ``uninstall()`` puts the originals back, so no file
under src/ changes.  A module-level function is replaced wherever a
padicops module holds a reference to it (``from .x import f`` copies the
name), so calls between layers go through the wrapper too.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the spans it directly contains, so scalar arithmetic (which
is only counted, not spanned) lands in the self time of the operator or
routine that asked for it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer (the padicops module) -> (attribute path, metric key, mode).  "span"
# records calls and self time, "count" only calls; attributes may share a key.
LAYERS = {
    "scalars": [
        ("Padic.__add__", "add", "count"),
        ("Padic.__mul__", "mul", "count"),
        ("Padic.__truediv__", "div", "count"),
        ("Padic.from_unit", "from_unit", "count"),
        ("binomial_padic", "binomial", "count"),
    ],
    "operators": [
        ("NormalForm.mul", "nf_mul", "span"),
        ("NormalForm.add", "nf_add", "span"),
        ("normalize", "normalize", "span"),
        ("NormalForm.norm", "nf_norm", "span"),
        ("NormalForm.vanishes_to", "nf_vanishes_to", "span"),
        ("op_apply", "op_apply", "span"),
        ("NormalForm.scale", "other", "span"),
        ("NormalForm.divide_entries", "other", "span"),
        ("NormalForm.to_operator", "other", "span"),
        ("NormalForm.column", "other", "span"),
        ("op_norm", "other", "span"),
        ("op_agree", "other", "span"),
        ("is_compact", "other", "span"),
        ("truncate", "other", "span"),
        ("nf_polynomial", "other", "span"),
    ],
    "idempotents": [
        ("idempotent_refine", "refine", "span"),
        ("idempotent_lift", "lift", "span"),
        ("idempotent_equivalence", "equiv", "span"),
        ("idempotent_split", "split", "span"),
        ("k0_trivialize", "other", "span"),
        ("finite_rank_reduce", "other", "span"),
        ("column_projection", "other", "span"),
        ("matrix_rank", "other", "span"),
        ("infinite_sum", "other", "span"),
        ("sum_ring_generators", "other", "span"),
    ],
    "scale": [
        ("determinant", "determinant", "span"),
        ("willis_scale_finite", "willis", "span"),
    ],
    "calculus": [
        ("certify_normal_contraction", "certify", "span"),
        ("functional_calculus", "apply", "span"),
        ("teichmuller_idempotent", "teich", "span"),
        ("binomial_series", "fz", "span"),
    ],
    "mahler": [
        ("mahler_expand", "expand", "span"),
        ("mahler_eval", "eval", "span"),
    ],
    "io": [
        ("operator_from_obj", "parse", "span"),
        ("mahler_from_obj", "parse", "span"),
        ("scalar_from_text", "parse", "span"),
        ("operator_to_obj", "emit", "span"),
        ("mahler_to_obj", "emit", "span"),
        ("scalar_to_text", "emit", "span"),
        ("tsv_table", "emit", "span"),
    ],
    "cli": [
        ("main", "main", "span"),
    ],
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, key: str, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[key] += took - children[0]
                if stack:
                    stack[-1][0] += took

        return wrapper

    def _count(self, key: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"padicops.{layer}")
        modules = [m for name, m in sys.modules.items()
                   if name == "padicops" or name.startswith("padicops.")]
        for layer, entries in LAYERS.items():
            for path, key, mode in entries:
                wrap = self._span if mode == "span" else self._count
                full = f"{layer}.{key}"
                owner = sys.modules[f"padicops.{layer}"]
                *outer, name = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if outer:
                    raw = owner.__dict__[name]
                    if isinstance(raw, classmethod):
                        self._set(owner, name, classmethod(wrap(full, raw.__func__)))
                    else:
                        self._set(owner, name, wrap(full, raw))
                    continue
                original = getattr(owner, name)
                wrapped = wrap(full, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))
