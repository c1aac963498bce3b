"""Command-line front end.

Plain values print as single lines, structured results as JSON with an
indent of 2, traces as TSV with a header row.  Exit codes: 0 success, 1
failed verify suite, 2 precondition or certification failure, 3 an
iteration that ran out of steps or digits, 4 parse or input error (an
input or config file that is not UTF-8 included).

A call costs what its leaf's arithmetic costs.  When the first two words
of argv name a leaf, ``main`` parses the rest with that leaf's own
parser, which gives the namespace the whole parser tree would; anything
else, ``--help`` and malformed argv included, goes through the tree.
JSON is laid out by ``_json``, which writes the bytes of
``json.dumps(obj, indent=2)`` without the pure-Python encoder that an
indent selects.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .calculus import (binomial_series, certify_normal_contraction,
                       functional_calculus, teichmuller_idempotent)
from .config import load_config
from .errors import (CertificationFailed, DivisionByZero, NoConvergence,
                     NonIntegral, ParseError, PrecisionExhausted,
                     PreconditionFailed, StructureError, Undecidable)
from .idempotents import (idempotent_equivalence, idempotent_lift,
                          idempotent_refine, idempotent_split, infinite_sum,
                          k0_trivialize)
from .io import (exponent_str, file_header, mahler_from_obj, mahler_to_obj,
                 operator_from_obj, operator_to_obj, scalar_from_text,
                 scalar_to_text, tsv_table)
from .mahler import mahler_eval, mahler_expand
from .operators import normalize, op_norm, truncate
from .scale import scale_minor_probe, willis_scale_finite
from .scalars import ValuationBound
from .verify import run_all

_PRECONDITION_ERRORS = (PreconditionFailed, CertificationFailed, NonIntegral,
                        DivisionByZero, Undecidable, StructureError)
_BUDGET_ERRORS = (NoConvergence, PrecisionExhausted)
# _json's text of a list item that is laid out on one line, by exact type
_ROW_ITEM = {int: int.__repr__, str: _quote}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are parse errors, not exit 2
        raise ParseError(message)


def _json(obj: Any, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys,
    lists, tuples and scalars.  Strings are escaped by the C encoder's
    encode_basestring_ascii and containers laid out here: an indent makes
    json.dumps fall back to its pure-Python encoder.  pad is a newline
    and the indent of the current level."""
    if isinstance(obj, str):
        return _quote(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + ",".join([f"{inner}{_quote(k)}: {_json(v, inner)}"
                               for k, v in obj.items()]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        try:  # every item an int or a str, as in an entries row: one join
            return "[" + inner + ("," + inner).join([_ROW_ITEM[type(x)](x) for x in obj]) + pad + "]"
        except KeyError:  # a container, a bool, a float or None among them
            return "[" + ",".join([inner + _json(x, inner) for x in obj]) + pad + "]"
    return json.dumps(obj)  # a scalar's text has no layout


def _emit(obj: Any, file=None) -> None:
    """Print obj as JSON with an indent of 2, to stdout by default."""
    print(_json(obj), file=file)


def _report(exc: BaseException) -> None:
    obj: dict[str, Any] = {"error": type(exc).__name__, "message": str(exc)}
    for key in ("depth", "iterations"):
        value = getattr(exc, key, None)
        if value is not None:
            obj[key] = value
    _emit(obj, sys.stderr)


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _at_least(flag: str, value: int, low: int) -> int:
    """value, or a ParseError when a count flag is below its least value."""
    if value < low:
        raise ParseError(f"{flag} must be at least {low}, not {value}")
    return value


# -- mahler --------------------------------------------------------------


def _cmd_mahler_expand(args) -> int:
    obj = _read_json(args.infile)
    p, prec, tail = file_header(obj)
    texts = obj.get("samples", [])
    if not isinstance(texts, list):
        raise ParseError(f"{args.infile}: samples must be a list of scalar texts")
    samples = [scalar_from_text(t, p, prec) for t in texts]
    bound = None if tail is None else ValuationBound(tail)
    fn = mahler_expand(samples, bound, prime=p)
    _emit(mahler_to_obj(fn, p, prec))
    return 0


def _cmd_mahler_eval(args) -> int:
    obj = _read_json(args.infile)
    p, prec, _ = file_header(obj)
    fn = mahler_from_obj(obj)
    x = scalar_from_text(args.x, p, prec)
    print(scalar_to_text(mahler_eval(fn, x)))
    return 0


# -- calculus ------------------------------------------------------------


def _read_operator(path: str, target: int | None = None):
    """The operator in a file and the file's header precision, which
    must cover the target of a certified check when one is given.  An
    answer that holds no nonzero scalar is written at the header
    precision of its inputs (the largest, for two)."""
    obj = _read_json(path)
    _, prec, _ = file_header(obj)
    if target is not None and prec < target:
        raise ParseError(f"{path}: precision {prec} is below the target valuation {target}")
    return operator_from_obj(obj), prec


def _same_prime(first, second) -> None:
    """Raise ParseError unless two inputs share their prime."""
    if first.prime != second.prime:
        raise ParseError(f"inputs disagree on p: {first.prime} and {second.prime}")


def _finite_support(a, why: str):
    """The normal form of a, or PreconditionFailed when it has a shift or
    a tail; why says what the leaf cannot do with such an operator."""
    nf = normalize(a)
    if nf.tail is not None or not nf.shift.is_zero:
        raise PreconditionFailed(f"operator has infinite support; {why}")
    return nf


def _target(args) -> int:
    """--target, else the config file's target_valuation, else the default."""
    return load_config(args.config, target_valuation=args.target).target_valuation


def _cmd_calculus_certify(args) -> int:
    depth = _at_least("--depth", args.depth, 0)
    a, _ = _read_operator(args.infile)
    rows = [[n, exponent_str(bound)] for n, bound in certify_normal_contraction(a, depth)]
    sys.stdout.write(tsv_table(["n", "norm_exponent"], rows))
    return 0


def _cmd_calculus_apply(args) -> int:
    a, prec = _read_operator(args.infile)
    obj = _read_json(args.fn)
    fn = mahler_from_obj(obj)
    _same_prime(a, fn)
    result, error = functional_calculus(a, fn)
    _emit({"result": operator_to_obj(result, fallback=max(prec, obj["precision"])),
           "error_exponent": exponent_str(error)})
    return 0


def _cmd_calculus_teich(args) -> int:
    target = _target(args)
    depth = _at_least("--depth", args.depth, 0)
    a, prec = _read_operator(args.infile, target)
    # --depth only gates, and below p each n! is a unit, so ||binom(A, n)||
    # <= 1 follows from ||A|| <= 1, which teich checks itself (ROADMAP item 8)
    if depth >= a.prime:
        certify_normal_contraction(a, depth)
    e, trace = teichmuller_idempotent(a, target=target)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(tsv_table(["phase", "k", "defect_exponent"], trace))
    _emit({"e": operator_to_obj(e, fallback=prec), "iterations": len(trace)})
    return 0


def _cmd_calculus_fz(args) -> int:
    depth = _at_least("--depth", args.depth, 0)
    obj = _read_json(args.infile)
    p, prec, _ = file_header(obj)
    a = operator_from_obj(obj)
    z = scalar_from_text(args.z, p, prec)
    result, error = binomial_series(a, z, depth)
    _emit({"result": operator_to_obj(result, fallback=prec),
           "error_exponent": exponent_str(error)})
    return 0


# -- idempotents ---------------------------------------------------------


def _cmd_idem_refine(args) -> int:
    target = _target(args)
    a, prec = _read_operator(args.infile, target)
    e = idempotent_refine(a, target)
    distance = op_norm(a - e)
    _emit({"e": operator_to_obj(e, fallback=prec),
           "distance_exponent": exponent_str(distance)})
    return 0


def _cmd_idem_equiv(args) -> int:
    target = _target(args)
    e, prec_e = _read_operator(args.infile, target)
    f, prec_f = _read_operator(args.in2, target)
    _same_prime(e, f)
    witness = idempotent_equivalence(e, f, target)
    prec = max(prec_e, prec_f)
    _emit({"u": operator_to_obj(witness.u, fallback=prec),
           "u_inv": operator_to_obj(witness.u_inv, fallback=prec)})
    return 0


def _cmd_idem_split(args) -> int:
    target = _target(args)
    e, prec = _read_operator(args.infile, target)
    split = idempotent_split(e, target)
    _emit({"f": operator_to_obj(split.f, fallback=prec),
           "g": operator_to_obj(split.g, fallback=prec)})
    return 0


def _cmd_idem_lift(args) -> int:
    target = _target(args)
    a, prec = _read_operator(args.infile, target)
    e = idempotent_lift(a, target=target)
    _emit({"e": operator_to_obj(e, fallback=prec)})
    return 0


def _cmd_idem_trivialize(args) -> int:
    target = _target(args)
    prefix = _at_least("--prefix", args.prefix, 1)
    e, _ = _read_operator(args.infile, target)
    _emit(k0_trivialize(e, target, prefix))
    return 0


def _cmd_idem_sumring(args) -> int:
    depth = _at_least("--depth", args.depth, 0)
    a, prec = _read_operator(args.infile)
    _finite_support(a, "its spread is a lazy tree with no file form")
    spread = infinite_sum(a, depth)
    _emit(operator_to_obj(spread, fallback=prec))
    return 0


# -- scale ---------------------------------------------------------------


def _finite_dim(a) -> int:
    nf = _finite_support(a, "pass --dim")
    top = 0
    for i, j in nf.head:
        top = max(top, i + 1, j + 1)
    return max(top, 1)


def _cmd_scale_finite(args) -> int:
    a, _ = _read_operator(args.infile)
    dim = _at_least("--dim", args.dim, 0) if args.dim is not None else _finite_dim(a)
    print(willis_scale_finite(truncate(a, dim), dim))
    return 0


def _cmd_scale_probe(args) -> int:
    a, _ = _read_operator(args.infile)
    try:
        bounds = [int(part) for part in args.bounds.split(",") if part]
    except ValueError as exc:
        raise ParseError(f"bad --bounds list: {args.bounds!r}") from exc
    bounds = [_at_least("--bounds", k, 0) for k in bounds]
    rows = [[k, value.exponent] for k, value in scale_minor_probe(a, bounds)]
    sys.stdout.write(tsv_table(["k", "scale_exponent"], rows))
    return 0


# -- verify --------------------------------------------------------------


def _cmd_verify_all(args) -> int:
    cfg = load_config(args.config, prime=args.p, precision=args.precision,
                      target_valuation=args.target, seed=args.seed)
    # its instances are built at cfg.precision and certified to the target
    if cfg.precision < cfg.target_valuation:
        raise ParseError("precision must cover the target valuation")
    results = run_all(cfg)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


# -- wiring --------------------------------------------------------------


@functools.cache
def _build_parser() -> tuple[_Parser, dict[tuple[str, str], _Parser]]:
    """The argparse tree and its leaf table {(group, name): the leaf's
    parser}, built once per process: parsing leaves them as they were,
    and building them costs more than a small leaf's work."""
    # Input files declare their own p and precision, so only the leaves
    # that make certified checks take a target, and only verify all
    # takes p, precision and seed.
    reads_file = _Parser(add_help=False)
    reads_file.add_argument("--in", dest="infile", required=True, metavar="FILE")
    targeted = _Parser(add_help=False)
    targeted.add_argument("--target", type=int, default=None,
                          help="target valuation for certified checks")
    targeted.add_argument("--config", default=None, help="JSON config file")
    certifies = [reads_file, targeted]

    parser = _Parser(prog="padicops")
    groups = parser.add_subparsers(dest="group", required=True)
    actions: dict[str, Any] = {}
    leaves: dict[tuple[str, str], _Parser] = {}

    def leaf(group, name, handler, parents, options=None):
        if group not in actions:
            actions[group] = groups.add_parser(group).add_subparsers(dest="action", required=True)
        # no abbreviations: --p must not silently mean trivialize's --prefix
        sub = actions[group].add_parser(name, parents=parents, allow_abbrev=False)
        sub.set_defaults(handler=handler)
        for flag, kwargs in (options or {}).items():
            sub.add_argument(flag, **kwargs)
        leaves[(group, name)] = sub

    leaf("mahler", "expand", _cmd_mahler_expand, [reads_file])
    leaf("mahler", "eval", _cmd_mahler_eval, [reads_file],
         {"--x": dict(required=True, help="scalar text, e.g. 3^0*12")})

    leaf("calculus", "certify", _cmd_calculus_certify, [reads_file],
         {"--depth": dict(type=int, required=True)})
    leaf("calculus", "apply", _cmd_calculus_apply, [reads_file],
         {"--fn": dict(required=True, metavar="FILE")})
    leaf("calculus", "teich-idem", _cmd_calculus_teich, certifies,
         {"--depth": dict(type=int, default=1),
            "--trace": dict(default=None, metavar="FILE", help="write TSV trace")})
    leaf("calculus", "fz", _cmd_calculus_fz, [reads_file],
         {"--z": dict(required=True, help="scalar text for the base point"),
            "--depth": dict(type=int, default=12)})

    leaf("idem", "refine", _cmd_idem_refine, certifies)
    leaf("idem", "equiv", _cmd_idem_equiv, certifies,
         {"--in2": dict(dest="in2", required=True, metavar="FILE")})
    leaf("idem", "split", _cmd_idem_split, certifies)
    leaf("idem", "lift", _cmd_idem_lift, certifies)
    leaf("idem", "trivialize", _cmd_idem_trivialize, certifies,
         {"--prefix": dict(type=int, default=16)})
    leaf("idem", "sumring", _cmd_idem_sumring, [reads_file],
         {"--depth": dict(type=int, required=True)})

    leaf("scale", "finite", _cmd_scale_finite, [reads_file],
         {"--dim": dict(type=int, default=None)})
    leaf("scale", "probe", _cmd_scale_probe, [reads_file],
         {"--bounds": dict(required=True, help="comma-separated sizes")})

    leaf("verify", "all", _cmd_verify_all, [targeted],
         {"--p": dict(type=int, default=None, help="prime"),
            "--precision": dict(type=int, default=None),
            "--seed": dict(type=int, default=None)})

    return parser, leaves


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        tree, leaves = _build_parser()
        sub = leaves.get(tuple(argv[:2]))
        if sub is None or "-h" in argv or "--help" in argv:
            args = tree.parse_args(argv)
        else:
            args = sub.parse_args(argv[2:], argparse.Namespace(group=argv[0], action=argv[1]))
        return args.handler(args)
    except ParseError as exc:
        _report(exc)
        return 4
    except OSError as exc:
        _report(exc)
        return 4
    except _BUDGET_ERRORS as exc:
        _report(exc)
        return 3
    except _PRECONDITION_ERRORS as exc:
        _report(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
