import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicops import cli
from padicops.cli import _build_parser, main
from padicops.errors import PreconditionFailed
from padicops.io import operator_from_obj, operator_to_obj, scalar_to_text
from padicops.operators import (Diagonal, FiniteMatrix, Identity, IndexMap,
                                NormalForm, Product, Sum, op_agree)
from padicops.residues import Window
from padicops.scalars import Padic


@pytest.fixture
def opfile(tmp_path):
    count = [0]

    def write(op, precision=None):
        count[0] += 1
        path = tmp_path / f"op{count[0]}.json"
        path.write_text(json.dumps(operator_to_obj(op, precision)))
        return str(path)

    return write


def diag(p, values):
    return Diagonal(p, {i: Padic.from_int(v, p) for i, v in enumerate(values)})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scale_finite_prints_plain_exponent(capsys, opfile):
    third = Padic.one(3) / Padic.from_int(3, 3)
    path = opfile(Diagonal(3, {0: third, 1: Padic.from_int(3, 3), 2: Padic.one(3)}))
    code, out, err = run(capsys, "scale", "finite", "--in", path)
    assert code == 0 and err == ""
    assert out == "p^1\n"


def near_idempotent(precision):
    """Diagonal(3, {0: 1 + 3^3, 1: 3^3}) at the given precision."""
    return Diagonal(3, {0: Padic.from_int(28, 3, precision),
                        1: Padic.from_int(27, 3, precision)})


# every leaf that takes an input file, with its required flags
FILE_LEAVES = {
    ("mahler", "expand"): (), ("mahler", "eval"): ("--x", "0"),
    ("calculus", "certify"): ("--depth", "1"), ("calculus", "apply"): ("--fn", "f.json"),
    ("calculus", "teich-idem"): (), ("calculus", "fz"): ("--z", "0"),
    ("idem", "refine"): (), ("idem", "equiv"): ("--in2", "f.json"),
    ("idem", "split"): (), ("idem", "lift"): (), ("idem", "trivialize"): (),
    ("idem", "sumring"): ("--depth", "1"),
    ("scale", "finite"): (), ("scale", "probe"): ("--bounds", "1"),
}
TARGET_LEAVES = {("calculus", "teich-idem"), ("idem", "refine"), ("idem", "equiv"),
                 ("idem", "split"), ("idem", "lift"), ("idem", "trivialize")}


def test_scale_finite_global_flags_after_action(capsys, opfile):
    # --target given after the action reaches the leaf: the default target
    # 30 is beyond this precision-20 file, target 20 is not
    path = opfile(near_idempotent(20), 20)
    code, _, err = run(capsys, "idem", "refine", "--in", path)
    assert code == 4 and json.loads(err)["error"] == "ParseError"
    code, out, _ = run(capsys, "idem", "refine", "--in", path, "--target", "20")
    assert code == 0
    assert op_agree(operator_from_obj(json.loads(out)["e"]),
                    FiniteMatrix(3, {(0, 0): Padic.one(3)}), 20)
    # input files declare p and precision, so no file leaf takes them,
    # and only the leaves that certify to a target take --target/--config
    for leaf, required in FILE_LEAVES.items():
        refused = ["--p", "--precision", "--seed"]
        if leaf not in TARGET_LEAVES:
            refused += ["--target", "--config"]
        for flag in refused:
            code, _, err = run(capsys, *leaf, "--in", path, *required, flag, "3")
            assert code == 4, (leaf, flag)
            assert f"unrecognized arguments: {flag} 3" in json.loads(err)["message"]


def test_scale_probe_tsv(capsys, opfile):
    path = opfile(Identity(3))
    code, out, _ = run(capsys, "scale", "probe", "--in", path, "--bounds", "1,2")
    assert code == 0
    assert out == "k\tscale_exponent\n1\t0\n2\t0\n"


def test_scale_finite_needs_small_window(capsys, opfile):
    # an 11x11 window is answered, not refused
    path = opfile(FiniteMatrix(3, {(10, 10): Padic.one(3)}))
    code, out, _ = run(capsys, "scale", "finite", "--in", path)
    assert code == 0
    assert out == "p^0\n"
    path = opfile(Identity(3))
    code, _, err = run(capsys, "scale", "finite", "--in", path)
    assert code == 2
    assert json.loads(err)["error"] == "PreconditionFailed"


def test_mahler_expand_and_eval(capsys, tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({
        "p": 3, "precision": 40,
        "samples": [scalar_to_text(Padic.from_int(n * n, 3)) for n in range(5)],
    }))
    code, out, _ = run(capsys, "mahler", "expand", "--in", str(samples))
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"] == ["0", "3^0*1", "3^0*2", "0", "0"]
    assert obj["tail_exponent"] is None
    fnfile = tmp_path / "fn.json"
    fnfile.write_text(out)
    code, out, _ = run(capsys, "mahler", "eval", "--in", str(fnfile), "--x", "3^0*21")
    assert code == 0
    assert out == "3^0*122\n"  # f(5) = 25


def test_calculus_certify_tsv(capsys, opfile):
    path = opfile(diag(3, [28, 27]))
    code, out, _ = run(capsys, "calculus", "certify", "--in", path, "--depth", "6")
    assert code == 0
    assert out == ("n\tnorm_exponent\n"
                   "1\t0\n2\t3\n3\t3\n4\t3\n5\t4\n6\t4\n")


def test_calculus_certify_makes_one_product_per_step_past_the_first(capsys, opfile, monkeypatch):
    """certify --depth D forms F_2, ..., F_D by one window product each:
    F_1 is A's window itself, so D - 1 products for D >= 1, none for 0."""
    calls = []

    def mul(self, other, *args, _mul=Window.mul, **kwargs):
        calls.append(1)
        return _mul(self, other, *args, **kwargs)

    monkeypatch.setattr(Window, "mul", mul)
    # a diagonal and 1 + e_01 at p = 5, whose walk holds to n = 4
    for a in (diag(3, [28, 27]), FiniteMatrix(5, {(0, 0): Padic.one(5), (0, 1): Padic.one(5),
                                                 (1, 1): Padic.one(5)})):
        path = opfile(a)
        for depth in range(5):
            calls.clear()
            code, out, _ = run(capsys, "calculus", "certify", "--in", path, "--depth", str(depth))
            assert code == 0 and len(out.splitlines()) == depth + 1
            assert len(calls) == max(depth - 1, 0), depth


def test_undecodable_input_files_exit_4(capsys, tmp_path, opfile):
    """A --in or --fn file that is not UTF-8 is a parse error that names
    the file, not a traceback."""
    raw = tmp_path / "raw.json"
    raw.write_bytes(b'{"p": 3, "precision": 40, "kind": "identity"}\xff')
    fnfile = tmp_path / "fn.json"
    fnfile.write_text(json.dumps({"p": 3, "precision": 40, "coefficients": ["0"],
                                  "tail_exponent": None}))
    for argv in (("calculus", "certify", "--in", str(raw), "--depth", "1"),
                 ("calculus", "apply", "--in", str(raw), "--fn", str(fnfile)),
                 ("calculus", "apply", "--in", opfile(Identity(3)), "--fn", str(raw))):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == "", argv
        report = json.loads(err)
        assert report["error"] == "ParseError" and str(raw) in report["message"]


def test_calculus_certify_runs_out_of_digits(capsys, opfile):
    # diag(1, 3) at p = 2 and precision 40: v_2(44!) = 41 is past the
    # window's 40 digits, so step 44 can be neither certified nor refused
    path = opfile(diag(2, [1, 3]))
    code, out, err = run(capsys, "calculus", "certify", "--in", path, "--depth", "50")
    assert code == 3 and out == ""
    report = json.loads(err)
    assert report["error"] == "PrecisionExhausted" and "step 44" in report["message"]


def test_calculus_apply(capsys, opfile, tmp_path):
    fnfile = tmp_path / "fn.json"
    fnfile.write_text(json.dumps({
        "p": 3, "precision": 40,
        "coefficients": ["0", "3^0*1", "3^0*2"],
        "tail_exponent": None,
    }))
    path = opfile(diag(3, [2, 4]))
    code, out, _ = run(capsys, "calculus", "apply", "--in", path, "--fn", str(fnfile))
    assert code == 0
    obj = json.loads(out)
    assert obj["error_exponent"] == "inf"
    result = operator_from_obj(obj["result"])
    assert op_agree(result, diag(3, [4, 16]), 30)
    # the certificate depth is the series length, so no flag sets it
    code, _, err = run(capsys, "calculus", "apply", "--in", path, "--fn", str(fnfile),
                       "--depth", "3")
    assert code == 4
    assert "unrecognized arguments: --depth 3" in json.loads(err)["message"]


def test_calculus_apply_and_fz_form_each_product_once(capsys, opfile, tmp_path, monkeypatch):
    # the walk certifies the terms it sums, so neither leaf runs a separate
    # certificate: apply forms binom(A, n) for n = 1..M, fz binom(A - 1, n)
    # for n = 1..depth, and no form product.  F_1 is the window itself, so
    # each makes one window product for n = 2..M
    def refused(*args):
        raise AssertionError("certify_normal_contraction called")

    def no_form_product(*args, **kwargs):
        raise AssertionError("NormalForm.mul called")

    calls = []
    mul = Window.mul

    def counted(self, other, *args, **kwargs):
        calls.append(1)
        return mul(self, other, *args, **kwargs)

    monkeypatch.setattr(NormalForm, "mul", no_form_product)
    monkeypatch.setattr(Window, "mul", counted)
    monkeypatch.setattr(cli, "certify_normal_contraction", refused)
    fnfile = tmp_path / "fn.json"
    fnfile.write_text(json.dumps({"p": 5, "precision": 40, "tail_exponent": None,
                                  "coefficients": ["0", "5^0*1", "5^0*2", "0", "0"]}))
    # A = 1 + e_01 at p = 5: binom(A, n) has norm 1 for n <= 4 and 5 at n = 5
    block = opfile(FiniteMatrix(5, {(0, 0): Padic.one(5), (0, 1): Padic.one(5),
                                    (1, 1): Padic.one(5)}))
    code, out, _ = run(capsys, "calculus", "apply", "--in", block, "--fn", str(fnfile))
    assert code == 0 and len(calls) == 3
    assert op_agree(operator_from_obj(json.loads(out)["result"]),
                    FiniteMatrix(5, {(0, 0): Padic.one(5), (0, 1): Padic.from_int(2, 5),
                                     (1, 1): Padic.one(5)}), 30)
    calls.clear()
    code, _, _ = run(capsys, "calculus", "fz", "--in", block, "--z", "5^1*1", "--depth", "4")
    assert code == 0 and len(calls) == 3
    # one more term is binom(A, 5), which the walk refuses where it forms it
    code, _, err = run(capsys, "calculus", "fz", "--in", block, "--z", "5^1*1", "--depth", "5")
    assert code == 2
    report = json.loads(err)
    assert report["error"] == "CertificationFailed" and report["depth"] == 5


def test_calculus_fz_depth_and_error(capsys, opfile):
    path = opfile(diag(3, [1, 4]))
    code, out, _ = run(capsys, "calculus", "fz", "--in", path, "--z", "3^1*1",
                       "--depth", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["error_exponent"] == "9"
    assert obj["result"]["p"] == 3
    # the bound needs ||A|| <= 1, so depth 0 still certifies step 1: the
    # n = 1 term of diag(3^-2) alone has norm 3
    path = opfile(Diagonal(3, {0: Padic.one(3) / Padic.from_int(9, 3)}))
    code, out, err = run(capsys, "calculus", "fz", "--in", path, "--z", "3^1*1", "--depth", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "CertificationFailed"
    path = opfile(FiniteMatrix(3, {(0, 0): Padic.one(3), (0, 1): Padic.one(3)}))
    code, out, _ = run(capsys, "calculus", "fz", "--in", path, "--z", "3^1*1", "--depth", "0")
    assert code == 0
    assert json.loads(out)["error_exponent"] == "1"


def test_calculus_fz_reads_z_at_the_file_precision(capsys, tmp_path):
    # an operator with no nonzero scalar carries no precision of its own,
    # so only the header can say that a 60-digit z fits: A reads at 80,
    # and 1 - z + ..., its 1 exact, is known to v(z) + 80 = 81
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"p": 3, "precision": 80, "kind": "finite", "entries": []}))
    code, out, err = run(capsys, "calculus", "fz", "--in", str(path),
                         "--z", "3^1*" + "1" * 60, "--depth", "4")
    assert code == 0, err
    assert json.loads(out)["result"]["precision"] == 81


def test_calculus_teich_trace(capsys, opfile, tmp_path):
    path = opfile(diag(5, [7, 5]))
    tracefile = tmp_path / "trace.tsv"
    code, out, _ = run(capsys, "calculus", "teich-idem", "--in", path,
                       "--target", "12", "--trace", str(tracefile))
    assert code == 0
    obj = json.loads(out)
    assert obj["iterations"] >= 2
    lines = tracefile.read_text().splitlines()
    # one row per evaluation of P(A^(p^k)), then one per refinement step
    assert lines[0] == "phase\tk\tdefect_exponent"
    assert len(lines) == obj["iterations"] + 1
    assert lines[1].startswith("1\t0\t")
    assert all(line.startswith("2\t") for line in lines[2:])
    e = operator_from_obj(obj["e"])
    # value 7 is a unit, value 5 and the zero default are topologically nilpotent
    want = Diagonal(5, {0: Padic.zero(5)}, Padic.one(5))
    assert op_agree(e, want, 12)
    # --depth 0 runs no certificate: teich checks ||A|| <= 1 itself
    code, out, _ = run(capsys, "calculus", "teich-idem", "--in", path, "--target", "12",
                       "--depth", "0")
    assert code == 0
    assert op_agree(operator_from_obj(json.loads(out)["e"]), want, 12)
    path = opfile(Diagonal(5, {0: Padic.one(5) / Padic.from_int(5, 5)}))
    code, out, err = run(capsys, "calculus", "teich-idem", "--in", path, "--depth", "0")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "CertificationFailed" and report["depth"] == 1


def test_calculus_teich_multiplies_one_by_one_blocks(capsys, opfile, monkeypatch):
    """The leaf as the benchmark runs it, --depth 2, on a 12-entry
    diagonal at p = 5: no falling product, as the --depth gate runs only
    from depth p on; phase 1's A^2 and A^4 and the defect of
    x = 1 - A^4, and six refinement steps, the defect's valuation running
    1, 2, 4, 8, 16, 32, each step one product and each defect after it
    one more, but the sixth, which vanishes mod 5^40 as 2 * 32 >= 40 and
    a step sends d to d^2(4d - 3), is not formed: 14 in all, each on
    twelve 1 x 1 blocks."""
    p = 5
    values = [7, 5, 3, 25, 1, 2, 10, 4, 6, 50, 8, 9]
    path = opfile(Diagonal(p, {i: Padic.from_int(v, p) for i, v in enumerate(values)}))
    spans = []

    def mul(self, other, *args, _mul=Window.mul, **kwargs):
        spans.append(self.spans)
        return _mul(self, other, *args, **kwargs)

    monkeypatch.setattr(Window, "mul", mul)
    code, out, _ = run(capsys, "calculus", "teich-idem", "--in", path, "--depth", "2")
    assert code == 0
    assert len(spans) == 14
    assert set(spans) == {tuple((i, i + 1) for i in range(12))}
    e = operator_from_obj(json.loads(out)["e"])
    nilpotent = {i: Padic.zero(p) for i, v in enumerate(values) if v % p}
    assert op_agree(e, Diagonal(p, nilpotent, Padic.one(p)), 30)
    assert op_agree(Product([e, e]), e, 40)


def test_calculus_teich_depth_gate_refuses_from_depth_p(capsys, opfile):
    """At p = 2, --depth 2 reaches p, so the gate runs: A = [[0, 1], [0, 0]]
    has ||A|| = 1 but binom(A, 2) = -A/2 of norm 2, and teich alone would
    answer (A mod 2 is nilpotent)."""
    path = opfile(FiniteMatrix(2, {(0, 1): Padic.one(2)}))
    code, out, _ = run(capsys, "calculus", "teich-idem", "--in", path, "--depth", "1")
    assert code == 0
    code, out, err = run(capsys, "calculus", "teich-idem", "--in", path, "--depth", "2")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "CertificationFailed" and report["depth"] == 2
    assert report["message"].startswith("step 2:")


def test_calculus_teich_jordan_block(capsys, opfile, tmp_path):
    # a Jordan block needs a second evaluation, P(A^3), before refining
    path = opfile(FiniteMatrix(3, {(0, 0): Padic.one(3), (0, 1): Padic.one(3),
                                   (1, 1): Padic.one(3)}))
    tracefile = tmp_path / "trace.tsv"
    code, _, _ = run(capsys, "calculus", "teich-idem", "--in", path, "--trace", str(tracefile))
    assert code == 0
    assert [line[:4] for line in tracefile.read_text().splitlines()[1:3]] == ["1\t0\t", "1\t1\t"]
    # the window caps phase 1, so no flag sets it
    code, _, err = run(capsys, "calculus", "teich-idem", "--in", path, "--budget", "2")
    assert code == 4
    assert "unrecognized arguments: --budget 2" in json.loads(err)["message"]
    # eigenvalues outside F_3 are a precondition failure after the capped
    # phase 1, not an exhausted budget
    path = opfile(FiniteMatrix(3, {(0, 1): Padic.from_int(2, 3), (1, 0): Padic.one(3)}))
    code, out, err = run(capsys, "calculus", "teich-idem", "--in", path)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "PreconditionFailed"
    assert "eigenvalue outside F_p" in report["message"]


def test_idem_refine_example(capsys, opfile):
    path = opfile(diag(3, [28, 27]))
    code, out, _ = run(capsys, "idem", "refine", "--in", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["distance_exponent"] == "3"
    e = operator_from_obj(obj["e"])
    assert op_agree(e, FiniteMatrix(3, {(0, 0): Padic.one(3)}), 30)
    # refinement takes its step count from the target, so no flag sets it
    code, _, err = run(capsys, "idem", "refine", "--in", path, "--budget", "8")
    assert code == 4
    assert "unrecognized arguments: --budget 8" in json.loads(err)["message"]


def test_idem_refine_is_deterministic(capsys, opfile):
    path = opfile(diag(3, [28, 27]))
    _, first, _ = run(capsys, "idem", "refine", "--in", path)
    _, second, _ = run(capsys, "idem", "refine", "--in", path)
    assert first == second


def test_idem_refine_precondition(capsys, opfile):
    path = opfile(diag(3, [2]))
    code, _, err = run(capsys, "idem", "refine", "--in", path)
    assert code == 2
    assert json.loads(err)["error"] == "PreconditionFailed"


def test_idem_refine_certifies_to_the_least_precision(capsys, opfile):
    """A precision-30 file whose (0, 0) entry is a sum of two 3^-5 terms
    holds 28 known to 25 absolute digits.  At target 20 every entry of e
    is certified to 25; target 30 ends in NoConvergence, exit code 3.
    (The tracked refinement answered target 30 with exit code 0: the
    defect's zeros certified only to 25 were dropped from the head and
    read as exact, hole A of ROADMAP item 2.)"""
    p = 3
    twenty_eight = Sum([FiniteMatrix(p, {(0, 0): Padic(p, -5, 1, 30)}),
                        FiniteMatrix(p, {(0, 0): Padic(p, -5, 28 * 3**5 - 1, 30),
                                         (1, 1): Padic.from_int(27, p, 30)})])
    path = opfile(twenty_eight, 30)
    code, out, _ = run(capsys, "idem", "refine", "--in", path, "--target", "20")
    assert code == 0
    e = json.loads(out)["e"]
    assert e["precision"] == 25 and e["entries"] == [[0, 0, "3^0*1"]]
    code, out, err = run(capsys, "idem", "refine", "--in", path, "--target", "30")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "NoConvergence"


def test_idem_refine_exit_codes_above_norm_one(capsys, opfile, monkeypatch):
    """[[1, 1/3], [0, 0]] at precision 30: the file's header covers target
    30, but its 1/3 is known to 29 absolute digits, so refinement ends in
    NoConvergence, exit code 3, and target 20 is met.  A structured
    tail, which no file kind holds, has no residue window: StructureError,
    exit code 2."""
    p = 3
    a = FiniteMatrix(p, {(0, 0): Padic.one(p, 30), (0, 1): Padic.from_fraction(Fraction(1, 3), p, 30)})
    path = opfile(a, 30)
    code, out, err = run(capsys, "idem", "refine", "--in", path, "--target", "30")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "NoConvergence"
    code, out, _ = run(capsys, "idem", "refine", "--in", path, "--target", "20")
    assert code == 0
    assert op_agree(operator_from_obj(json.loads(out)["e"]), a, 20)
    up = IndexMap(p, lambda j: j + 1, inv=lambda i: i - 1 if i else None, infinite_domain=True)
    monkeypatch.setattr(cli, "_read_operator", lambda path, target=None: (up, 30))
    code, out, err = run(capsys, "idem", "refine", "--in", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "StructureError"


def test_idem_equiv(capsys, opfile):
    e = FiniteMatrix(3, {(0, 0): Padic.one(3)})
    f = FiniteMatrix(3, {(0, 0): Padic.one(3), (0, 1): Padic.from_int(-9, 3)})
    pe, pf = opfile(e), opfile(f)
    code, out, _ = run(capsys, "idem", "equiv", "--in", pe, "--in2", pf)
    assert code == 0
    obj = json.loads(out)
    u = operator_from_obj(obj["u"])
    u_inv = operator_from_obj(obj["u_inv"])
    assert op_agree(u * e * u_inv, f, 30)


def test_idem_split(capsys, opfile):
    e = FiniteMatrix(3, {
        (0, 0): Padic.from_int(4, 3),
        (0, 1): Padic.from_fraction(Fraction(-1, 3), 3),
        (1, 0): Padic.from_int(36, 3),
        (1, 1): Padic.from_int(-3, 3),
    })
    code, out, _ = run(capsys, "idem", "split", "--in", opfile(e))
    assert code == 0
    obj = json.loads(out)
    f = operator_from_obj(obj["f"])
    g = operator_from_obj(obj["g"])
    assert op_agree(f + g, e, 30)


def test_an_empty_answer_takes_its_input_header(capsys, tmp_path):
    """An answer that holds no nonzero scalar is written at the header
    precision of its input file (the larger of two), not at the
    library's default of 40, as an answer that holds one is."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    empty = write("empty.json", {"p": 3, "precision": 80, "kind": "finite", "entries": []})
    one = write("one.json", {"p": 3, "precision": 80, "kind": "finite", "entries": [[0, 0, "3^0*1"]]})
    for leaf, keys in ((("idem", "refine"), ("e",)), (("idem", "split"), ("f", "g")),
                       (("idem", "lift"), ("e",))):
        for path in (empty, one):
            code, out, _ = run(capsys, *leaf, "--in", path, "--target", "60")
            obj = json.loads(out)
            assert code == 0 and [obj[k]["precision"] for k in keys] == [80] * len(keys)
    code, out, _ = run(capsys, "idem", "sumring", "--in", empty, "--depth", "2")
    assert code == 0 and json.loads(out)["precision"] == 80
    fn = write("fn.json", {"p": 3, "precision": 70, "kind": "mahler", "coefficients": [],
                           "tail_exponent": None})
    code, out, _ = run(capsys, "calculus", "apply", "--in", empty, "--fn", fn)
    assert code == 0 and json.loads(out)["result"]["precision"] == 80
    samples = write("samples.json", {"p": 3, "precision": 80, "samples": ["0", "0"]})
    code, out, _ = run(capsys, "mahler", "expand", "--in", samples)
    assert code == 0 and json.loads(out) == {
        "p": 3, "precision": 80, "kind": "mahler", "coefficients": [], "tail_exponent": None}


def test_idem_lift(capsys, opfile):
    path = opfile(Diagonal(3, {0: Padic.from_int(28, 3)}))
    code, out, _ = run(capsys, "idem", "lift", "--in", path)
    assert code == 0
    e = operator_from_obj(json.loads(out)["e"])
    assert op_agree(e * e, e, 30)
    # the lift searches nothing, so no flag sets a cap
    code, _, err = run(capsys, "idem", "lift", "--in", path, "--budget", "8")
    assert code == 4
    assert "unrecognized arguments: --budget 8" in json.loads(err)["message"]


def test_idem_lift_of_a_matrix_of_order_80(capsys, opfile):
    """The companion of x^4 + x + 2, irreducible mod 3, has order 80 mod 3;
    its lift is the identity on the window, found without a search."""
    rows = [[0, 0, 0, -2], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]
    path = opfile(FiniteMatrix(3, {(i, j): Padic.from_int(v, 3) for i, row in enumerate(rows)
                                   for j, v in enumerate(row) if v}))
    code, out, _ = run(capsys, "idem", "lift", "--in", path)
    assert code == 0
    window = FiniteMatrix(3, {(i, i): Padic.one(3) for i in range(4)})
    assert op_agree(operator_from_obj(json.loads(out)["e"]), window, 30)


def test_idem_trivialize_transcript(capsys, opfile):
    path = opfile(FiniteMatrix(3, {(0, 0): Padic.one(3)}))
    code, out, _ = run(capsys, "idem", "trivialize", "--in", path, "--prefix", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["zero_input"] is False
    assert obj["classes"] == {"finite_rank": 0, "contractive": 0}
    assert obj["contractive_part"]["spread_depth"] == 3
    assert all(obj["contractive_part"]["sum_ring_relations_on_prefix"].values())


def test_idem_sumring(capsys, opfile):
    path = opfile(FiniteMatrix(3, {(0, 0): Padic.one(3)}))
    code, out, _ = run(capsys, "idem", "sumring", "--in", path, "--depth", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "finite"
    assert obj["entries"] == [[0, 0, "3^0*1"], [1, 1, "3^0*1"]]
    # an identity, or a diagonal with a nonzero default, spreads into a lazy
    # tree with no file form: refused as a precondition, before any work
    for op in (Identity(3), Diagonal(3, {0: Padic.zero(3)}, Padic.one(3))):
        code, out, err = run(capsys, "idem", "sumring", "--in", opfile(op), "--depth", "1")
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["error"] == "PreconditionFailed"
        assert "no file form" in report["message"]


def test_parse_failures_exit_4(capsys, tmp_path, opfile):
    code, _, err = run(capsys, "scale", "finite", "--in", str(tmp_path / "nope.json"))
    assert code == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "scale", "finite", "--in", str(bad))
    assert code == 4
    assert json.loads(err)["error"] == "ParseError"
    # argparse problems are parse errors too
    code, _, err = run(capsys, "scale", "finite")
    assert code == 4
    code, _, err = run(capsys, "scale", "warp", "--in", opfile(Identity(3)))
    assert code == 4
    # malformed headers are parse errors, whichever leaf reads them
    header = tmp_path / "header.json"
    for p, precision in (("three", 40), ([3], 40), (None, 40), (3.7, 40), (3.0, 40),
                         (True, 40), (3, 40.9), (3, True), (3, "40")):
        header.write_text(json.dumps({"p": p, "precision": precision, "kind": "identity"}))
        code, _, err = run(capsys, "scale", "finite", "--in", str(header))
        assert code == 4
        assert json.loads(err)["error"] == "ParseError"
    # a composite p in a file is refused as --p 4 is: 4 and 10^18 + 7
    for p in (4, 10**18 + 7):
        header.write_text(json.dumps({"p": p, "precision": 40, "kind": "finite",
                                      "entries": [[0, 0, f"{p}^-1*1"]]}))
        code, _, err = run(capsys, "scale", "finite", "--in", str(header), "--dim", "1")
        assert code == 4
        assert json.loads(err)["error"] == "ParseError"
    for tail in ("x", 1.5, True):
        header.write_text(json.dumps({"p": 3, "precision": 40, "tail_exponent": tail,
                                      "samples": ["0"], "coefficients": ["0"]}))
        for argv in (("mahler", "eval", "--in", str(header), "--x", "0"),
                     ("mahler", "expand", "--in", str(header))):
            code, _, err = run(capsys, *argv)
            assert code == 4
            assert json.loads(err)["error"] == "ParseError"
    # inputs that disagree with each other or with the leaf's flags
    fn5 = tmp_path / "fn5.json"
    fn5.write_text(json.dumps({"p": 5, "precision": 40, "coefficients": ["0"],
                               "tail_exponent": None}))
    e3 = opfile(FiniteMatrix(3, {(0, 0): Padic.one(3)}))
    e5 = opfile(FiniteMatrix(5, {(0, 0): Padic.one(5)}))
    for argv in (("idem", "equiv", "--in", e3, "--in2", e5),
                 ("calculus", "apply", "--in", e3, "--fn", str(fn5)),
                 ("idem", "trivialize", "--in", e3, "--prefix", "0"),
                 ("idem", "sumring", "--in", opfile(Identity(3)), "--depth", "-1"),
                 ("calculus", "fz", "--in", opfile(Identity(11)), "--z", "11^0*1..2")):
        code, _, err = run(capsys, *argv)
        assert code == 4, argv
        assert json.loads(err)["error"] == "ParseError"
    # negative depths and window sizes, targets below 1, and
    # samples that are not a list of scalar texts
    inv3 = opfile(FiniteMatrix(3, {(0, 0): Padic.one(3) / Padic.from_int(3, 3)}))
    for argv in (("calculus", "certify", "--in", e3, "--depth", "-2"),
                 ("calculus", "fz", "--in", e3, "--z", "0", "--depth", "-2"),
                 ("idem", "refine", "--in", e3, "--target", "-5"),
                 ("idem", "refine", "--in", e3, "--target", "0"),
                 ("verify", "all", "--target", "-3"),
                 ("scale", "finite", "--in", inv3, "--dim", "-1"),
                 ("scale", "probe", "--in", inv3, "--bounds=-1,2")):
        code, _, err = run(capsys, *argv)
        assert code == 4, argv
        assert json.loads(err)["error"] == "ParseError"
    for samples in (5, [5]):
        header.write_text(json.dumps({"p": 3, "precision": 40, "samples": samples}))
        code, _, err = run(capsys, "mahler", "expand", "--in", str(header))
        assert code == 4, samples
        assert json.loads(err)["error"] == "ParseError"
    # a scalar that is not text, in an operator or a Mahler file
    for body, argv in (({"kind": "finite", "entries": [[0, 0, 5]]}, ("scale", "finite")),
                       ({"coefficients": [5], "tail_exponent": None}, ("mahler", "eval", "--x", "0"))):
        header.write_text(json.dumps({"p": 3, "precision": 40, **body}))
        code, _, err = run(capsys, *argv, "--in", str(header))
        assert code == 4, body
        assert json.loads(err)["error"] == "ParseError"


def test_parser_is_built_once_and_reused(capsys, opfile):
    # a success, a parse error, then a success again: each in-process call
    # on the one cached parser answers as a call on a freshly built one
    path = opfile(Diagonal(3, {0: Padic.one(3)}))
    calls = [("scale", "finite", "--in", path),
             ("scale", "finite", "--in", path, "--dim", "x"),
             ("scale", "probe", "--in", path, "--bounds", "1,2")]
    assert _build_parser() is _build_parser()
    reused = [run(capsys, *argv)[:2] for argv in calls]
    assert [code for code, _ in reused] == [0, 4, 0]
    for argv, answer in zip(calls, reused):
        _build_parser.cache_clear()
        assert run(capsys, *argv)[:2] == answer


# -- the front end: leaf dispatch and the JSON writer -------------------------


class _Parsed(Exception):
    """Stops main once it has parsed argv, before any handler runs."""


def _parse_in_main(monkeypatch, argv, table=None):
    """(the parser main asked, the namespace it got) for argv; table,
    when given, replaces the leaf table, so {} forces the tree route."""
    original = cli._Parser.parse_args
    seen = []

    def spy(self, args=None, namespace=None):
        seen.append(self)
        seen.append(original(self, args, namespace))
        raise _Parsed

    with monkeypatch.context() as m:
        m.setattr(cli._Parser, "parse_args", spy)
        if table is not None:
            tree = _build_parser()[0]
            m.setattr(cli, "_build_parser", lambda: (tree, table))
        with pytest.raises(_Parsed):
            main(argv)
    return seen[0], seen[1]


# argv that parse, one or more per leaf, optional flags included
LEAF_ARGVS = [[*leaf, "--in", "a.json", *required] for leaf, required in FILE_LEAVES.items()] + [
    ["verify", "all"], ["verify", "all", "--p", "5", "--precision", "80", "--seed", "7"],
    ["idem", "refine", "--target", "20", "--config", "c.json", "--in", "a.json"],
    ["calculus", "teich-idem", "--in", "a.json", "--depth", "3", "--trace", "t.tsv"],
    ["calculus", "fz", "--in", "a.json", "--z", "3^1*2", "--depth", "-1"],
    ["idem", "trivialize", "--in=a.json", "--prefix", "4"],
]
# argv that fail to parse: by both routes the same ParseError text
MALFORMED_ARGVS = [
    [], ["calculus"], ["calculus", "nope"], ["nope", "apply"],
    ["calculus", "apply"], ["calculus", "apply", "--in", "a.json"],
    ["calculus", "certify", "--in", "a.json", "--depth", "x"],
    ["idem", "trivialize", "--in", "a.json", "--pre", "3"],
    ["idem", "trivialize", "--in", "a.json", "--p", "3"],
    ["scale", "finite", "--in", "a.json", "extra"],
    ["mahler", "eval", "--in", "a.json", "--x"],
    ["verify", "all", "--seed"], ["verify", "all", "--in", "a.json"],
    ["idem", "refine", "--in", "a.json", "--target"],
    ["idem", "split", "--", "--in", "a.json"], ["idem", "split", "--in", "a.json", "--"],
    ["calculus", "certify", "--in", "a.json", "--depth", "--"],
]


def test_each_leaf_parses_by_its_own_parser_as_through_the_tree(monkeypatch):
    """main parses a leaf's argv with the leaf's parser alone, and hands
    the handler the namespace the tree gives: group, action, handler
    and every option value."""
    tree, leaves = _build_parser()
    assert set(leaves) == set(FILE_LEAVES) | {("verify", "all")}
    assert {tuple(argv[:2]) for argv in LEAF_ARGVS} == set(leaves)
    for argv in LEAF_ARGVS:
        parser, direct = _parse_in_main(monkeypatch, argv)
        assert parser is leaves[tuple(argv[:2])], argv
        parser, routed = _parse_in_main(monkeypatch, argv, table={})
        assert parser is tree, argv
        assert vars(direct) == vars(routed), argv
        assert direct.handler.__name__.startswith("_cmd_")


def test_help_and_other_argv_go_through_the_tree(monkeypatch):
    tree = _build_parser()[0]
    for argv in (["calculus", "apply", "--in", "a.json", "--help"], ["scale", "finite", "-h"],
                 ["scale"], ["-h"], ["scale", "nope", "--in", "a.json"]):
        asked = []

        def refuse(self, args=None, namespace=None):
            asked.append(self)
            raise _Parsed

        with monkeypatch.context() as m:
            m.setattr(cli._Parser, "parse_args", refuse)
            with pytest.raises(_Parsed):
                main(argv)
        assert asked == [tree], argv


def test_malformed_argv_reads_the_same_by_both_routes(capsys, monkeypatch):
    tree = _build_parser()[0]
    for argv in MALFORMED_ARGVS:
        direct = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", lambda: (tree, {}))
            routed = run(capsys, *argv)
        assert direct == routed, argv
        code, out, err = direct
        assert (code, out) == (4, ""), argv
        assert json.loads(err)["error"] == "ParseError"


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, opfile):
    third = Padic.one(3) / Padic.from_int(3, 3)
    path = opfile(Diagonal(3, {0: third, 1: Padic.from_int(3, 3), 2: Padic.one(3)}))
    monkeypatch.setattr(sys, "argv", ["padicops", "scale", "finite", "--in", path])
    assert main() == 0
    assert capsys.readouterr().out == "p^1\n"
    monkeypatch.setattr(sys, "argv", ["padicops", "scale", "finite"])
    assert main(None) == 4
    assert "--in" in json.loads(capsys.readouterr().err)["message"]


def test_cache_clear_rebuilds_the_leaf_table(monkeypatch):
    argv = ["idem", "split", "--in", "a.json"]
    tree, leaves = _build_parser()
    try:
        _build_parser.cache_clear()
        new_tree, new_leaves = _build_parser()
        assert new_tree is not tree and set(new_leaves) == set(leaves)
        assert all(new_leaves[key] is not leaves[key] for key in leaves)
        assert _parse_in_main(monkeypatch, argv)[0] is new_leaves[("idem", "split")]
    finally:
        _build_parser.cache_clear()


_TEXT = st.one_of(st.text(), st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé€\u2028😀 a'))
_JSON = st.recursive(
    st.one_of(_TEXT, st.integers(), st.integers(min_value=-2**80, max_value=2**80),
              st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_json_writer_is_json_dumps_with_indent_2(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


def test_emit_and_report_print_json_with_indent_2(capsys):
    obj = {"e": {"p": 3, "entries": [[0, 1, "3^-1*2"]], "kind": "finite"}, "ok": True,
           "none": None, "empty": [], "nested": {}, "text": 'é"\n'}
    cli._emit(obj)
    cli._report(PreconditionFailed('a "quoted" reason\n'))
    captured = capsys.readouterr()
    assert captured.out == json.dumps(obj, indent=2) + "\n"
    assert captured.err == json.dumps({"error": "PreconditionFailed",
                                       "message": 'a "quoted" reason\n'}, indent=2) + "\n"


def test_config_file_pickup(capsys, opfile, tmp_path):
    badcfg = tmp_path / "cfg.json"
    path = opfile(near_idempotent(40))
    # a composite prime, and values of the wrong type, are parse errors
    for bad in ({"prime": 4}, {"prime": "3"}, {"precision": "40"}):
        badcfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, "idem", "refine", "--in", path, "--config", str(badcfg))
        assert code == 4
        assert json.loads(err)["error"] == "ParseError"
    code, _, _ = run(capsys, "idem", "refine", "--in", path)
    assert code == 0
    # the config file's target reaches the leaf
    goodcfg = tmp_path / "target.json"
    goodcfg.write_text(json.dumps({"precision": 60, "target_valuation": 50}))
    code, _, err = run(capsys, "idem", "refine", "--in", path, "--config", str(goodcfg))
    assert code == 4
    assert "below the target valuation 50" in json.loads(err)["message"]


def test_an_undecodable_config_file_exits_4(capsys, opfile, tmp_path):
    """A --config file is read as UTF-8, whatever the locale, and one
    that is not UTF-8 is a parse error that names the file."""
    path = opfile(near_idempotent(40))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"target_valuation": 20, "pr\u00e9cision": 40}', encoding="utf-8")
    code, _, err = run(capsys, "idem", "refine", "--in", path, "--config", str(cfg))
    assert code == 4 and "pr\u00e9cision" in json.loads(err)["message"]
    cfg.write_bytes(b'{"target_valuation": 20}\xff')
    for argv in (("idem", "refine", "--in", path), ("verify", "all")):
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 4 and out == "", argv
        report = json.loads(err)
        assert report["error"] == "ParseError" and str(cfg) in report["message"]


def test_file_precision_must_cover_the_target(capsys, opfile):
    # a precision-20 file cannot back a certificate at the default target 30
    low = opfile(near_idempotent(20), 20)
    e = opfile(FiniteMatrix(3, {(0, 0): Padic.one(3)}))
    for argv in (("idem", "refine", "--in", low),
                 ("idem", "lift", "--in", low),
                 ("idem", "split", "--in", low),
                 ("idem", "trivialize", "--in", low),
                 ("calculus", "teich-idem", "--in", low),
                 ("idem", "equiv", "--in", low, "--in2", e),
                 ("idem", "equiv", "--in", e, "--in2", low)):
        code, _, err = run(capsys, *argv)
        assert code == 4, argv
        assert json.loads(err)["error"] == "ParseError"


def test_module_invocation_smoke(tmp_path):
    opjson = json.dumps(operator_to_obj(Diagonal(3, {0: Padic.one(3)})))
    path = tmp_path / "op.json"
    path.write_text(opjson)
    proc = subprocess.run(
        [sys.executable, "-m", "padicops.cli", "scale", "finite", "--in", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "p^0\n"


def test_precision_80_files_keep_80_digits(capsys, opfile, tmp_path):
    # a target above 40 needs no config, only a file that covers it
    path = opfile(near_idempotent(80), 80)
    code, out, _ = run(capsys, "idem", "refine", "--in", path, "--target", "60")
    assert code == 0
    obj = json.loads(out)["e"]
    assert obj["precision"] == 80
    assert op_agree(operator_from_obj(obj), FiniteMatrix(3, {(0, 0): Padic.one(3, 80)}), 80)
    # the output header states the precision the entries carry
    half = Padic.from_fraction(Fraction(1, 2), 3, 80)
    fnfile = tmp_path / "identity_fn.json"
    fnfile.write_text(json.dumps({"p": 3, "precision": 80, "coefficients": ["0", "3^0*1"],
                                  "tail_exponent": None}))
    code, out, _ = run(capsys, "calculus", "apply", "--in", opfile(Diagonal(3, {0: half}), 80),
                       "--fn", str(fnfile))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["precision"] == 80
    assert result["entries"] == [[0, 0, scalar_to_text(half)]]
    assert len(scalar_to_text(half).split("*")[1]) == 80
    # verify all builds its instances at --precision, so that must cover --target
    code, _, err = run(capsys, "verify", "all", "--precision", "20", "--target", "30")
    assert code == 4
    assert json.loads(err)["message"] == "precision must cover the target valuation"
