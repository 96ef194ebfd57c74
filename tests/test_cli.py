"""End-to-end command-line runs, exit codes, machine-readable reports."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fglab.cli import _parser, main
from fglab.formal_group import fg_multiplication_map
from fglab.padic import ExtensionModulus, PrecisionContext
from fglab.serialize import parse, serialize, serialize_extension
from fglab.series import MultiSeries, TupleSeries
from fglab.formal_group import additive_law, fg_validate, multiplicative_law
from fglab.padic import teichmuller

from conftest import assert_series_matches, cyclotomic_modulus

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_lt2_end_to_end(tmp_path, capsys):
    group = tmp_path / "group.doc"
    logf = tmp_path / "log.doc"
    mulp = tmp_path / "mulp.doc"
    code, out, _ = run(capsys, "build-lt2", "--p", "2", "--h1", "1",
                       "--h2", "1", "--out-group", str(group),
                       "--out-log", str(logf), "--out-mulp", str(mulp),
                       "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["linear_part_is_p_times_identity"] is True
    assert report["frobenius_shape_mod_p"] is True
    law = parse(group.read_text())
    assert law.dimension == 2

    code, out, _ = run(capsys, "validate-group", "--in", str(group),
                       "--format", "machine")
    assert code == 0
    assert json.loads(out)["commutative"] is True

    code, out, _ = run(capsys, "height", "--group", str(group),
                       "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["height"] == "2" and rep["kernel_order"] == "4"


def test_validate_group_axiom_violation_exit_code(tmp_path, capsys):
    ctx = PrecisionContext(5, 10, 6)
    bad = TupleSeries([MultiSeries.from_terms(
        ctx, 2, {(1, 0): 1, (0, 1): 1, (2, 0): 1})])
    path = tmp_path / "bad.doc"
    path.write_text(serialize(bad, kind="tuple"))
    code, _, err = run(capsys, "validate-group", "--in", str(path))
    assert code == 10
    assert "unit" in err


def test_mul_map_and_negation(tmp_path, capsys):
    ctx = PrecisionContext(5, 12, 8)
    M = multiplicative_law(ctx)
    gpath = tmp_path / "m.doc"
    gpath.write_text(serialize(M))
    out_path = tmp_path / "three.doc"
    code, _, _ = run(capsys, "mul-map", "--in", str(gpath), "--a", "3",
                     "--out", str(out_path))
    assert code == 0
    series = parse(out_path.read_text())
    assert series[0].coefficient((2,)).same_at_working_precision(3)
    code, out, _ = run(capsys, "negation", "--in", str(gpath))
    assert code == 0
    assert "fglab-series" in out


def test_mul_map_padic_multiplier_writes_true_digits(tmp_path, capsys):
    """3132/7 = 1 + 5^5/7 agrees with 1 modulo 5, 5^2 and 5^3, which once
    stopped the computation at [1]; its X coefficient is 3132/7."""
    out_path = tmp_path / "a.doc"
    code, _, _ = run(capsys, "mul-map", "--in",
                     str(GOLDEN / "multiplicative_p5.doc"), "--a", "3132/7",
                     "--out", str(out_path))
    assert code == 0
    x = parse(out_path.read_text())[0].coefficient((1,))
    assert x.same_at_working_precision(Fraction(3132, 7))


def test_mul_map_padic_multiplier_refuses_non_integral_law(tmp_path,
                                                          capsys):
    ctx = PrecisionContext(5, 12, 8)
    law = fg_validate(TupleSeries([MultiSeries.from_terms(
        ctx, 2, {(1, 0): 1, (0, 1): 1, (1, 1): Fraction(1, 5)})]))
    gpath = tmp_path / "fifth.doc"
    gpath.write_text(serialize(law))
    code, out, err = run(capsys, "mul-map", "--in", str(gpath), "--a", "1/7")
    assert code == 1 and not out
    assert "p-integral" in err
    code, _, _ = run(capsys, "mul-map", "--in", str(gpath), "--a", "3")
    assert code == 0


@pytest.mark.parametrize("blocks", [(), ("--bx", "1", "--by", "1")],
                         ids=["default", "explicit"])
def test_group_from_jacobian_command(capsys, blocks):
    """[2]_M alone gives back X + Y + XY, to H's certified floor."""
    code, out, _ = run(capsys, "group-from-jacobian", "--u",
                       str(GOLDEN / "mul2_p5.doc"), *blocks)
    assert code == 0
    H = parse(out)
    assert H.dim == 1 and H.num_vars == 2
    assert H[0].prof(H.ctx.degree_cap) >= 1
    assert_series_matches(H[0], {(1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_group_from_jacobian_refuses_a_block_that_does_not_commute(
        tmp_path, capsys):
    """A block that does not commute with J0(u) = diag(5, 10) exits 1 with
    no document, and stderr names the commuting condition: the lift never
    runs, so no precision exhaustion is reported."""
    ctx = PrecisionContext(5, 8, 5)
    u = TupleSeries([MultiSeries.from_terms(ctx, 2, {(1, 0): 5, (0, 2): 1}),
                     MultiSeries.from_terms(ctx, 2, {(0, 1): 10, (1, 1): 1})])
    upath = tmp_path / "u.doc"
    upath.write_text(serialize(u, kind="tuple"))
    out_path = tmp_path / "H.doc"
    code, out, err = run(capsys, "group-from-jacobian", "--u", str(upath),
                         "--bx", "1,1;0,1", "--out", str(out_path))
    assert code == 1 and out == "" and not out_path.exists()
    assert "commute with J0(u)" in err
    assert "precision exhaustion" not in err


@pytest.mark.parametrize("argv, want", [
    (("negation",), [-1, 1, -1, 1, -1, 1]),
    (("mul-map", "--a", "3"), [3, 3, 1, 0, 0, 0]),
], ids=["negation", "mul-map"])
def test_exact_law_document_maps_write_integer_digits(tmp_path, capsys, argv,
                                                      want):
    """A ``profile exact`` X+Y+XY document composes exactly: at N=30 its
    negation and [3] are written as integer digits that parse reads back
    (a float reduction once wrote ``1.0 0.0 ...`` and, past 2^53, made the
    negation check fail)."""
    ctx = PrecisionContext(5, 30, 6)
    text = serialize(multiplicative_law(ctx))
    gpath = tmp_path / "exact.doc"
    gpath.write_text(text.replace("profile 30 0 30", "profile exact"))
    assert parse(gpath.read_text()).law[0].profile is None
    out_path = tmp_path / "out.doc"
    code, _, _ = run(capsys, *argv[:1], "--in", str(gpath), *argv[1:],
                     "--out", str(out_path))
    assert code == 0
    doc = out_path.read_text()
    assert "." not in doc
    series = parse(doc)[0]
    for k, c in enumerate(want, start=1):
        assert series.coefficient((k,)).same_at_working_precision(c)


def test_reconstruct_and_singular_exit(tmp_path, capsys):
    ctx = PrecisionContext(2, 20, 10)
    M = multiplicative_law(ctx)
    from fglab.formal_group import fg_multiplication_map
    u = fg_multiplication_map(M, 2).series
    upath = tmp_path / "u.doc"
    upath.write_text(serialize(u, kind="tuple"))
    hpath = tmp_path / "h.doc"
    code, _, _ = run(capsys, "reconstruct", "--u", str(upath), "--j0", "3",
                     "--out", str(hpath))
    assert code == 0
    h = parse(hpath.read_text())
    assert h[0].coefficient((1,)).same_at_working_precision(3)

    # gamma fixture: SingularStep exit code names the degree on stderr
    ctx5 = PrecisionContext(5, 16, 8)
    g = teichmuller(2, ctx5)
    ug = TupleSeries([MultiSeries.variable(ctx5, 2, 0).scale(g),
                      MultiSeries.variable(ctx5, 2, 1).scale(g)])
    ugpath = tmp_path / "ug.doc"
    ugpath.write_text(serialize(ug, kind="tuple"))
    code, _, err = run(capsys, "reconstruct", "--u", str(ugpath),
                       "--j0", "2,0;0,2")
    assert code == 11
    assert "degree 5" in err


def test_stability_report(tmp_path, capsys):
    ctx5 = PrecisionContext(5, 16, 8)
    g = teichmuller(2, ctx5)
    ug = TupleSeries([MultiSeries.variable(ctx5, 2, 0).scale(g),
                      MultiSeries.variable(ctx5, 2, 1).scale(g)])
    path = tmp_path / "ug.doc"
    path.write_text(serialize(ug, kind="tuple"))
    code, out, _ = run(capsys, "stability", "--u", str(path),
                       "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["stable"] is False and rep["reason"] == "root-of-unity"


def test_copolygon_and_bound_check(tmp_path, capsys):
    ctx = PrecisionContext(5, 12, 8)
    f = MultiSeries.from_terms(ctx, 2, {(0, 0): 5, (1, 0): 1, (1, 2): 1})
    fpath = tmp_path / "f.doc"
    fpath.write_text(serialize(f))
    code, out, _ = run(capsys, "copolygon", "--in", str(fpath),
                       "--xi", "1,1", "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == "1"

    ext = tmp_path / "base.ext"
    from fglab.padic import ExtensionModulus
    ext.write_text(serialize_extension(ExtensionModulus.base(ctx)))
    code, out, _ = run(capsys, "bound-check", "--in", str(fpath),
                       "--extension", str(ext), "--point", "5;5",
                       "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["holds"] is True


def test_orbit_and_torsion_and_intersect(tmp_path, capsys):
    ctx = PrecisionContext(5, 14, 8)
    M = multiplicative_law(ctx)
    A = additive_law(ctx, 1)
    mpath = tmp_path / "m.doc"
    apath = tmp_path / "a.doc"
    mpath.write_text(serialize(M))
    apath.write_text(serialize(A))
    ext1 = tmp_path / "cyc1.ext"
    ext1.write_text(serialize_extension(cyclotomic_modulus(ctx, 1)))

    from fglab.formal_group import fg_multiplication_map
    u = fg_multiplication_map(M, 6).series
    upath = tmp_path / "u6.doc"
    upath.write_text(serialize(u, kind="endo"))
    code, out, _ = run(capsys, "orbit", "--map", str(upath),
                       "--extension", str(ext1), "--point", "0 1",
                       "--budget", "6", "--polynomial",
                       "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "periodic" and rep["tail"] == 0

    code, out, _ = run(capsys, "torsion", "--group", str(mpath),
                       "--level", "1", "--extension", str(ext1),
                       "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 5 and rep["verdict"] == "complete-in-extension"

    code, out1, _ = run(capsys, "intersect", "--group", str(mpath),
                        "--group2", str(apath), "--level", "1",
                        "--extension", str(ext1), "--format", "machine")
    assert code == 0
    rep = json.loads(out1)
    assert rep["shared_count"] == 1
    # determinism: byte-identical reruns
    code, out2, _ = run(capsys, "intersect", "--group", str(mpath),
                        "--group2", str(apath), "--level", "1",
                        "--extension", str(ext1), "--format", "machine")
    assert out2 == out1


def test_torsion_level_one_builds_mul_p_once(tmp_path, capsys,
                                              monkeypatch):
    """At --level 1, [p^level]_F is [p]_F: the torsion command builds it
    once and reuses it for the height and the probe."""
    import fglab.cli as cli
    ctx = PrecisionContext(5, 14, 8)
    mpath = tmp_path / "m.doc"
    mpath.write_text(serialize(multiplicative_law(ctx)))
    ext1 = tmp_path / "cyc1.ext"
    ext1.write_text(serialize_extension(cyclotomic_modulus(ctx, 1)))
    calls = []
    real = cli.fg_multiplication_map

    def counting(law, a):
        calls.append(a)
        return real(law, a)

    monkeypatch.setattr(cli, "fg_multiplication_map", counting)
    code, out, _ = run(capsys, "torsion", "--group", str(mpath),
                       "--level", "1", "--extension", str(ext1),
                       "--format", "machine")
    assert code == 0
    assert json.loads(out)["count"] == 5
    assert calls == [5]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.doc"
    bad.write_text("garbage\n")
    code, _, err = run(capsys, "validate-group", "--in", str(bad))
    assert code == 13


def test_non_integer_document_fields_exit_13(tmp_path, capsys):
    ctx = PrecisionContext(5, 12, 8)
    f = MultiSeries.from_terms(ctx, 2, {(0, 0): 5, (1, 0): 1, (1, 2): 1})
    doc = serialize(f)
    for old, new in (("p: 5", "p: five"),
                     ("component 0 profile", "component x profile")):
        bad = tmp_path / "bad.doc"
        bad.write_text(doc.replace(old, new, 1))
        code, out, err = run(capsys, "copolygon", "--in", str(bad),
                             "--xi", "1,1", "--format", "machine")
        assert code == 13 and out == ""
        assert err.startswith("fglab: line ")


def test_header_precision_beyond_the_context_limits_exits_13(tmp_path,
                                                            capsys):
    """abs-precision: 1000000 is refused as a malformed document before
    its entries are read."""
    ctx = PrecisionContext(5, 12, 8)
    doc = serialize(MultiSeries.from_terms(ctx, 1, {(0,): 5, (1,): 1}))
    bad = tmp_path / "bad.doc"
    bad.write_text(doc.replace("abs-precision: 12", "abs-precision: 1000000"))
    code, out, err = run(capsys, "copolygon", "--in", str(bad),
                         "--xi", "1", "--format", "machine")
    assert code == 13 and out == ""
    assert "abs_precision" in err


def test_build_lt2_with_explicit_degree(tmp_path, capsys):
    group = tmp_path / "g8.doc"
    code, out, _ = run(capsys, "build-lt2", "--p", "2", "--h1", "1",
                       "--h2", "1", "--degree", "8", "--out-group",
                       str(group), "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["degree"] == 8 and rep["certified_degree"] == 8
    assert rep["frobenius_shape_mod_p"] is True


def test_table_format_output(tmp_path, capsys):
    ctx = PrecisionContext(5, 10, 6)
    M = multiplicative_law(ctx)
    gpath = tmp_path / "m.doc"
    gpath.write_text(serialize(M))
    code, out, _ = run(capsys, "height", "--group", str(gpath))
    assert code == 0
    assert "height: 1" in out
    assert "kernel_order: 5" in out


def test_report_written_to_file(tmp_path, capsys):
    ctx = PrecisionContext(5, 10, 6)
    M = multiplicative_law(ctx)
    gpath = tmp_path / "m.doc"
    gpath.write_text(serialize(M))
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "height", "--group", str(gpath),
                       "--format", "machine", "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["height"] == "1"


def test_digit_count_mismatch_exits_13(tmp_path, capsys):
    ctx = PrecisionContext(5, 12, 8)
    doc = serialize(MultiSeries.from_terms(ctx, 2, {(1, 0): 1, (1, 2): 1}))
    bad = tmp_path / "bad.doc"
    bad.write_text(doc.replace("| 0 | 1 0 0", "| 0 | 1 0", 1))
    assert bad.read_text() != doc
    code, out, err = run(capsys, "copolygon", "--in", str(bad),
                         "--xi", "1,1", "--format", "machine")
    assert code == 13 and out == ""
    assert err.startswith("fglab: line ")


@pytest.mark.parametrize("case", ["negative-exponent", "num-vars-0",
                                  "two-in-one-map"])
def test_malformed_documents_exit_with_a_code_not_a_traceback(
        tmp_path, capsys, case):
    """A negative exponent and num-vars 0 are parse errors (exit 13), an
    orbit map that is not d-in-d a usage error (exit 1): one ``fglab:``
    line on stderr, no traceback."""
    ctx = PrecisionContext(5, 6, 4)
    ext = tmp_path / "base.ext"
    ext.write_text(serialize_extension(ExtensionModulus.base(ctx)))
    orbit = ("orbit", "--extension", str(ext), "--point", "5", "--map")
    f = serialize(MultiSeries.from_terms(ctx, 2, {(1, 0): 1, (0, 1): 1}))
    no_vars = serialize(TupleSeries.zero(ctx, 1, 1), kind="endo")
    two_in_one = TupleSeries([MultiSeries.from_terms(ctx, 1, {(1,): 5}),
                              MultiSeries.from_terms(ctx, 1, {(2,): 1})])
    argv, text, want = {
        "negative-exponent": (("copolygon", "--xi", "1,1", "--in"),
                              f.replace("1 0 | 0 |", "-1 5 | 0 |", 1), 13),
        "num-vars-0": (orbit, no_vars.replace("num-vars: 1", "num-vars: 0"),
                       13),
        "two-in-one-map": (orbit, serialize(two_in_one, kind="endo"), 1),
    }[case]
    assert text not in (f, no_vars)
    doc = tmp_path / "map.doc"
    doc.write_text(text)
    code, out, err = run(capsys, *argv, str(doc))
    assert code == want and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("fglab:")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Paths keyed by the placeholders below: a p=5 multiplicative law, its
    [2]_M, a 2-variable series, the base extension, a binary file, a
    (2,1,1) Lubin-Tate law and two paths that do not exist."""
    d = tmp_path_factory.mktemp("docs")
    ctx = PrecisionContext(5, 12, 8)
    M = multiplicative_law(ctx)
    paths = {"M5": d / "m5.doc", "U": d / "u.doc", "F": d / "f.doc",
             "EXT": d / "base.ext", "MISSING": d / "missing.doc",
             "NOWHERE": d / "missing" / "out.doc", "BINARY": d / "binary.doc",
             "LAW2": GOLDEN / "lt2_p2_h11_group.doc"}
    paths["BINARY"].write_bytes(bytes(range(128, 256)))
    paths["M5"].write_text(serialize(M))
    paths["U"].write_text(serialize(fg_multiplication_map(M, 2).series,
                                    kind="endo"))
    paths["F"].write_text(serialize(MultiSeries.from_terms(
        ctx, 2, {(1, 0): 1, (1, 2): 1})))
    paths["EXT"].write_text(serialize_extension(ExtensionModulus.base(ctx)))
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("argv, want", [
    (("reconstruct", "--u", "U", "--j0", "abc"), 1),
    (("reconstruct", "--u", "U", "--j0", "1/0"), 1),
    (("mul-map", "--in", "M5", "--a", "x"), 1),
    (("mul-map", "--in", "M5", "--a", "1/0"), 1),
    (("mul-map", "--in", "M5", "--a", "1/5"), 1),
    (("mul-map", "--in", "M5", "--a", "1,2"), 1),
    (("orbit", "--map", "U", "--extension", "EXT", "--point", "q"), 1),
    (("orbit", "--map", "U", "--extension", "EXT", "--point", "5",
      "--budget", "-1"), 1),
    (("copolygon", "--in", "F", "--xi", "a,b"), 1),
    (("copolygon", "--in", "F", "--xi", "1"), 1),
    (("copolygon", "--in", "LAW2", "--xi", "1,1"), 1),
    (("bound-check", "--in", "F", "--extension", "EXT", "--point", "5"), 1),
    (("group-from-jacobian", "--u", "U", "--bx", "x"), 1),
    (("stability", "--u", "M5"), 1),
    (("height", "--group", "M5", "--level", "0"), 1),
    (("height", "--group", "M5", "--level", "10000"), 1),
    (("torsion", "--group", "M5", "--level", "10000", "--extension", "EXT"),
     1),
    (("intersect", "--group", "M5", "--group2", "M5", "--level", "10000",
      "--extension", "EXT"), 1),
    (("build-lt2", "--p", "4", "--h1", "1", "--h2", "1"), 1),
    (("build-lt2", "--p", "2", "--h1", "0", "--h2", "1"), 1),
    (("validate-group", "--in", "MISSING"), 1),
    (("negation", "--in", "M5", "--out", "NOWHERE"), 1),
    (("validate-group", "--in", "BINARY"), 13),
], ids=lambda v: "_".join(v) if isinstance(v, tuple) else str(v))
def test_bad_flag_values_exit_with_a_code_not_a_traceback(docs, capsys, argv,
                                                           want):
    """A flag value outside its domain is a usage error (exit 1), a file
    that is not text a parse error (exit 13): one ``fglab:`` line on
    stderr, nothing on stdout, no traceback."""
    code, out, err = run(capsys, *(docs.get(a, a) for a in argv))
    assert code == want
    assert out == ""
    assert [line for line in err.splitlines()
            if line.startswith("fglab:")] == err.splitlines()
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_copolygon_reads_a_group_law_document(docs, capsys):
    code, out, _ = run(capsys, "copolygon", "--in", docs["M5"],
                       "--xi", "1,1", "--format", "machine")
    assert code == 0
    assert json.loads(out)["value"] == "1"


READERS = (("validate-group", "--in"), ("height", "--group"),
           ("negation", "--in"), ("mul-map", "--a", "3", "--in"))


@pytest.mark.parametrize("reader", READERS, ids=lambda r: r[0])
def test_readers_refuse_a_false_law_document(docs, tmp_path, capsys,
                                             reader):
    """X + 2Y + XY is no group law; its document carries the certificate of
    X + Y + XY.  Every reader validates the law again: exit 10."""
    text = Path(docs["M5"]).read_text()
    false_law = text.replace("0 1 | 0 | 1 ", "0 1 | 0 | 2 ", 1)
    assert false_law != text
    path = tmp_path / "false.doc"
    path.write_text(false_law)
    code, out, err = run(capsys, *reader, str(path))
    assert code == 10 and out == ""
    assert "linear-part" in err


@pytest.mark.parametrize("old, new", [
    ("commutative: yes", "commutative: no"),
    ("certified-degree: 8", "certified-degree: 9"),
    ("axioms: linear-part unit associativity inverse",
     "axioms: linear-part unit associativity"),
    ("dimension: 1", "dimension: 2"),
], ids=["commutative", "certified-degree", "axioms", "dimension"])
@pytest.mark.parametrize("reader", READERS, ids=lambda r: r[0])
def test_readers_refuse_a_disagreeing_certificate(docs, tmp_path, capsys,
                                                  reader, old, new):
    """A true law whose stored certificate disagrees with the one its
    axioms give is a malformed document: exit 13."""
    text = Path(docs["M5"]).read_text()
    assert old in text
    path = tmp_path / "flipped.doc"
    path.write_text(text.replace(old, new, 1))
    code, out, err = run(capsys, *reader, str(path))
    assert code == 13 and out == ""
    assert err.startswith("fglab: line 0: stored ")


def run_to_exit(capsys, *argv):
    """Like ``run``, for command lines on which argparse itself exits
    (usage errors, ``--help``)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_built_once():
    assert _parser() is _parser()


@pytest.mark.parametrize("bare, extra", [
    (("build-lt2", "--p", "2", "--h1", "1", "--h2", "1"),
     ("--degree", "5", "--precision", "13", "--out-group", "G",
      "--out-log", "L", "--out-mulp", "M", "--format", "machine",
      "--out", "O")),
    (("orbit", "--map", "U", "--extension", "EXT", "--point", "5"),
     ("--polynomial", "--budget", "3", "--format", "machine", "--out", "O")),
], ids=["build-lt2", "orbit"])
def test_flags_do_not_leak_into_the_next_call(docs, tmp_path, capsys, bare,
                                              extra):
    """One process, one parser: a call that sets every optional flag leaves
    nothing behind for the bare command that follows it."""
    paths = {k: str(tmp_path / k) for k in ("G", "L", "M", "O")}
    paths.update(docs)
    bare = [paths.get(a, a) for a in bare]
    extra = [paths.get(a, a) for a in extra]
    _parser.cache_clear()
    first = run(capsys, *bare)
    full = run(capsys, *bare, *extra)
    assert full != first
    assert run(capsys, *bare) == first
    assert run(capsys, *bare, *extra) == full


REPORTERS = ("build-lt2", "validate-group", "stability", "copolygon",
             "bound-check", "orbit", "torsion", "intersect", "height")


def test_only_report_commands_take_format(docs, capsys):
    """--format shapes a report; the commands that write a document take
    --out only, and refuse --format as a usage error."""
    sub, = (a for a in _parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        assert ("--format" in sp._option_string_actions) == \
            (name in REPORTERS), name
        assert "--out" in sp._option_string_actions, name
    code, out, err = run_to_exit(capsys, "negation", "--in", docs["M5"],
                                 "--format", "machine")
    assert code == 2 and out == "" and err.startswith("usage: fglab")


@pytest.mark.parametrize("argv, want", [
    (("--help",), 0),
    (("build-lt2", "--help"), 0),
    (("build-lt2", "--p", "2"), 2),
    (("no-such-command",), 2),
], ids=["help", "build-lt2-help", "missing-flag", "unknown-command"])
def test_usage_and_help_repeat_byte_for_byte(capsys, monkeypatch, argv, want):
    """argparse's own exits print the same bytes on a fresh parser and on
    the cached one, also when the terminal width changes in between."""
    _parser.cache_clear()
    first = run_to_exit(capsys, *argv)
    assert first[0] == want
    assert (first[1] if want == 0 else first[2]).startswith("usage: fglab")
    assert run_to_exit(capsys, *argv) == first
    monkeypatch.setenv("COLUMNS", "50")
    cached = run_to_exit(capsys, *argv)
    _parser.cache_clear()
    assert run_to_exit(capsys, *argv) == cached


def _cli_process(cwd, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fglab.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_one_shot_process(tmp_path, capsys, monkeypatch):
    """``python -m fglab.cli`` in a fresh interpreter: the golden law byte
    for byte, argparse's exit 2, and a parse error's exit 13 with the
    stderr of the in-process call."""
    monkeypatch.setenv("COLUMNS", "80")   # usage wraps alike in both runs
    proc = _cli_process(tmp_path, "build-lt2", "--p", "2", "--h1", "1",
                        "--h2", "1", "--out-group", "F")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "F").read_bytes() == \
        (GOLDEN / "lt2_p2_h11_group.doc").read_bytes()

    missing = ("build-lt2", "--p", "2")
    proc = _cli_process(tmp_path, *missing)
    assert proc.returncode == 2 and proc.stdout == ""
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        run_to_exit(capsys, *missing)

    bad = tmp_path / "truncated.doc"
    bad.write_text("".join(
        (GOLDEN / "multiplicative_p5.doc").read_text().splitlines(True)[:5]))
    argv = ("validate-group", "--in", str(bad))
    proc = _cli_process(tmp_path, *argv)
    assert proc.returncode == 13 and proc.stdout == ""
    assert proc.stderr.startswith("fglab: ")
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
