"""Acceptance suite: one test per exit criterion, one pass line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
Every tolerance here is exact (working-precision equality of p-adic digits
or exact rational comparison); nothing is deferred to calibration.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fglab.cli import main as cli_main
from fglab.commutant import (
    commutant_reconstruct,
    group_from_jacobian,
    stability_classify,
)
from fglab.dynamics import (
    intersection_probe,
    orbit_analyze,
    torsion_probe_dim1,
    valuation_bound_check,
)
from fglab.errors import NotInvertible, SingularStep
from fglab.formal_group import (
    LubinTate2Params,
    additive_law,
    fg_multiplication_map,
    height_and_kernel_count,
    lt2_build,
    lt2_min_precision,
    multiplicative_law,
)
from fglab.padic import (
    ExtensionModulus,
    ExtScalar,
    PointTuple,
    PrecisionContext,
    teichmuller,
)
from fglab.series import (
    MultiSeries,
    TupleSeries,
    compositional_inverse,
    mat_det,
    ms_eval,
    tuple_compose,
)
from fglab.serialize import parse, parse_extension, serialize

from conftest import assert_series_matches, cyclotomic_modulus

GOLDEN = Path(__file__).parent / "golden"


def _announce(number, label):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_acceptance_1_lubin_tate_construction():
    for p in (2, 3):
        for h1, h2 in ((1, 1), (1, 2)):
            D = p ** (h1 + h2)
            N = lt2_min_precision(h1, h2, p, D)
            started = time.monotonic()
            ctx = PrecisionContext(p, N, D)
            res = lt2_build(LubinTate2Params(h1, h2, ctx))
            elapsed = time.monotonic() - started
            assert elapsed < 60, \
                f"p={p} (h1,h2)=({h1},{h2}): {elapsed:.1f}s over budget"
            # the logarithm identity certified every axiom to degree D
            cert = res.group.certificate
            assert cert.degree == D
            assert set(cert.axioms) == {"linear-part", "unit",
                                        "associativity", "inverse"}
            # logarithm display coefficients, exact at working precision
            L1 = res.log[0]
            assert L1.coefficient((0, p ** h1)) \
                .same_at_working_precision(Fraction(1, p))
            assert L1.coefficient((p ** (h1 + h2), 0)) \
                .same_at_working_precision(Fraction(1, p * p))
            # both multiplication-by-p congruences
            assert res.congruences["linear_part_is_p_times_identity"]
            assert res.congruences["frobenius_shape_mod_p"]
    _announce(1, "Lubin-Tate construction")


def _random_invertible_tuple(ctx, d, rng):
    while True:
        rows = [[rng.randint(0, ctx.p ** 2) for _ in range(d)]
                for _ in range(d)]
        from fglab.padic import PadicScalar
        mat = [[PadicScalar.exact(ctx, x) for x in row] for row in rows]
        det = mat_det(mat)
        if not det.is_zero and det.valuation() == 0:
            break
    comps = []
    for i in range(d):
        terms = {}
        for j in range(d):
            if rows[i][j]:
                exps = tuple(1 if k == j else 0 for k in range(d))
                terms[exps] = rows[i][j]
        for _ in range(4):
            exps = tuple(rng.randint(0, 3) for _ in range(d))
            if 2 <= sum(exps) <= ctx.degree_cap:
                terms[exps] = rng.randint(-8, 8)
        comps.append(MultiSeries.from_terms(ctx, d, terms))
    return TupleSeries(comps)


def test_acceptance_2_compositional_inverse():
    rng = random.Random(2025)
    checked = 0
    for p in (2, 3, 5):
        ctx = PrecisionContext(p, 20, 8)
        per_prime = 17 if p != 5 else 16
        for _ in range(per_prime):
            d = rng.randint(1, 3)
            h = _random_invertible_tuple(ctx, d, rng)
            hinv = compositional_inverse(h)
            ident = TupleSeries.identity(ctx, d)
            assert tuple_compose(h, hinv).same_at_working_precision(ident)
            assert tuple_compose(hinv, h).same_at_working_precision(ident)
            checked += 1
    assert checked == 50
    # NotInvertible exactly when det J0 has positive valuation
    for p in (2, 5):
        ctx = PrecisionContext(p, 20, 8)
        d = 2
        sing = TupleSeries([
            MultiSeries.from_terms(ctx, 2, {(1, 0): p, (0, 2): 1}),
            MultiSeries.from_terms(ctx, 2, {(0, 1): 1})])
        with pytest.raises(NotInvertible):
            compositional_inverse(sing)
        ok = TupleSeries([
            MultiSeries.from_terms(ctx, 2, {(1, 0): 1 + p, (0, 2): 1}),
            MultiSeries.from_terms(ctx, 2, {(0, 1): 1})])
        compositional_inverse(ok)   # unit determinant: must not raise
    _announce(2, "compositional inverse, 50 randomized round trips")


def test_acceptance_3_commutant_engine():
    p = 3
    ctx = PrecisionContext(p, 24, 12)
    M = multiplicative_law(ctx)
    u = fg_multiplication_map(M, p).series
    for a in (2, 3, 1 + p):
        trace = commutant_reconstruct(u, [[a]])
        expected = {(k,): math.comb(a, k)
                    for k in range(1, min(a, 12) + 1) if math.comb(a, k)}
        assert_series_matches(trace.series[0], expected)
        rerun = commutant_reconstruct(u, [[a]])
        assert rerun.series.identical(trace.series)
        assert rerun.steps == trace.steps
    H = group_from_jacobian(u, [[1]], [[1]])
    assert sorted(tuple(e) for e in H[0].support()) == \
        [(0, 1), (1, 0), (1, 1)]
    assert_series_matches(H[0], {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    _announce(3, "commutant reconstruction against the binomial oracle")


def test_acceptance_4_counterexample_fidelity():
    p = 5
    ctx = PrecisionContext(p, 16, 8)
    gamma = teichmuller(2, ctx)
    u = TupleSeries([MultiSeries.variable(ctx, 2, 0).scale(gamma),
                     MultiSeries.variable(ctx, 2, 1).scale(gamma)])
    verdict = stability_classify(u)
    assert not verdict.stable
    assert verdict.reason == "root-of-unity"
    # first m+1 with J0^(m+1) = J0 is m+1 = p (gamma has order p-1)
    with pytest.raises(SingularStep) as err:
        commutant_reconstruct(u, [[2, 0], [0, 2]])
    assert err.value.degree == p
    _announce(4, "root-of-unity counterexample raises SingularStep")


def test_acceptance_5_kernel_counting():
    for p, D in ((2, 8), (3, 12)):
        ctx = PrecisionContext(p, 14, D)
        M = multiplicative_law(ctx)
        mulp = fg_multiplication_map(M, p).series
        rep = height_and_kernel_count(M, 1, mul_p=mulp)
        assert rep.height == 1
        for level in (1, 2):
            expected = p ** level
            G = fg_multiplication_map(M, p ** level).series[0]
            ts = torsion_probe_dim1(G, level, cyclotomic_modulus(ctx, level),
                                    expected=expected, polynomial=True)
            assert len(ts.roots) == expected
            assert ts.verdict == "complete-in-extension"
            assert ts.multiplicity_free
    # 2-dimensional monomial case: h = h1 + h2
    for p, h1, h2 in ((2, 1, 1), (2, 1, 2), (3, 1, 1)):
        D = p ** (h1 + h2)
        ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
        res = lt2_build(LubinTate2Params(h1, h2, ctx))
        rep = height_and_kernel_count(res.group, 1, mul_p=res.mul_p.series)
        assert rep.height == h1 + h2
        assert rep.kernel_order == p ** (h1 + h2)
        rep2 = height_and_kernel_count(res.group, 2, mul_p=res.mul_p.series)
        assert rep2.kernel_order == p ** (2 * (h1 + h2))
    _announce(5, "kernel counting p^(h n) at desk scale")


def _random_series(ctx, rng):
    terms = {}
    for _ in range(rng.randint(2, 7)):
        exps = (rng.randint(0, 4), rng.randint(0, 4))
        if sum(exps) > ctx.degree_cap:
            continue
        coeff = rng.randint(1, ctx.p ** 3) * ctx.p ** rng.randint(0, 2)
        if rng.random() < 0.4:
            coeff = -coeff
        terms[exps] = coeff
    if not terms:
        terms[(1, 0)] = 1
    return MultiSeries.from_terms(ctx, 2, terms)


def test_acceptance_6_copolygon_bound():
    rng = random.Random(42)
    checked = 0
    for p in (2, 3, 5):
        ctx = PrecisionContext(p, 20, 8)
        moduli = [ExtensionModulus.base(ctx), cyclotomic_modulus(ctx, 1),
                  cyclotomic_modulus(ctx, 2)]
        for mod in moduli:
            pi = ExtScalar.uniformizer(mod)
            e = mod.ram_index
            for _ in range(60):
                f = _random_series(ctx, rng)
                a = rng.randint(1, max(1, e))
                b = rng.randint(1, max(1, e))
                unit1 = 1 + ctx.p * rng.randint(0, 3)
                unit2 = 1 + ctx.p * rng.randint(0, 2)
                theta = PointTuple([pi ** a * unit1, pi ** b * unit2])
                # the sampled series are complete polynomials: no hidden tail
                rep = valuation_bound_check(f, theta, polynomial=True)
                assert rep.holds, (p, mod.tag, f, theta)
                if rep.value_valuation is not None:
                    assert rep.value_valuation >= rep.copolygon_value
                checked += 1
    assert checked >= 500
    _announce(6, f"copolygon valuation bound on {checked} sampled pairs")


def test_acceptance_7_dynamics():
    for p in (2, 3, 5):
        ctx = PrecisionContext(p, 14, 8)
        M = multiplicative_law(ctx)
        # exact valuation trajectory of zeta_(p^2) - 1 under [p]_M
        mulp = fg_multiplication_map(M, p).series
        pi2 = ExtScalar.uniformizer(cyclotomic_modulus(ctx, 2))
        rec = orbit_analyze(mulp, PointTuple([pi2]), budget=8,
                            polynomial=True)
        assert rec.status == "valuation-escape" and rec.escape_at == 2
        (v0, e0), (v1, e1) = rec.valuations
        assert e0 and v0 == Fraction(1, p * (p - 1))
        assert e1 and v1 == Fraction(1, p - 1)
        assert rec.increase_violations == []
        # pi = zeta_p - 1 is a certified fixed point of [1+p]_M
        u = fg_multiplication_map(M, 1 + p).series
        pi1 = ExtScalar.uniformizer(cyclotomic_modulus(ctx, 1))
        fix = orbit_analyze(u, PointTuple([pi1]), budget=6, polynomial=True)
        assert fix.status == "periodic" and fix.period == 1 and fix.tail == 0
    # preperiodic verdicts of invertible maps always have tail 0
    ctx = PrecisionContext(5, 14, 8)
    M = multiplicative_law(ctx)
    pi1 = ExtScalar.uniformizer(cyclotomic_modulus(ctx, 1))
    for mult, poly in ((-1, False), (6, True), (2, True)):
        inv_map = fg_multiplication_map(M, mult).series
        rec = orbit_analyze(inv_map, PointTuple([pi1]), budget=24,
                            polynomial=poly)
        if rec.status in ("periodic", "preperiodic"):
            assert rec.tail == 0
    # u = [1+p]_M permutes the certified roots of f = [p]_M
    u = fg_multiplication_map(M, 6).series
    mulp = fg_multiplication_map(M, 5).series
    ts = torsion_probe_dim1(mulp[0], 1, cyclotomic_modulus(ctx, 1),
                            expected=5, polynomial=True)
    roots = ts.points()
    images = []
    for r in roots:
        img = ms_eval(u, PointTuple([r]), polynomial=True).value
        hits = [i for i, s in enumerate(roots)
                if img.same_at_working_precision(s)]
        assert len(hits) == 1
        images.append(hits[0])
    assert sorted(images) == list(range(len(roots)))
    _announce(7, "orbit trajectories, fixed points, root permutation")


def test_acceptance_8_intersection_probe(tmp_path, capsys):
    ctx = PrecisionContext(5, 14, 8)
    M = multiplicative_law(ctx)
    A = additive_law(ctx, 1)
    mod = cyclotomic_modulus(ctx, 1)

    def level_set(law):
        mulp = fg_multiplication_map(law, 5)
        h = height_and_kernel_count(law, 1, mul_p=mulp.series)
        return torsion_probe_dim1(mulp.series[0], 1, mod,
                                  expected=h.kernel_order, polynomial=True)

    ts_m, ts_a = level_set(M), level_set(A)
    same = intersection_probe(ts_m, ts_m, laws_equal=True)
    assert len(same.shared) == 5 and same.count_first == 5
    cross = intersection_probe(ts_m, ts_a, laws_equal=False)
    assert [r for r in cross.shared] and len(cross.shared) == 1
    assert cross.shared[0].is_zero

    # deterministic machine-readable reports through the CLI
    from fglab.serialize import serialize_extension
    mpath, apath = tmp_path / "m.doc", tmp_path / "a.doc"
    epath = tmp_path / "c.ext"
    mpath.write_text(serialize(M))
    apath.write_text(serialize(A))
    epath.write_text(serialize_extension(mod))
    outs = []
    for _ in range(2):
        code = cli_main(["intersect", "--group", str(mpath), "--group2",
                         str(apath), "--level", "1", "--extension",
                         str(epath), "--format", "machine"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    parsed = json.loads(outs[0])
    assert parsed["shared_count"] == 1
    _announce(8, "torsion intersection probe")


def test_acceptance_9_serialization_golden():
    fixtures = {
        "multiplicative_p5.doc":
            lambda: serialize(multiplicative_law(PrecisionContext(5, 12, 8))),
        "mul2_p5.doc":
            lambda: serialize(fg_multiplication_map(
                multiplicative_law(PrecisionContext(5, 12, 8)), 2).series,
                kind="endo"),
    }
    for name, build in fixtures.items():
        golden = (GOLDEN / name).read_text()
        assert build() == golden, f"{name} drifted from its golden bytes"
        reparsed = parse(golden)
        kind = "endo" if name.startswith("mul2") else None
        redoc = serialize(reparsed, kind=kind) if kind else serialize(reparsed)
        assert redoc == golden
    # Lubin-Tate group golden file round trip
    lt_doc = (GOLDEN / "lt2_p2_h11_group.doc").read_text()
    law = parse(lt_doc)
    assert serialize(law) == lt_doc
    p, h1, h2 = 2, 1, 1
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    rebuilt = lt2_build(LubinTate2Params(h1, h2, ctx))
    assert serialize(rebuilt.group) == lt_doc
    # extension document round trip against its golden bytes
    ctx5 = PrecisionContext(5, 12, 8)
    ext_doc = (GOLDEN / "cyclotomic_p5_level1.ext").read_text()
    mod = parse_extension(ext_doc, ctx5)
    assert mod.same_as(cyclotomic_modulus(ctx5, 1))
    _announce(9, "golden-file serialization round trips")


@pytest.mark.parametrize("p,h1,h2", [(2, 1, 2), (3, 1, 1)])
def test_acceptance_9_lt2_rebuild_goldens(p, h1, h2):
    """A rebuild reproduces the group law, [p]_F and the two-block
    reconstruction from [p]_F byte for byte, profile headers included."""
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    res = lt2_build(LubinTate2Params(h1, h2, ctx))
    u = res.mul_p.series
    ident = [[1, 0], [0, 1]]
    built = {
        "group": serialize(res.group),
        "mulp": serialize(u, kind="endo"),
        "gfj": serialize(group_from_jacobian(u, ident, ident), kind="tuple"),
    }
    for part, doc in built.items():
        name = f"lt2_p{p}_h{h1}{h2}_{part}.doc"
        golden = (GOLDEN / name).read_text()
        assert doc == golden, f"{name} drifted from its golden bytes"
        kind = {"group": None, "mulp": "endo", "gfj": "tuple"}[part]
        back = parse(golden)
        assert (serialize(back, kind=kind) if kind else serialize(back)) \
            == golden
