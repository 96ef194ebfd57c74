"""Copolygons, valuation bounds, orbits, torsion probes, intersections."""

import random
from fractions import Fraction

import pytest

from fglab.errors import BadArgument, DivergentPoint, DivisionByZero
from fglab.padic import (
    INFINITE,
    ExtensionModulus,
    ExtScalar,
    PointTuple,
    PrecisionContext,
)
from fglab.series import MultiSeries, TupleSeries, ms_eval, tuple_compose
from fglab.formal_group import (
    additive_law,
    fg_multiplication_map,
    fg_validate,
    height_and_kernel_count,
    multiplicative_law,
)
from fglab.dynamics import (
    Copolygon,
    _newton_lift,
    copolygon_build_eval,
    intersection_probe,
    orbit_analyze,
    torsion_probe_dim1,
    valuation_bound_check,
)

from conftest import cyclotomic_modulus


def test_copolygon_examples(ctx5):
    f = MultiSeries.from_terms(ctx5, 2, {(0, 0): 5, (1, 0): 1, (1, 2): 1})
    value, achieving = copolygon_build_eval(f, (1, 1))
    assert value == 1
    assert sorted(achieving) == [(0, 0), (1, 0)]
    value0, _ = copolygon_build_eval(f, (0, 0))
    assert value0 == 0     # min over v(a_ij) = v(1)
    x1 = MultiSeries.variable(ctx5, 2, 0)
    for xi in [(1, 1), (Fraction(1, 3), 7), (2, Fraction(5, 2))]:
        v, ach = copolygon_build_eval(x1, xi)
        assert v == Fraction(xi[0]) and ach == [(1, 0)]


def test_copolygon_concavity_sampled(ctx5):
    rng = random.Random(3)
    f = MultiSeries.from_terms(
        ctx5, 2, {(0, 0): 25, (1, 0): 5, (0, 2): 1, (2, 1): 10})
    poly = Copolygon.from_series(f)
    for _ in range(50):
        xi = (Fraction(rng.randint(0, 8), rng.randint(1, 4)),
              Fraction(rng.randint(0, 8), rng.randint(1, 4)))
        eta = (Fraction(rng.randint(0, 8), rng.randint(1, 4)),
               Fraction(rng.randint(0, 8), rng.randint(1, 4)))
        t = Fraction(rng.randint(0, 4), 4)
        mid = (t * xi[0] + (1 - t) * eta[0], t * xi[1] + (1 - t) * eta[1])
        v_mid, _ = poly.evaluate(*mid)
        v_xi, _ = poly.evaluate(*xi)
        v_eta, _ = poly.evaluate(*eta)
        assert v_mid >= t * v_xi + (1 - t) * v_eta


def test_bound_check_single_plane(ctx5):
    f = MultiSeries.variable(ctx5, 2, 0)
    mod = cyclotomic_modulus(ctx5, 1)
    pi = ExtScalar.uniformizer(mod)
    rep = valuation_bound_check(f, PointTuple([pi ** 2, pi]))
    assert rep.holds and rep.strict is False
    assert rep.value_valuation == Fraction(1, 2)


def test_bound_check_equality_example(ctx5):
    f = MultiSeries.from_terms(ctx5, 2, {(0, 0): 5, (1, 0): 1, (1, 2): 1})
    base = ExtensionModulus.base(ctx5)
    theta = PointTuple([ExtScalar.from_poly(base, [5]),
                        ExtScalar.from_poly(base, [5])])
    rep = valuation_bound_check(f, theta)
    # v(2*5 + 5^3) = 1 = V_f(1,1) for odd p
    assert rep.holds and rep.value_valuation == 1 and rep.strict is False


def test_bound_check_strict_on_cancellation(ctx5):
    f = MultiSeries.from_terms(ctx5, 2, {(1, 0): 1, (0, 1): 1})
    base = ExtensionModulus.base(ctx5)
    theta = PointTuple([ExtScalar.from_poly(base, [5]),
                        ExtScalar.from_poly(base, [-5])])
    rep = valuation_bound_check(f, theta)
    assert rep.holds
    assert rep.value_valuation is None      # zero at working precision
    assert rep.value_floor > rep.copolygon_value


def test_bound_check_drops_planes_at_an_exactly_zero_coordinate():
    """f = x1 x2 + x1^2 at theta = (0, 5) and (0, 0): both planes carry x1,
    so V_f is infinite, not the value a large stand-in for v(0) gives.  At
    (5, 0) only the x1^2 plane is left."""
    ctx = PrecisionContext(5, 10, 6)
    base = ExtensionModulus.base(ctx)
    zero, five = ExtScalar.zero(base), ExtScalar.from_poly(base, [5])
    terms = {(1, 1): 1, (2, 0): 1}
    certified = MultiSeries.from_terms(ctx, 2, terms)
    exact = MultiSeries.from_exact_terms(ctx, 2, terms)
    for point in ((zero, five), (zero, zero)):
        rep = valuation_bound_check(certified, PointTuple(point))
        assert rep.copolygon_value == INFINITE
        # f(theta) is certified zero only to a finite floor, short of V_f
        assert rep.value_floor < INFINITE and not rep.holds
        rep = valuation_bound_check(exact, PointTuple(point),
                                    polynomial=True)
        assert rep.copolygon_value == INFINITE and rep.value_floor == INFINITE
        assert rep.holds and rep.strict is False
    rep = valuation_bound_check(certified, PointTuple([five, zero]))
    assert rep.copolygon_value == 2 and rep.value_valuation == 2
    assert rep.holds and rep.strict is False


def test_eval_probe_and_bound_check_read_stored_integers(monkeypatch):
    """ms_eval, the torsion probe and the bound check read each series'
    stored integers straight into the extension: each still returns with
    MultiSeries.coefficient, and so terms(), refusing every call."""
    ctx = PrecisionContext(3, 10, 9)
    mod = cyclotomic_modulus(ctx, 1)
    pi = ExtScalar.uniformizer(mod)
    M = multiplicative_law(ctx)
    mulp = fg_multiplication_map(M, 3).series
    f = MultiSeries.from_terms(ctx, 2, {(1, 0): 3, (1, 1): Fraction(1, 3),
                                        (0, 3): 1})

    def refused(self, exps):
        raise AssertionError(f"coefficient{tuple(exps)} called")

    monkeypatch.setattr(MultiSeries, "coefficient", refused)
    assert not ms_eval(M.law, PointTuple([pi, pi ** 2])).value.is_zero
    ts = torsion_probe_dim1(mulp[0], 1, mod, expected=3, polynomial=True)
    assert ts.verdict == "complete-in-extension"
    assert valuation_bound_check(f, PointTuple([pi, pi ** 2])).holds


def test_orbit_fixed_origin(ctx5):
    M = multiplicative_law(ctx5)
    u = fg_multiplication_map(M, 2).series
    mod = cyclotomic_modulus(ctx5, 1)
    rec = orbit_analyze(u, PointTuple([ExtScalar.zero(mod)]), budget=4)
    assert rec.status == "periodic" and rec.period == 1 and rec.tail == 0


def test_orbit_cyclotomic_fixed_point():
    # zeta^(1+p) = zeta makes pi = zeta_p - 1 a fixed point of [1+p]_M
    for p in (3, 5):
        ctx = PrecisionContext(p, 14, 8)
        M = multiplicative_law(ctx)
        u = fg_multiplication_map(M, 1 + p).series
        pi = ExtScalar.uniformizer(cyclotomic_modulus(ctx, 1))
        rec = orbit_analyze(u, PointTuple([pi]), budget=6, polynomial=True)
        assert rec.status == "periodic"
        assert rec.period == 1 and rec.tail == 0


def test_orbit_escape_trajectory():
    # [p]_M sends zeta_(p^2)-1 through valuations 1/(p(p-1)), 1/(p-1), escape
    for p in (2, 3, 5):
        ctx = PrecisionContext(p, 14, 8)
        M = multiplicative_law(ctx)
        mulp = fg_multiplication_map(M, p).series
        pi2 = ExtScalar.uniformizer(cyclotomic_modulus(ctx, 2))
        rec = orbit_analyze(mulp, PointTuple([pi2]), budget=8,
                            polynomial=True)
        assert rec.status == "valuation-escape"
        assert rec.escape_at == 2
        (v0, e0), (v1, e1) = rec.valuations
        assert e0 and v0 == Fraction(1, p * (p - 1))
        assert e1 and v1 == Fraction(1, p - 1)
        assert rec.increase_violations == []


def test_orbit_period_two_has_no_tail(ctx5):
    # [-1]_M is a truncated (non-polynomial) series: honest tail accounting
    M = multiplicative_law(ctx5)
    minus = fg_multiplication_map(M, -1).series
    pi = ExtScalar.uniformizer(cyclotomic_modulus(ctx5, 1))
    rec = orbit_analyze(minus, PointTuple([pi]), budget=6)
    assert rec.status == "periodic"
    assert rec.tail == 0 and rec.period == 2


def test_orbit_inconclusive_on_budget(ctx5):
    M = multiplicative_law(ctx5)
    two = fg_multiplication_map(M, 2).series   # invertible, infinite orbit
    pi = ExtScalar.uniformizer(cyclotomic_modulus(ctx5, 1))
    rec = orbit_analyze(two, PointTuple([pi]), budget=3, polynomial=True)
    assert rec.status == "inconclusive"


def test_orbit_rejects_a_negative_budget(ctx5):
    """A negative budget is outside the flag's domain, even at the origin,
    whose orbit needs no step; budget 0 is a valid empty run."""
    M = multiplicative_law(ctx5)
    two = fg_multiplication_map(M, 2).series
    mod = cyclotomic_modulus(ctx5, 1)
    for start in (ExtScalar.uniformizer(mod), ExtScalar.zero(mod)):
        with pytest.raises(BadArgument, match="budget must be >= 0"):
            orbit_analyze(two, PointTuple([start]), budget=-1)
    rec = orbit_analyze(two, PointTuple([ExtScalar.uniformizer(mod)]),
                        budget=0)
    assert rec.status == "inconclusive" and rec.budget == 0


def test_orbit_rejects_unit_start(ctx5):
    M = multiplicative_law(ctx5)
    u = fg_multiplication_map(M, 2).series
    mod = cyclotomic_modulus(ctx5, 1)
    with pytest.raises(DivergentPoint):
        orbit_analyze(u, PointTuple([ExtScalar.one(mod)]))


@pytest.mark.parametrize("p,D", [(2, 8), (3, 12), (5, 8)])
def test_torsion_level_one(p, D):
    ctx = PrecisionContext(p, 14, D)
    M = multiplicative_law(ctx)
    mulp = fg_multiplication_map(M, p).series
    h = height_and_kernel_count(M, 1, mul_p=mulp)
    ts = torsion_probe_dim1(mulp[0], 1, cyclotomic_modulus(ctx, 1),
                            expected=h.kernel_order, polynomial=True)
    assert len(ts.roots) == p
    assert ts.verdict == "complete-in-extension"
    assert ts.multiplicity_free
    assert ts.lift_failures == 0
    nonzero = [r for r in ts.roots if not r.point.is_zero]
    assert all(r.point.valuation() == Fraction(1, p - 1) for r in nonzero)


@pytest.mark.parametrize("p,D", [(2, 8), (3, 12)])
def test_torsion_level_two(p, D):
    ctx = PrecisionContext(p, 14, D)
    M = multiplicative_law(ctx)
    g2 = fg_multiplication_map(M, p * p).series[0]
    h = height_and_kernel_count(M, 2,
                                mul_p=fg_multiplication_map(M, p).series)
    ts = torsion_probe_dim1(g2, 2, cyclotomic_modulus(ctx, 2),
                            expected=h.kernel_order, polynomial=True)
    assert len(ts.roots) == p * p
    assert ts.verdict == "complete-in-extension"
    assert ts.multiplicity_free


def test_torsion_level_two_in_small_extension_is_partial(ctx3):
    # the level-1 cyclotomic field only contains p of the p^2 roots
    M = multiplicative_law(ctx3)
    g2 = fg_multiplication_map(M, 9).series[0]
    h = height_and_kernel_count(M, 2,
                                mul_p=fg_multiplication_map(M, 3).series)
    ts = torsion_probe_dim1(g2, 2, cyclotomic_modulus(ctx3, 1),
                            expected=h.kernel_order, polynomial=True)
    assert len(ts.roots) == 3
    assert ts.verdict == "partial"


def test_torsion_in_unramified_extension(ctx2):
    # the base-field roots of [2]_M are found through the residue-rep digits
    # of an unramified quadratic extension
    M = multiplicative_law(ctx2)
    mulp = fg_multiplication_map(M, 2).series
    mod = ExtensionModulus(ctx2, [1, 1, 1], "unramified")
    ts = torsion_probe_dim1(mulp[0], 1, mod, expected=2, polynomial=True)
    assert len(ts.roots) == 2
    assert ts.verdict == "complete-in-extension"
    nonzero = [r for r in ts.roots if not r.point.is_zero]
    assert len(nonzero) == 1
    assert nonzero[0].point.same_at_working_precision(-2)


def test_torsion_additive_only_zero(ctx5):
    A = additive_law(ctx5, 1)
    G = fg_multiplication_map(A, 5).series[0]
    h = height_and_kernel_count(A, 1)
    ts = torsion_probe_dim1(G, 1, cyclotomic_modulus(ctx5, 1),
                            expected=h.kernel_order, polynomial=True)
    assert len(ts.roots) == 1 and ts.roots[0].point.is_zero
    assert ts.verdict == "complete-in-extension"


def test_roots_collapse_under_commuting_noninvertible(ctx2):
    # Prop-4.3 flavor: every root of g = [p^2]_M collapses under f = [p]_M
    M = multiplicative_law(ctx2)
    f = fg_multiplication_map(M, 2).series
    g_tuple = fg_multiplication_map(M, 4).series
    assert tuple_compose(f, g_tuple).same_at_working_precision(
        tuple_compose(g_tuple, f))
    ts = torsion_probe_dim1(g_tuple[0], 2, cyclotomic_modulus(ctx2, 2),
                            polynomial=True)
    assert len(ts.roots) == 4
    for root in ts.points():
        rec = orbit_analyze(f, PointTuple([root]), budget=6, polynomial=True)
        assert rec.status in ("valuation-escape", "periodic")
        if rec.status == "periodic":
            # only the exact fixed point 0 stays
            assert root.is_zero


def test_invertible_permutes_roots_of_commuting_noninvertible(ctx5):
    # Prop-4.4 flavor: u = [1+p]_M permutes the certified roots of [p]_M
    M = multiplicative_law(ctx5)
    u = fg_multiplication_map(M, 6).series
    mulp = fg_multiplication_map(M, 5).series
    ts = torsion_probe_dim1(mulp[0], 1, cyclotomic_modulus(ctx5, 1),
                            polynomial=True)
    roots = ts.points()
    images = []
    for r in roots:
        img = ms_eval(u, PointTuple([r]), polynomial=True).value
        matches = [i for i, s in enumerate(roots)
                   if img.same_at_working_precision(s)]
        assert len(matches) == 1
        images.append(matches[0])
    assert sorted(images) == list(range(len(roots)))


def twisted_multiplicative(ctx):
    """G = phi o M o (phi^-1, phi^-1) for phi = x + p x^2."""
    from fglab.series import compositional_inverse
    phi = TupleSeries([MultiSeries.from_terms(
        ctx, 1, {(1,): 1, (2,): ctx.p})])
    phi_inv = compositional_inverse(phi)
    M = multiplicative_law(ctx)
    inner = TupleSeries([
        phi_inv[0].map_variables(2, [0]),
        phi_inv[0].map_variables(2, [1])])
    return fg_validate(tuple_compose(phi, tuple_compose(M.law, inner)))


def test_intersection_reports(ctx5):
    M = multiplicative_law(ctx5)
    A = additive_law(ctx5, 1)
    mod = cyclotomic_modulus(ctx5, 1)

    def level_set(law):
        mulp = fg_multiplication_map(law, 5)
        h = height_and_kernel_count(law, 1, mul_p=mulp.series)
        return torsion_probe_dim1(mulp.series[0], 1, mod,
                                  expected=h.kernel_order, polynomial=True)

    ts_m = level_set(M)
    ts_a = level_set(A)
    same = intersection_probe(ts_m, ts_m, laws_equal=True)
    assert len(same.shared) == 5
    assert "full level set" in same.verdict
    cross = intersection_probe(ts_m, ts_a, laws_equal=False)
    assert len(cross.shared) == 1      # only the origin
    assert "distinct laws" in cross.verdict


def test_intersection_with_twisted_law():
    ctx = PrecisionContext(5, 18, 8)
    M = multiplicative_law(ctx)
    G = twisted_multiplicative(ctx)
    assert not G.law.same_at_working_precision(M.law)
    mod = cyclotomic_modulus(ctx, 1)

    def level_set(law):
        mulp = fg_multiplication_map(law, 5)
        return torsion_probe_dim1(mulp.series[0], 1, mod, polynomial=False)

    rep = intersection_probe(level_set(M), level_set(G), laws_equal=False)
    assert rep.count_first == 5
    assert "distinct laws" in rep.verdict
    assert len(rep.shared) >= 1        # origin is always shared


@pytest.mark.parametrize("raised,propagates", [
    (DivisionByZero("divisor is zero at working precision"), False),
    (RuntimeError("a defect, not a precision limit"), True),
])
def test_newton_lift_catches_only_typed_division_errors(
        ctx5, monkeypatch, raised, propagates):
    mod = ExtensionModulus.base(ctx5)
    # G(x) = x^2 + x - 6 and G'(x) = 2x + 1, both nonzero at x = 1
    coeffs = [ExtScalar.from_poly(mod, [c]) for c in (-6, 1, 1)]
    dcoeffs = [ExtScalar.from_poly(mod, [c]) for c in (1, 2)]
    x = ExtScalar.from_poly(mod, [1])

    def divide(self, other):
        raise raised

    monkeypatch.setattr(ExtScalar, "__truediv__", divide)
    if propagates:
        with pytest.raises(RuntimeError):
            _newton_lift(coeffs, dcoeffs, x, 3)
    else:
        assert _newton_lift(coeffs, dcoeffs, x, 3) is None
