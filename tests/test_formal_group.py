"""Group-law validation, negation, multiplication maps, Lubin-Tate builds."""

import math
from fractions import Fraction
from pathlib import Path

import pytest

from fglab.errors import (
    AxiomViolation,
    BadArgument,
    NotEndomorphism,
    PrecisionExhausted,
    UnsupportedShape,
)
from fglab.padic import INFINITE, PadicScalar, PrecisionContext
from fglab.series import (
    MultiSeries,
    TupleSeries,
    jacobian,
    tuple_compose,
)
import fglab.formal_group as fg
from fglab.formal_group import (
    LubinTate2Params,
    additive_law,
    endo_verify,
    fg_multiplication_map,
    fg_negation,
    fg_validate,
    group_add,
    height_and_kernel_count,
    lt2_build,
    lt2_min_precision,
    multiplicative_law,
)

from fglab.serialize import parse

from conftest import (
    assert_series_certified,
    assert_series_matches,
    lt2_law_oracle,
    poly_negation,
    series_to_fractions,
)

GOLDEN = Path(__file__).parent / "golden"


def example_2d_law(ctx):
    """F(X,Y) = (x1 + y1 + x2 y2, x2 + y2): vars (x1, x2, y1, y2)."""
    return TupleSeries([
        MultiSeries.from_terms(ctx, 4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1,
                                        (0, 1, 0, 1): 1}),
        MultiSeries.from_terms(ctx, 4, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1})])


def test_multiplicative_law_certified(ctx5):
    M = multiplicative_law(ctx5)
    assert M.dimension == 1
    assert M.certificate.degree == ctx5.degree_cap
    assert set(M.certificate.axioms) == {
        "linear-part", "unit", "associativity", "inverse"}
    assert M.certificate.commutative is True


def test_example_2d_law_certified(ctx5):
    law = fg_validate(example_2d_law(ctx5))
    assert law.dimension == 2
    assert law.certificate.commutative is True


def test_unit_axiom_violation(ctx5):
    bad = TupleSeries([MultiSeries.from_terms(
        ctx5, 2, {(1, 0): 1, (0, 1): 1, (2, 0): 1})])
    with pytest.raises(AxiomViolation) as err:
        fg_validate(bad)
    assert err.value.axiom == "unit"
    assert err.value.degree == 2


def test_associativity_violation(ctx5):
    # F = X + Y + X^2 Y has the right linear part and unit laws... it does
    # not: F(X,0) = X. Associativity is the first failure.
    bad = TupleSeries([MultiSeries.from_terms(
        ctx5, 2, {(1, 0): 1, (0, 1): 1, (2, 1): 1})])
    with pytest.raises(AxiomViolation) as err:
        fg_validate(bad)
    assert err.value.axiom == "associativity"


def test_linear_part_violation(ctx5):
    bad = TupleSeries([MultiSeries.from_terms(ctx5, 2, {(1, 0): 2, (0, 1): 1})])
    with pytest.raises(AxiomViolation) as err:
        fg_validate(bad)
    assert err.value.axiom == "linear-part"


def test_negation_additive(ctx5):
    A = additive_law(ctx5, 1)
    assert_series_matches(fg_negation(A)[0], {(1,): -1})


def test_negation_multiplicative(ctx5):
    M = multiplicative_law(ctx5)
    iota = fg_negation(M)[0]
    expected = {(k,): Fraction((-1) ** k) for k in range(1, 9)}
    assert_series_matches(iota, expected)


def test_negation_certifies_no_more_than_the_law():
    """The (3,1,1) Lubin-Tate law capped at 3^7 is certified to 3^7 at
    degree 2, so F + 3^7 x1^2 is as valid as F; its negation differs from
    F's at degree 2, and the negation may certify at most 7 digits there."""
    parsed = parse((GOLDEN / "lt2_p3_h11_group.doc").read_text())
    law = fg.FormalGroupLaw(2, TupleSeries(
        [c._with_precision((7,) * 10) for c in parsed.law]),
        parsed.certificate)
    assert [c.prof(2) for c in law.law] == [7, 7]
    iota = fg_negation(law)
    assert all(c.prof(2) <= 7 for c in iota)
    moved = [series_to_fractions(c) for c in law.law]
    moved[0][(2, 0, 0, 0)] = moved[0].get((2, 0, 0, 0), 0) + 3 ** 7
    for out, exact in zip(iota, poly_negation(moved, 3)):
        assert_series_certified(out, exact, 3)


def test_negation_checks_its_own_solve(ctx5, monkeypatch):
    """fg_negation checks the iota it solves against F(X, iota(X)) = 0
    before caching it: a wrong solve raises AxiomViolation("inverse")."""
    M = multiplicative_law(ctx5)
    stray = TupleSeries([MultiSeries.from_terms(ctx5, 1,
                                                {(1,): -1, (2,): 5})])
    monkeypatch.setattr(fg, "_solve_negation", lambda F: stray)
    with pytest.raises(AxiomViolation) as err:
        fg_negation(M)
    assert err.value.axiom == "inverse"
    assert M._negation is None


@pytest.mark.parametrize("make", [
    multiplicative_law,
    lambda ctx: fg_validate(example_2d_law(ctx)),
    lambda ctx: fg_validate(
        parse((GOLDEN / "lt2_p2_h12_group.doc").read_text()).law),
], ids=["multiplicative", "example_2d", "lt2"])
def test_negation_of_a_validated_law_matches_the_oracle(ctx5, make):
    """The negation of a freshly validated law agrees with the naive
    Fraction negation of the same law on every certified digit."""
    F = make(ctx5)
    iota = fg_negation(F)
    exact = poly_negation([series_to_fractions(c) for c in F.law],
                          F.ctx.degree_cap)
    for out, want in zip(iota, exact):
        assert_series_certified(out, want, F.ctx.degree_cap)


def test_negation_example_2d(ctx5):
    law = fg_validate(example_2d_law(ctx5))
    iota = fg_negation(law)
    assert_series_matches(iota[0], {(1, 0): -1, (0, 2): 1})
    assert_series_matches(iota[1], {(0, 1): -1})
    # F(iota(X), X) = 0 as well
    ctx = ctx5
    ident = TupleSeries.identity(ctx, 2)
    probe = group_add(law.law, iota, ident)
    assert probe.is_zero


def test_multiplication_map_small(ctx5):
    M = multiplicative_law(ctx5)
    one = fg_multiplication_map(M, 1).series
    assert one.same_at_working_precision(TupleSeries.identity(ctx5, 1))
    zero = fg_multiplication_map(M, 0).series
    assert zero.is_zero
    two = fg_multiplication_map(M, 2).series
    assert_series_matches(two[0], {(1,): 2, (2,): 1})


@pytest.mark.parametrize("n", [3, 5, 7])
def test_multiplication_map_binomial_oracle(ctx5, n):
    M = multiplicative_law(ctx5)
    series = fg_multiplication_map(M, n).series[0]
    expected = {(k,): math.comb(n, k)
                for k in range(1, min(n, ctx5.degree_cap) + 1)}
    assert_series_matches(series, expected)


def test_multiplication_by_p_frobenius_mod_p(ctx5):
    M = multiplicative_law(ctx5)
    mp = fg_multiplication_map(M, 5).series[0]
    residues = {tuple(e): c.residue(1) for e, c in mp.terms() if c.residue(1)}
    assert residues == {(5,): 1}


def test_negative_multiplication(ctx5):
    M = multiplicative_law(ctx5)
    minus = fg_multiplication_map(M, -1).series
    assert minus.same_at_working_precision(fg_negation(M))


def test_multiplication_compose_and_add_laws(ctx5):
    M = multiplicative_law(ctx5)
    m2 = fg_multiplication_map(M, 2).series
    m3 = fg_multiplication_map(M, 3).series
    m5 = fg_multiplication_map(M, 5).series
    m6 = fg_multiplication_map(M, 6).series
    assert tuple_compose(m2, m3).same_at_working_precision(m6)
    assert group_add(M.law, m2, m3).same_at_working_precision(m5)


def test_multiplication_padic_multiplier():
    # [a]_M = (1+x)^a - 1 has coefficients C(a, k); a = 1/(1-p) in Z_p
    ctx = PrecisionContext(3, 12, 6)
    M = multiplicative_law(ctx)
    a = Fraction(1, 1 - 3)
    endo = fg_multiplication_map(M, a)
    series = endo.series[0]
    for k in range(1, 7):
        binom = Fraction(1)
        for i in range(k):
            binom *= (a - i)
        binom /= math.factorial(k)
        assert series.coefficient((k,)).same_at_working_precision(binom)
    J = jacobian(endo.series)
    assert J[0][0].same_at_working_precision(a)


@pytest.mark.parametrize("pnd", [(3, 12, 6), (2, 14, 8)])
def test_padic_multiplier_certifies_only_true_digits(pnd):
    """a = -3/11 agrees with 66 modulo 3^4, 3^5 and 3^6, and with 23 modulo
    2^5, 2^6 and 2^7: three equal truncations must not stop the computation
    early.  Every certified coefficient of [a]_M equals C(a, k)."""
    ctx = PrecisionContext(*pnd)
    a = Fraction(-3, 11)
    series = fg_multiplication_map(multiplicative_law(ctx), a).series[0]
    binom = Fraction(1)
    for k in range(1, ctx.degree_cap + 1):
        binom = binom * (a - k + 1) / k
        assert series.coefficient((k,)).same_at_working_precision(binom), k
    assert series.floor >= ctx.abs_precision - fg._vp_factorial(
        ctx.degree_cap, ctx.p)


def test_padic_multiplier_zero_only_at_precision(ctx5):
    """0 mod 5^3 is not the zero multiplier ([125]_M has X coefficient 125):
    its map is the zero series certified to at most 5^3; an exact zero still
    gives the exact zero."""
    M = multiplicative_law(ctx5)
    a = PadicScalar.exact(ctx5, 125).cap_precision(3)
    zero = fg_multiplication_map(M, a).series[0]
    assert zero.is_zero and zero.profile is not None
    assert all(zero.prof(d) <= 3 for d in range(ctx5.degree_cap + 1))
    for exact_zero in (Fraction(0), PadicScalar.zero(ctx5)):
        series = fg_multiplication_map(M, exact_zero).series[0]
        assert series.is_zero and series.profile is None


def test_padic_multiplier_needs_integral_law(ctx5):
    """X + Y + (1/5)XY is a group law over Z[1/5], not over Z_5: its [a]
    for a p-adic a has no digit bound, so the map refuses it."""
    law = fg_validate(TupleSeries([MultiSeries.from_terms(
        ctx5, 2, {(1, 0): 1, (0, 1): 1, (1, 1): Fraction(1, 5)})]))
    with pytest.raises(BadArgument):
        fg_multiplication_map(law, Fraction(1, 7))
    with pytest.raises(BadArgument):
        fg_multiplication_map(multiplicative_law(ctx5), Fraction(1, 5))


def test_integral_fraction_multiplier_takes_the_integer_path(ctx5):
    """Fraction(3) is the integer 3: it loses no v_p(D!) digits to the
    p-adic path (on X + Y + XY at (5, 12, 8) that path certifies 11)."""
    M = multiplicative_law(ctx5)
    for n in (3, -2):
        assert fg_multiplication_map(M, Fraction(n)).series.identical(
            fg_multiplication_map(M, n).series)


def test_padic_multiplier_computes_one_integer_multiple(ctx5, monkeypatch):
    calls = []
    real = fg._int_multiple

    def counting(F, n):
        calls.append(n)
        return real(F, n)

    monkeypatch.setattr(fg, "_int_multiple", counting)
    M = multiplicative_law(ctx5)
    for a in (Fraction(1, 7), Fraction(3132, 7),
              PadicScalar.exact(ctx5, Fraction(1, 7)).cap_precision(6)):
        calls.clear()
        fg_multiplication_map(M, a)
        assert len(calls) == 1


def test_endo_verify(ctx5):
    M = multiplicative_law(ctx5)
    assert endo_verify(M, TupleSeries.identity(ctx5, 1)).certified
    assert endo_verify(M, fg_multiplication_map(M, 5).series).certified
    square = TupleSeries([MultiSeries.from_terms(ctx5, 1, {(2,): 1})])
    with pytest.raises(NotEndomorphism) as err:
        endo_verify(M, square)
    component, exps = err.value.witness
    assert sum(exps) == 2


def test_height_multiplicative(ctx5):
    M = multiplicative_law(ctx5)
    rep = height_and_kernel_count(M, 1)
    assert rep.height == 1 and rep.kernel_order == 5
    rep2 = height_and_kernel_count(M, 2)
    assert rep2.kernel_order == 25


def test_height_level_stays_within_the_digit_cap(ctx5):
    """From level N on, p^level vanishes modulo p^N: no certified digit
    tells the level apart from N, so a larger level is refused before any
    [p^level]_F is built."""
    M = multiplicative_law(ctx5)
    N = ctx5.abs_precision
    assert height_and_kernel_count(M, N).kernel_order == 5 ** N
    for level in (0, N + 1, 10000):
        with pytest.raises(BadArgument):
            height_and_kernel_count(M, level)


def test_height_refuses_a_non_integral_mul_p(ctx5):
    M = multiplicative_law(ctx5)
    fake = TupleSeries([MultiSeries.from_terms(
        ctx5, 1, {(1,): 5, (2,): Fraction(1, 5), (5,): 1})])
    with pytest.raises(UnsupportedShape):
        height_and_kernel_count(M, 1, mul_p=fake)


def test_height_additive_infinite(ctx5):
    A = additive_law(ctx5, 1)
    rep = height_and_kernel_count(A, 1)
    assert rep.height is INFINITE and rep.kernel_order is INFINITE


def test_height_example_2d_infinite(ctx5):
    # [5]_F = 5 X + 5 (higher) for the unipotent example: infinite height
    law = fg_validate(example_2d_law(ctx5))
    rep = height_and_kernel_count(law, 1)
    assert rep.height is INFINITE


def test_height_product_law(ctx5):
    # M x M has [p] = (x1^p, x2^p) mod p: rank p^2, height 2
    prod = TupleSeries([
        MultiSeries.from_terms(ctx5, 4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1,
                                         (1, 0, 1, 0): 1}),
        MultiSeries.from_terms(ctx5, 4, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1,
                                         (0, 1, 0, 1): 1})])
    law = fg_validate(prod)
    rep = height_and_kernel_count(law, 2)
    assert rep.height == 2 and rep.kernel_order == 5 ** 4


def test_height_unsupported_non_monomial(ctx5):
    law = fg_validate(example_2d_law(ctx5))
    fake_mulp = TupleSeries([
        MultiSeries.from_terms(ctx5, 2, {(5, 0): 1, (0, 5): 1}),
        MultiSeries.from_terms(ctx5, 2, {(0, 5): 1})])
    with pytest.raises(UnsupportedShape):
        height_and_kernel_count(law, 1, mul_p=fake_mulp)


@pytest.mark.parametrize("p,h1,h2", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
def test_lt2_build(p, h1, h2):
    D = p ** (h1 + h2)
    N = lt2_min_precision(h1, h2, p, D)
    ctx = PrecisionContext(p, N, D)
    res = lt2_build(LubinTate2Params(h1, h2, ctx))
    # logarithm leading terms match the recursive display
    L1 = res.log[0]
    assert L1.coefficient((1, 0)).same_at_working_precision(1)
    assert L1.coefficient((0, p ** h1)) \
        .same_at_working_precision(Fraction(1, p))
    if p ** (h1 + h2) <= D:
        assert L1.coefficient((p ** (h1 + h2), 0)) \
            .same_at_working_precision(Fraction(1, p * p))
    # group law is certified and commutative; congruences hold
    assert res.group.certificate.degree == D
    assert res.group.certificate.commutative is True
    assert res.congruences["linear_part_is_p_times_identity"]
    assert res.congruences["frobenius_shape_mod_p"]
    # logarithm additivity: L(F(X,Y)) = L(X) + L(Y)
    F = res.group.law
    LF = tuple_compose(res.log, F)
    LX = res.log.map_variables(4, [0, 1])
    LY = res.log.map_variables(4, [2, 3])
    assert LF.same_at_working_precision(LX + LY)
    # [p]_F is an endomorphism and J0 = p Id
    assert endo_verify(res.group, res.mul_p.series).certified
    J = jacobian(res.mul_p.series)
    for i in range(2):
        for j in range(2):
            want = p if i == j else 0
            assert J[i][j].same_at_working_precision(want)
    # height h1 + h2 via the monomial basis count
    rep = height_and_kernel_count(res.group, 1, mul_p=res.mul_p.series)
    assert rep.height == h1 + h2
    assert rep.kernel_order == p ** (h1 + h2)


def test_lt2_rejects_bad_params():
    ctx = PrecisionContext(2, 12, 4)
    with pytest.raises(ValueError):
        LubinTate2Params(2, 2, ctx)
    with pytest.raises(ValueError):
        LubinTate2Params(0, 1, ctx)
    # degree cap below p^min(h1,h2)
    tiny = PrecisionContext(5, 12, 4)
    with pytest.raises(ValueError):
        LubinTate2Params(1, 1, tiny)


def test_lt2_budget_guard():
    ctx = PrecisionContext(2, 3, 4)
    with pytest.raises(PrecisionExhausted):
        lt2_build(LubinTate2Params(1, 1, ctx))


@pytest.mark.parametrize("p,h1,h2", [(2, 1, 1), (3, 1, 1)])
def test_lt2_group_matches_rational_oracle(p, h1, h2):
    # independent dual route: build F = L^{-1}(L(X)+L(Y)) entirely in
    # Fraction arithmetic (the closed-form logarithm and the conftest
    # inverse) and compare coefficientwise
    from conftest import lt2_log_oracle, poly_add, poly_compose, poly_inverse
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    res = lt2_build(LubinTate2Params(h1, h2, ctx))
    t1, t2 = lt2_log_oracle(p, h1, h2, D)
    inv1, inv2 = poly_inverse([t1, t2], D)

    def widen(poly, pos):
        out = {}
        for (i, j), c in poly.items():
            exps = [0, 0, 0, 0]
            exps[pos[0]], exps[pos[1]] = i, j
            out[tuple(exps)] = c
        return out

    g1 = poly_add(widen(t1, (0, 1)), widen(t1, (2, 3)))
    g2 = poly_add(widen(t2, (0, 1)), widen(t2, (2, 3)))
    for comp_rat, comp_padic in zip((inv1, inv2), res.group.law.components):
        want = poly_compose(comp_rat, [g1, g2], D)
        assert_series_matches(comp_padic, want)


@pytest.mark.parametrize("p,h1,h2", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
def test_lt2_log_and_mul_p_match_rational_oracle(p, h1, h2):
    """L and [p]_F = L^{-1}(pL) against the closed-form logarithm and the
    conftest Fraction inverse and composition."""
    from conftest import lt2_log_oracle, poly_compose, poly_inverse, poly_scale
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    res = lt2_build(LubinTate2Params(h1, h2, ctx))
    log = lt2_log_oracle(p, h1, h2, D)
    pL = [poly_scale(t, p) for t in log]
    for t, comp in zip(log, res.log.components):
        assert_series_matches(comp, t)
    for inv, comp in zip(poly_inverse(log, D), res.mul_p.series.components):
        assert_series_matches(comp, poly_compose(inv, pL, D))


def _lt2(p, h1, h2):
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    return lt2_build(LubinTate2Params(h1, h2, ctx))


@pytest.mark.parametrize("p,h1,h2", [(2, 1, 1), (2, 1, 2), (3, 1, 1),
                                     (2, 1, 3)])
def test_lt2_law_certifies_every_digit_at_full_precision(p, h1, h2):
    """Every digit of the built law, stored or absent, agrees with
    L^-1(L(X) + L(Y)) composed over Q, and each component is certified
    flat at N."""
    res = _lt2(p, h1, h2)
    D, N = res.group.ctx.degree_cap, res.group.ctx.abs_precision
    for got, want in zip(res.group.law, lt2_law_oracle(p, h1, h2, D)):
        assert [got.prof(d) for d in range(D + 1)] == [N] * (D + 1)
        assert_series_certified(got, want, D)


@pytest.mark.parametrize("p,h1,h2", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
def test_lt2_law_passes_fg_validate(p, h1, h2):
    """fg_validate, which every document reader runs, accepts the built
    law and certifies what lt2_build certified."""
    group = _lt2(p, h1, h2).group
    assert fg_validate(group.law).certificate == group.certificate


def test_lt2_build_refuses_a_wrong_logarithm_inverse(monkeypatch):
    """An L^-1 with one wrong degree-3 term breaks L(F) = L(X) + L(Y):
    lt2_build raises AxiomViolation with a degree-3 witness."""
    real = fg._lt2_exact

    def broken(ctx, log_terms):
        L, Linv = real(ctx, log_terms)
        stray = MultiSeries.from_exact_terms(ctx, 2, {(2, 1): 1})
        return L, TupleSeries([Linv[0] + stray, Linv[1]])

    monkeypatch.setattr(fg, "_lt2_exact", broken)
    with pytest.raises(AxiomViolation) as err:
        _lt2(2, 1, 2)
    assert err.value.degree == 3 and err.value.witness is not None


def test_lt2_build_composes_only_exact_series(monkeypatch):
    """lt2_build neither calls fg_validate nor composes a certified
    series: the law is built and checked on exact series."""
    def refuse(candidate):
        raise AssertionError("fg_validate called")

    certified = []

    def recording(f, g, cap=None):
        operands = [f] if isinstance(f, MultiSeries) else list(f)
        operands += list(g)
        certified.append(any(c.profile is not None for c in operands))
        return tuple_compose(f, g, cap=cap)

    monkeypatch.setattr(fg, "fg_validate", refuse)
    monkeypatch.setattr(fg, "tuple_compose", recording)
    res = _lt2(3, 1, 1)
    assert res.group.certificate.commutative is True
    assert certified and not any(certified)


def test_height_rejects_dimension_three(ctx5):
    law = additive_law(ctx5, 3)
    fake = TupleSeries([MultiSeries.from_terms(ctx5, 3, {(5, 0, 0): 1}),
                        MultiSeries.from_terms(ctx5, 3, {(0, 5, 0): 1}),
                        MultiSeries.from_terms(ctx5, 3, {(0, 0, 5): 1})])
    with pytest.raises(UnsupportedShape):
        height_and_kernel_count(law, 1, mul_p=fake)


def test_mul_maps_commute_on_lt2():
    p = 2
    D = 4
    ctx = PrecisionContext(p, lt2_min_precision(1, 1, p, D), D)
    res = lt2_build(LubinTate2Params(1, 1, ctx))
    m2 = res.mul_p.series
    m3 = fg_multiplication_map(res.group, 3).series
    assert tuple_compose(m2, m3).same_at_working_precision(
        tuple_compose(m3, m2))
    m6 = fg_multiplication_map(res.group, 6).series
    assert tuple_compose(m2, m3).same_at_working_precision(m6)


def test_associativity_sides_cost_the_same_products(monkeypatch):
    """F(X, F(Y,Z)) makes no more product terms than F(F(X,Y), Z) on the
    (2,1,2) Lubin-Tate law: the composition nests its Horner scheme by
    inner density, so the dense F(Y,Z) components are multiplied once per
    exponent, not once per exponent prefix of F.  The count (output terms
    over all MultiSeries.mul calls) does not depend on the machine."""
    p, h1, h2 = 2, 1, 2
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    F = lt2_build(LubinTate2Params(h1, h2, ctx)).group.law
    terms = [0]
    mul = MultiSeries.mul

    def counting_mul(self, other, cap=None):
        out = mul(self, other, cap)
        terms[0] += len(out.coeffs)
        return out

    monkeypatch.setattr(MultiSeries, "mul", counting_mul)
    FXY = F.map_variables(6, [0, 1, 2, 3])
    FYZ = F.map_variables(6, [2, 3, 4, 5])
    X3 = TupleSeries.identity(ctx, 2, num_vars=6, offset=0)
    Z3 = TupleSeries.identity(ctx, 2, num_vars=6, offset=4)
    left = group_add(F, FXY, Z3)
    left_terms, terms[0] = terms[0], 0
    right = group_add(F, X3, FYZ)
    assert terms[0] <= left_terms
    assert left.same_at_working_precision(right)


def test_validate_composes_only_the_associativity_sides(monkeypatch):
    """fg_validate composes F(F(X,Y), Z) and F(X, F(Y,Z)) and nothing else
    on the (2,1,2) Lubin-Tate law: the negation is implied by the linear
    part and left to fg_negation.  The count does not depend on the
    machine."""
    p, h1, h2 = 2, 1, 2
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    F = lt2_build(LubinTate2Params(h1, h2, ctx)).group.law
    calls = [0]

    def counting_compose(f, g, cap=None):
        calls[0] += 1
        return tuple_compose(f, g, cap=cap)

    monkeypatch.setattr(fg, "tuple_compose", counting_compose)
    fg_validate(F)
    assert calls[0] == 2
