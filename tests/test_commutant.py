"""Stability classification and Jacobian-driven reconstruction."""

import math
from fractions import Fraction

import pytest

from fglab.errors import (
    NonCommutingTarget,
    PrecisionExhausted,
    SingularStep,
)
from fglab.padic import INFINITE, PadicScalar, PrecisionContext, teichmuller
from fglab.series import MultiSeries, TupleSeries, tuple_compose
from fglab.formal_group import (
    LubinTate2Params,
    fg_multiplication_map,
    lt2_build,
    lt2_min_precision,
    multiplicative_law,
)
import fglab.commutant as cm
import fglab.series as series
from fglab.commutant import (
    commutant_reconstruct,
    group_from_jacobian,
    stability_classify,
)

from conftest import (
    assert_series_certified,
    assert_series_matches,
    frac_commutant,
    lt2_law_oracle,
    poly_add,
    poly_compose,
    poly_scale,
    ref_valuation,
    series_to_fractions,
)


def scaled_identity(ctx, d, scalars):
    return TupleSeries([MultiSeries.variable(ctx, d, i).scale(s)
                        for i, s in enumerate(scalars)])


def test_stability_of_p_scaling(ctx5):
    u = scaled_identity(ctx5, 2, [5, 5])
    verdict = stability_classify(u)
    assert verdict.stable


def test_zero_jacobian_not_stable(ctx5):
    u = TupleSeries([MultiSeries.from_terms(ctx5, 2, {(2, 0): 1}),
                     MultiSeries.from_terms(ctx5, 2, {(0, 2): 1})])
    verdict = stability_classify(u)
    assert not verdict.stable and verdict.reason == "zero-jacobian"


def test_root_of_unity_not_stable(ctx5):
    g = teichmuller(2, ctx5)
    u = scaled_identity(ctx5, 2, [g, g])
    verdict = stability_classify(u)
    assert not verdict.stable
    assert verdict.reason == "root-of-unity"
    assert verdict.order == 4
    assert verdict.degree == 5   # first m+1 with J0^(m+1) = J0


def test_resonant_diagonal_not_stable(ctx5):
    # lambda = (p, p^3): x1^3 resonates with lambda_2 at degree 3
    u = scaled_identity(ctx5, 2, [5, 125])
    verdict = stability_classify(u)
    assert not verdict.stable
    assert verdict.reason == "singular-difference"
    assert verdict.degree == 3


def test_reconstruct_identity_target():
    ctx = PrecisionContext(2, 20, 12)
    M = multiplicative_law(ctx)
    u = fg_multiplication_map(M, 2).series
    trace = commutant_reconstruct(u, [[1]])
    assert trace.series.same_at_working_precision(TupleSeries.identity(ctx, 1))


@pytest.mark.parametrize("a", [2, 3, 5])
def test_reconstruct_multiplication_maps(a):
    ctx = PrecisionContext(2, 24, 12)
    M = multiplicative_law(ctx)
    u = fg_multiplication_map(M, 2).series
    trace = commutant_reconstruct(u, [[a]])
    expected = {(k,): math.comb(a, k)
                for k in range(1, min(a, 12) + 1) if math.comb(a, k)}
    assert_series_matches(trace.series[0], expected)


def test_reconstruct_is_deterministic():
    ctx = PrecisionContext(3, 20, 10)
    M = multiplicative_law(ctx)
    u = fg_multiplication_map(M, 3).series
    t1 = commutant_reconstruct(u, [[4]])
    t2 = commutant_reconstruct(u, [[4]])
    assert t1.series.identical(t2.series)
    assert t1.steps == t2.steps


def test_reconstruct_commutation_soundness():
    ctx = PrecisionContext(3, 20, 8)
    M = multiplicative_law(ctx)
    u = fg_multiplication_map(M, 3).series
    h = commutant_reconstruct(u, [[7]]).series
    assert tuple_compose(u, h).same_at_working_precision(tuple_compose(h, u))


def test_singular_step_on_root_of_unity_fixture():
    ctx = PrecisionContext(5, 16, 8)
    g = teichmuller(2, ctx)
    u = scaled_identity(ctx, 2, [g, g])
    with pytest.raises(SingularStep) as err:
        commutant_reconstruct(u, [[2, 0], [0, 2]])
    assert err.value.degree == 5    # gamma^(m) = 1 first at m = p - 1 = 4


def test_non_commuting_target_rejected(ctx5):
    u = scaled_identity(ctx5, 2, [2, 3])
    assert stability_classify(u).stable
    with pytest.raises(NonCommutingTarget):
        commutant_reconstruct(u, [[0, 1], [0, 0]])


def _non_commuting_fixture():
    """u = (5x + y^2, 10y + xy) at p=5, N=8, D=5, and a block that does not
    commute with J0(u) = diag(5, 10)."""
    ctx = PrecisionContext(5, 8, 5)
    u = TupleSeries([MultiSeries.from_terms(ctx, 2, {(1, 0): 5, (0, 2): 1}),
                     MultiSeries.from_terms(ctx, 2, {(0, 1): 10, (1, 1): 1})])
    return u, [[1, 1], [0, 1]]


@pytest.mark.parametrize("which", ["reconstruct", "x-block", "y-block"])
def test_a_block_that_does_not_commute_is_refused_before_any_lift(
        monkeypatch, which):
    """Both reconstructions refuse a Jacobian block that does not commute
    with J0(u) with NonCommutingTarget, before any lift.  The two-block
    reconstruction once ran the whole lift and then reported precision
    exhaustion (VerificationFailure)."""
    u, block = _non_commuting_fixture()
    ident = [[1, 0], [0, 1]]

    def no_lift(*args):
        raise AssertionError("lift started")

    monkeypatch.setattr(cm, "_lift_commuting", no_lift)
    call = {"reconstruct": lambda: commutant_reconstruct(u, block),
            "x-block": lambda: group_from_jacobian(u, block, ident),
            "y-block": lambda: group_from_jacobian(u, ident, block)}[which]
    with pytest.raises(NonCommutingTarget):
        call()


def _counting_mat_mul(monkeypatch):
    """The list that gets one entry per ``commutant.mat_mul`` call."""
    calls = []
    real_mul = cm.mat_mul

    def counting(a, b):
        calls.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(cm, "mat_mul", counting)
    return calls


def test_stability_of_a_non_invertible_jacobian_skips_the_order_search(
        monkeypatch):
    """J0(u) = 101 is not invertible over Z_101, so it has no finite order:
    the root-of-unity search, which once multiplied J0 up to 101^2 times,
    does not run."""
    ctx = PrecisionContext(101, 8, 6)
    calls = _counting_mat_mul(monkeypatch)
    assert stability_classify(scaled_identity(ctx, 1, [101])).stable
    assert calls == []


@pytest.mark.parametrize("d", [1, 2])
def test_stability_searches_the_order_on_integers_mod_p(monkeypatch, d):
    """J0(u) = 1010 = 1 + 1009 is a unit of infinite order in Z_1009: its
    order mod p is 1, and 1010 is not 1, so it has no finite order.  The
    order search, which once multiplied J0 up to 1009^2 (d=1) or 1009^4
    (d=2) times, makes no matrix product."""
    ctx = PrecisionContext(1009, 8, 6)
    calls = _counting_mat_mul(monkeypatch)
    assert stability_classify(scaled_identity(ctx, d, [1010] * d)).stable
    assert calls == []


def test_stability_finds_a_root_of_unity_of_large_order(monkeypatch):
    """The Teichmueller lift of 11 mod 1009 has order 1008: found on the
    integers mod p, then confirmed by one power of J0 by squaring."""
    ctx = PrecisionContext(1009, 8, 4)
    calls = _counting_mat_mul(monkeypatch)
    verdict = stability_classify(
        scaled_identity(ctx, 1, [teichmuller(11, ctx)]))
    assert not verdict.stable and verdict.reason == "root-of-unity"
    assert verdict.order == 1008
    assert len(calls) <= 2 * (1008).bit_length()


@pytest.mark.parametrize("p,lam", [(2, 3), (2, 5), (3, 5)])
def test_stability_does_not_take_an_order_mod_p_to_the_n_for_a_root_of_unity(
        p, lam):
    """At N=4, lam^k = 1 mod p^4 for k = 4 (3 and 5 at p=2) or 54 (5 at
    p=3), yet neither Z_2 nor Z_3 has a root of unity but 1 and -1.  The
    difference operator is invertible through D=4, so u = lam X is
    stable."""
    ctx = PrecisionContext(p, 4, 4)
    assert stability_classify(scaled_identity(ctx, 1, [lam])).stable


def test_commuting_target_for_non_scalar_jacobian(ctx5):
    u = scaled_identity(ctx5, 2, [2, 3])
    trace = commutant_reconstruct(u, [[4, 0], [0, 9]])
    assert trace.series.same_at_working_precision(
        scaled_identity(ctx5, 2, [4, 9]))


def test_budget_guard_raises():
    ctx = PrecisionContext(2, 4, 12)
    M = multiplicative_law(ctx)
    u = fg_multiplication_map(M, 2).series
    with pytest.raises(PrecisionExhausted):
        commutant_reconstruct(u, [[3]])


def test_group_from_jacobian_additive():
    ctx = PrecisionContext(5, 16, 8)
    u = scaled_identity(ctx, 1, [5])
    H = group_from_jacobian(u, [[1]], [[1]])
    assert_series_matches(H[0], {(1, 0): 1, (0, 1): 1})
    assert len(H[0].coeffs) == 2


def test_group_from_jacobian_multiplicative():
    ctx = PrecisionContext(2, 24, 12)
    M = multiplicative_law(ctx)
    u = fg_multiplication_map(M, 2).series
    H = group_from_jacobian(u, [[1]], [[1]])
    assert_series_matches(H[0], {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert sorted(tuple(e) for e in H[0].support()) == \
        [(0, 1), (1, 0), (1, 1)]


def test_group_from_jacobian_recovers_lt2_law():
    # Theorem-3.6-style equality engine: the group law is pinned down by
    # one stable endomorphism and the identity Jacobian blocks
    p, h1, h2 = 2, 1, 1
    D = p ** (h1 + h2)
    N = lt2_min_precision(h1, h2, p, D) + 10
    ctx = PrecisionContext(p, N, D)
    res = lt2_build(LubinTate2Params(h1, h2, ctx))
    u = res.mul_p.series
    H = group_from_jacobian(u, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert H.same_at_working_precision(res.group.law)


def test_equality_engine_same_series_both_sides():
    ctx = PrecisionContext(2, 24, 10)
    M = multiplicative_law(ctx)
    u = fg_multiplication_map(M, 2).series
    H1 = group_from_jacobian(u, [[1]], [[1]])
    H2 = group_from_jacobian(u, [[1]], [[1]])
    assert H1.identical(H2)
    assert H1.same_at_working_precision(M.law)


def test_non_diagonal_linear_part_general_operator():
    # u = p * swap is stable with non-diagonal J0; the general homogeneous
    # operator (not the per-monomial scalar shortcut) must solve it
    ctx = PrecisionContext(5, 16, 6)
    u = TupleSeries([MultiSeries.from_terms(ctx, 2, {(0, 1): 5}),
                     MultiSeries.from_terms(ctx, 2, {(1, 0): 5})])
    verdict = stability_classify(u)
    assert verdict.stable
    # a commuting non-diagonal target: h = (3 x2, 3 x1)
    trace = commutant_reconstruct(u, [[0, 3], [3, 0]])
    expected = TupleSeries([MultiSeries.from_terms(ctx, 2, {(0, 1): 3}),
                            MultiSeries.from_terms(ctx, 2, {(1, 0): 3})])
    assert trace.series.same_at_working_precision(expected)
    # scalar targets commute too: h = 7 X
    trace2 = commutant_reconstruct(u, [[7, 0], [0, 7]])
    assert trace2.series.same_at_working_precision(
        scaled_identity(ctx, 2, [7, 7]))


def test_general_operator_solves_nonzero_residuals(monkeypatch):
    """A non-diagonal J0(u) with higher terms: the general operator solves
    nonzero residuals.  Every certified digit of h agrees with the same
    reconstruction at N=28, and u o h - h o u, recomputed on the rational
    values of h by the conftest oracle, vanishes at h's floor."""
    terms = [{(0, 1): 5, (2, 0): 1, (1, 1): 2}, {(1, 0): 5, (0, 2): 3}]
    target = [[0, 3], [3, 0]]

    def reconstruct(N):
        ctx = PrecisionContext(5, N, 6)
        u = TupleSeries([MultiSeries.from_terms(ctx, 2, t) for t in terms])
        return commutant_reconstruct(u, target).series

    rhs_terms = []
    real_solve = cm._DegreeSolver.solve

    def counting(self, degree, rhs):
        assert not self.diagonal
        rhs_terms.append(sum(len(c.coeffs) for c in rhs))
        return real_solve(self, degree, rhs)

    monkeypatch.setattr(cm._DegreeSolver, "solve", counting)
    h = reconstruct(16)
    assert len(rhs_terms) == 5 and all(rhs_terms)
    sharp = reconstruct(28)
    for out, ref in zip(h, sharp):
        for d in range(7):
            assert ref.prof(d) >= out.prof(d)
        for exps in {*out.support(), *ref.support()}:
            assert out.coefficient(exps).same_at_working_precision(
                ref.coefficient(exps).lift()), exps
    floor = min(c.prof(6) for c in h)
    assert floor >= 1
    hq = [series_to_fractions(c) for c in h]
    uq = [{e: Fraction(c) for e, c in t.items()} for t in terms]
    for ui, hi in zip(uq, hq):
        diff = poly_add(poly_compose(ui, hq, 6),
                        poly_scale(poly_compose(hi, uq, 6), -1))
        assert all(ref_valuation(c, 5) >= floor
                   for c in diff.values() if c), diff


def test_group_from_jacobian_composes_u_after_h_only_in_the_final_check(
        monkeypatch):
    """Inside group_from_jacobian on the (2,1,2) Lubin-Tate [p]_F, u o h is
    evaluated degree by degree without tuple_compose: no composition runs
    below the degree cap, and the final check composes u o H and H o right
    once each, afresh at the full cap.  The output still reproduces the
    law."""
    p, h1, h2 = 2, 1, 2
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    res = lt2_build(LubinTate2Params(h1, h2, ctx))
    u = res.mul_p.series
    calls = []

    def recording_compose(f, g, cap=None):
        calls.append((f, g, cap))
        return tuple_compose(f, g, cap=cap)

    monkeypatch.setattr(cm, "tuple_compose", recording_compose)
    H = group_from_jacobian(u, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert all(cap is None or cap >= D for _, _, cap in calls)
    after_h = [(g, cap) for f, g, cap in calls if f is u]
    assert len(after_h) == 1 and after_h[0][0] is H
    assert len([f for f, _, _ in calls if f is H]) == 1
    assert H.same_at_working_precision(res.group.law)


def test_the_lift_composes_with_right_in_one_pass(monkeypatch):
    """On the (2,1,2) lift every composition with right = (u(X1), u(X2)),
    the running sum's start o right and delta_k o right, k = 2..D, and the
    final check's h o right, is decided by its tail bound: it makes no
    ``series._min_plus`` call.  The final check's u o h is not, and still
    certifies the vector of the Horner levels."""
    p, h1, h2 = 2, 1, 2
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    u = lt2_build(LubinTate2Params(h1, h2, ctx)).mul_p.series
    count = [0]
    real_min_plus = series._min_plus

    def counting(*args):
        count[0] += 1
        return real_min_plus(*args)

    calls = []

    def recording_compose(f, g, cap=None):
        count[0] = 0
        out = tuple_compose(f, g, cap=cap)
        calls.append((f, g, count[0], out))
        return out

    monkeypatch.setattr(series, "_min_plus", counting)
    monkeypatch.setattr(cm, "tuple_compose", recording_compose)
    H = group_from_jacobian(u, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    with_right = [(f, n) for f, g, n, _ in calls if f is not u]
    assert [n for _, n in with_right] == [0] * (D + 1)
    assert with_right[-1][0] is H
    (n, u_h), = [(n, out) for f, g, n, out in calls if f is u]
    assert n > 0
    assert [c.prec for c in u_h] == [(17, 17, 17, 17, 17, 16, 15, 14, 13)] * 2


@pytest.mark.parametrize("p,h1,h2", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
def test_group_from_jacobian_certifies_only_digits_of_the_exact_law(
        p, h1, h2):
    """Every digit group_from_jacobian([p]_F, I, I) certifies, stored or
    absent, agrees with the law L^-1(L(X) + L(Y)) composed over Q."""
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    u = lt2_build(LubinTate2Params(h1, h2, ctx)).mul_p.series
    H = group_from_jacobian(u, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    for got, want in zip(H, lt2_law_oracle(p, h1, h2, D)):
        assert_series_certified(got, want, D)


# a stable u with non-diagonal J0(u) = 5 swap and terms of degree 2
GENERAL_U = [{(0, 1): 5, (2, 0): 1, (1, 1): 2}, {(1, 0): 5, (0, 2): 3}]


def _general_u():
    ctx = PrecisionContext(5, 16, 6)
    u = TupleSeries([MultiSeries.from_terms(ctx, 2, t) for t in GENERAL_U])
    return u, [{e: Fraction(c) for e, c in t.items()} for t in GENERAL_U]


@pytest.mark.parametrize("target", [[[2, 0], [0, 2]], [[0, 1], [1, 0]]])
def test_general_operator_reconstruct_against_the_fraction_solve(target):
    """Every digit commutant_reconstruct certifies for the general operator
    agrees with the commutant solved over Q, to at least 10 digits."""
    u, uq = _general_u()
    h = commutant_reconstruct(u, target).series
    start = [{e: Fraction(c) for e, c in zip([(1, 0), (0, 1)], row) if c}
             for row in target]
    for got, want in zip(h, frac_commutant(uq, start, uq, 6)):
        assert_series_certified(got, want, 6)
    assert min(c.prof(6) for c in h) >= 10


def test_general_operator_group_from_jacobian_against_the_fraction_solve():
    """Every digit group_from_jacobian(u, I, I) certifies for the general
    operator agrees with the two-block commutant solved over Q, to at least
    10 digits."""
    u, uq = _general_u()
    H = group_from_jacobian(u, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    right = [{e + (0, 0): c for e, c in t.items()} for t in uq] \
        + [{(0, 0) + e: c for e, c in t.items()} for t in uq]
    start = [{(1, 0, 0, 0): Fraction(1), (0, 0, 1, 0): Fraction(1)},
             {(0, 1, 0, 0): Fraction(1), (0, 0, 0, 1): Fraction(1)}]
    for got, want in zip(H, frac_commutant(uq, start, right, 6)):
        assert_series_certified(got, want, 6)
    assert min(c.prof(6) for c in H) >= 10


def test_reconstruct_builds_each_general_operator_once(monkeypatch):
    """With a non-diagonal J0(u), commutant_reconstruct builds each
    degree's operator matrix once, one capped composition per (component,
    monomial) basis element: the solve and the trace's determinant share
    it."""
    u, _ = _general_u()
    caps = []
    real_compose = cm.tuple_compose

    def counting(f, g, cap=None):
        if cap is not None:
            caps.append(cap)
        return real_compose(f, g, cap=cap)

    monkeypatch.setattr(cm, "tuple_compose", counting)
    trace = commutant_reconstruct(u, [[2, 0], [0, 2]])
    assert [k for k, _, _ in trace.steps] == [2, 3, 4, 5, 6]
    # 2 components times the k + 1 monomials of degree k in 2 variables
    assert {k: caps.count(k) for k in set(caps)} == \
        {k: 2 * (k + 1) for k in range(2, 7)}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_reconstruct_accounts_for_absent_residual_terms():
    """At p=2, N=6, D=3, h commuting with [3]_M with J0(h) = 18/7 has x^3
    coefficient C(18/7, 3) = 132/343 of valuation 2, but the solve skips
    the residual's absent terms and claims it is 0 + O(2^5)."""
    ctx = PrecisionContext(2, 6, 3)
    u = fg_multiplication_map(multiplicative_law(ctx), 3).series
    h = commutant_reconstruct(u, [[Fraction(18, 7)]]).series
    uq = [{(1,): Fraction(3), (2,): Fraction(3), (3,): Fraction(1)}]
    want, = frac_commutant(uq, [{(1,): Fraction(18, 7)}], uq, 3)
    assert want[(3,)] == Fraction(132, 343)
    assert_series_certified(h[0], want, 3)


def _brute_force_valuations(ctx, lams_in, lams_out, degree):
    """Per-monomial valuations of prod_j lambda_j^(e_j) - lambda_i, j over
    the input lambdas and i over the output lambdas."""
    vals = []
    for exps in cm._monomials_of_degree(len(lams_in), degree):
        for lam_i in lams_out:
            f = PadicScalar.exact(ctx, 1)
            for lam, e in zip(lams_in, exps):
                for _ in range(e):
                    f = f * lam
            f = f - lam_i
            vals.append(INFINITE if f.is_zero else f.valuation())
    return vals


DIAGONAL_LAMS = [(5, 5, 5), (5, 5, 10), (5, 25, 10), (5, 5, 125)]


# one-block cases keep their ids lams0..lams3
@pytest.mark.parametrize("lams, blocks", [
    pytest.param(lams, blocks,
                 id=f"lams{i}" + ("" if blocks == 1 else "-two-blocks"))
    for blocks in (1, 2) for i, lams in enumerate(DIAGONAL_LAMS)])
def test_diagonal_solver_valuations_match_per_monomial_factors(lams, blocks):
    """det_valuation and solve_loss of diagonal solvers with 1, 2 and 3
    groups of identical lambda equal the sum and the max of the
    per-monomial factor valuations, INFINITE from the resonant degree 3
    on for (5, 5, 125).  With two blocks the monomials run over 6 input
    variables, each lambda repeated, against the 3 output lambdas."""
    ctx = PrecisionContext(5, 30, 8)
    scalars = [PadicScalar.exact(ctx, x) for x in lams]
    zero = PadicScalar.zero(ctx)
    lam = [[x if i == j else zero for j, x in enumerate(scalars)]
           for i in range(3)]
    solver = cm._DegreeSolver(ctx, lam, blocks)
    assert len(solver._groups) == len(set(lams))
    for degree in range(2, 9):
        vals = _brute_force_valuations(ctx, scalars * blocks, scalars, degree)
        assert solver.det_valuation(degree) == sum(vals)
        assert solver.solve_loss(degree) == max(0, *vals)
