"""Stability classification and Jacobian-driven reconstruction."""

import math
from fractions import Fraction

import pytest

from fglab.errors import (
    NonCommutingTarget,
    PrecisionExhausted,
    SingularStep,
)
from fglab.padic import PrecisionContext, teichmuller
from fglab.series import MultiSeries, TupleSeries, tuple_compose
from fglab.formal_group import (
    LubinTate2Params,
    fg_multiplication_map,
    lt2_build,
    lt2_min_precision,
    multiplicative_law,
)
import fglab.commutant as cm
from fglab.commutant import (
    commutant_reconstruct,
    group_from_jacobian,
    stability_classify,
)

from conftest import (
    assert_series_matches,
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


def test_group_from_jacobian_keeps_h_after_u_as_a_running_sum(monkeypatch):
    """Inside group_from_jacobian on the (2,1,2) Lubin-Tate [p]_F, every
    composition below the degree cap is u o h: h o u is kept as a running
    sum of full-cap compositions, so no h o u is recomposed at a partial
    cap.  The output still reproduces the law."""
    p, h1, h2 = 2, 1, 2
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    res = lt2_build(LubinTate2Params(h1, h2, ctx))
    u = res.mul_p.series
    outers = []

    def recording_compose(f, g, cap=None):
        if cap is not None and cap < D:
            outers.append(f)
        return tuple_compose(f, g, cap=cap)

    monkeypatch.setattr(cm, "tuple_compose", recording_compose)
    H = group_from_jacobian(u, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert len(outers) == D - 2          # caps k = 2 .. D-1
    assert all(f is u for f in outers)
    assert H.same_at_working_precision(res.group.law)
