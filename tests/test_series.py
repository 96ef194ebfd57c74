"""Series ring operations, composition, Jacobians, inversion, evaluation."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fglab.commutant as cm
import fglab.formal_group as fg
import fglab.series as series
from fglab.commutant import group_from_jacobian
from fglab.errors import (
    BadArgument,
    DivergentPoint,
    FglabError,
    MixedContext,
    NonzeroConstantTerm,
    NotInvertible,
    PrecisionExhausted,
)
from fglab.formal_group import (
    LubinTate2Params,
    fg_negation,
    lt2_build,
    lt2_logarithm_terms,
    lt2_min_precision,
)
from fglab.padic import (
    INFINITE,
    ExtensionModulus,
    ExtScalar,
    PadicScalar,
    PointTuple,
    PrecisionContext,
)
from fglab.serialize import parse
from fglab.series import (
    MultiSeries,
    TupleSeries,
    _RelaxedCompose,
    _sum,
    _sum_of_products,
    apply_matrix,
    coeff_extract,
    compositional_inverse,
    jacobian,
    lift_by_degree,
    mat_det,
    mat_inverse,
    ms_eval,
    tuple_compose,
)

from conftest import (
    assert_series_certified,
    assert_series_matches,
    cyclotomic_modulus,
    poly_add,
    poly_compose,
    poly_inverse,
    poly_mul,
    poly_scale,
    ref_mul_prec,
    ref_valuation,
    series_to_fractions,
)

GOLDEN = Path(__file__).parent / "golden"


def test_add_zero_is_identity(ctx5):
    f = MultiSeries.from_terms(ctx5, 2, {(1, 0): 1, (1, 1): 3})
    assert (f + MultiSeries.zero(ctx5, 2)).same_at_working_precision(f)


def test_difference_of_squares(ctx5):
    f = MultiSeries.from_terms(ctx5, 2, {(1, 0): 1, (0, 1): 1})
    g = MultiSeries.from_terms(ctx5, 2, {(1, 0): 1, (0, 1): -1})
    assert_series_matches(f * g, {(2, 0): 1, (0, 2): -1})


def test_truncation_drops_high_degree():
    ctx = PrecisionContext(5, 12, 2)
    a = MultiSeries.from_terms(ctx, 2, {(1, 0): 1, (0, 1): 1})
    b = MultiSeries.from_terms(ctx, 2, {(1, 1): 1})
    assert (a * b).is_zero


def test_compose_with_identity(ctx5):
    F = TupleSeries([MultiSeries.from_terms(ctx5, 2, {(1, 0): 1, (0, 1): 1}),
                     MultiSeries.from_terms(ctx5, 2, {(1, 1): 1})])
    assert tuple_compose(F, TupleSeries.identity(ctx5, 2)) \
        .same_at_working_precision(F)


def test_compose_variable_swap(ctx5):
    F = TupleSeries([MultiSeries.from_terms(ctx5, 2, {(1, 0): 1, (0, 1): 1}),
                     MultiSeries.from_terms(ctx5, 2, {(1, 1): 1})])
    G = TupleSeries([MultiSeries.variable(ctx5, 2, 1),
                     MultiSeries.variable(ctx5, 2, 0)])
    H = tuple_compose(F, G)
    assert_series_matches(H[0], {(1, 0): 1, (0, 1): 1})
    assert_series_matches(H[1], {(1, 1): 1})


def test_compose_truncates():
    ctx = PrecisionContext(5, 12, 3)
    f = MultiSeries.from_terms(ctx, 1, {(2,): 1})
    g = TupleSeries([MultiSeries.from_terms(ctx, 1, {(1,): 1, (2,): 1})])
    assert_series_matches(tuple_compose(f, g), {(2,): 1, (3,): 2})


def test_compose_rejects_constant_term(ctx5):
    f = MultiSeries.variable(ctx5, 1, 0)
    g = TupleSeries([MultiSeries.from_terms(ctx5, 1, {(0,): 1, (1,): 1})])
    with pytest.raises(NonzeroConstantTerm):
        tuple_compose(f, g)


def test_compose_takes_a_certified_zero_inner_constant_as_exact():
    """An inner constant term certified zero is composed as exactly zero:
    x^2 composed with x + O(2) (uncertain at degree 0 only) is x^2, exact
    at degrees 0 and 1, not x^2 + 2cx + c^2 for some c = O(2)."""
    ctx = PrecisionContext(2, 4, 3)
    noise = MultiSeries.from_terms(
        ctx, 1, {(0,): PadicScalar.zero_at(ctx, 1)}).truncate(0)
    g = TupleSeries([noise + MultiSeries.variable(ctx, 1, 0)])
    assert g[0].prec == (1, 4, 4, 4)
    h = tuple_compose(MultiSeries.from_exact_terms(ctx, 1, {(2,): 1}), g)
    assert h.prec[:2] == (INFINITE, INFINITE)
    assert_series_matches(h, {(2,): 1})
    x = MultiSeries.from_exact_terms(ctx, 1, {(1,): 1})
    assert tuple_compose(x, g).prec[0] == INFINITE


def test_compose_arity_checked(ctx5):
    f = MultiSeries.variable(ctx5, 2, 0)
    g = TupleSeries([MultiSeries.variable(ctx5, 2, 0)])
    with pytest.raises(MixedContext):
        tuple_compose(f, g)


def _random_tuple(ctx, d, m, rng, density=0.5, zero_const=True):
    comps = []
    for _ in range(d):
        terms = {}
        for _ in range(int(density * 8) + 2):
            exps = tuple(rng.randint(0, 2) for _ in range(m))
            if sum(exps) > ctx.degree_cap or (zero_const and sum(exps) == 0):
                continue
            terms[exps] = rng.randint(-4, 4)
        comps.append(MultiSeries.from_terms(ctx, m, terms))
    return TupleSeries(comps)


def test_compose_matches_fraction_oracle(ctx5):
    rng = random.Random(7)
    for _ in range(10):
        f = _random_tuple(ctx5, 2, 2, rng)
        g = _random_tuple(ctx5, 2, 2, rng)
        got = tuple_compose(f, g)
        for t in range(2):
            oracle = poly_compose(
                series_to_fractions(f[t]),
                [series_to_fractions(g[0]), series_to_fractions(g[1])],
                ctx5.degree_cap)
            assert_series_matches(got[t], oracle)


def _drawn_exps(data, num_vars, D, const_ok):
    """A monomial of degree <= D (positive unless const_ok), or None."""
    exps = tuple(data.draw(st.lists(st.integers(0, 2), min_size=num_vars,
                                    max_size=num_vars)))
    if sum(exps) > D or (sum(exps) == 0 and not const_ok):
        return None
    return exps


def _drawn_terms(data, p, num_vars, size, lowest, D, const_ok):
    """Up to ``size`` monomials with coefficients u p^k, lowest <= k <= 2
    (k < 0: a p-power denominator)."""
    terms = {}
    for _ in range(size):
        exps = _drawn_exps(data, num_vars, D, const_ok)
        if exps is not None:
            u = data.draw(st.integers(-60, 60).filter(bool))
            terms[exps] = Fraction(u) * Fraction(p) ** data.draw(
                st.integers(lowest, 2))
    return terms


def _drawn_inner(data, p, n, D):
    """A single monomial, or a dense component: a linear term plus up to
    seven more monomials."""
    j = data.draw(st.integers(0, n - 1))
    e = data.draw(st.integers(1, 2))
    lead = tuple(e if i == j else 0 for i in range(n))
    u = data.draw(st.integers(-60, 60).filter(bool))
    terms = {lead: Fraction(u) * Fraction(p) ** data.draw(st.integers(-1, 2))}
    if data.draw(st.booleans()):
        terms[tuple(int(i == j) for i in range(n))] = Fraction(1)
        terms.update(_drawn_terms(data, p, n, data.draw(st.integers(2, 7)),
                                  -1, D, False))
    return terms


def _drawn_value(data, ms, const_ok):
    """Fractions that every claim of ms allows: each stored coefficient and
    up to three absent monomials, moved by r p^prof(d), |r| <= 2."""
    p = ms.ctx.p
    D = ms.ctx.degree_cap
    value = {ms.unpack(k): Fraction(c, p ** ms.shift)
             for k, c in ms.coeffs.items()}
    extra = [_drawn_exps(data, ms.num_vars, D, const_ok) for _ in range(3)]
    for exps in sorted(set(value) | {e for e in extra if e is not None}):
        pf = ms.prof(sum(exps))
        if pf != INFINITE:
            value[exps] = value.get(exps, 0) \
                + data.draw(st.integers(-2, 2)) * Fraction(p) ** pf
    return {e: c for e, c in value.items() if c}


@settings(max_examples=200)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), m=st.integers(1, 4),
       n=st.integers(1, 4), N=st.integers(3, 10), D=st.integers(2, 6))
def test_compose_certifies_only_true_digits(data, p, m, n, N, D):
    """Every digit tuple_compose certifies, stored or absent, agrees with
    the exact composition of any inputs their own claims allow.

    Outer coefficients carry p-power denominators; inner components mix
    single monomials with dense ones, so the Horner nesting order varies.
    The exact inputs move each stored and some absent coefficients within
    their certified precision.  A typed FglabError is an acceptable
    outcome.
    """
    ctx = PrecisionContext(p, N, D)
    cap = data.draw(st.integers(1, D))
    outer = [_drawn_terms(data, p, m, data.draw(st.integers(1, 8)), -2, D,
                          True)
             for _ in range(data.draw(st.integers(1, 2)))]
    inners = [_drawn_inner(data, p, n, D) for _ in range(m)]
    try:
        f = TupleSeries([MultiSeries.from_terms(ctx, m, t) for t in outer])
        g = TupleSeries([MultiSeries.from_terms(ctx, n, t) for t in inners])
        got = tuple_compose(f, g, cap=cap)
    except FglabError:
        return
    g_exact = [_drawn_value(data, gi, False) for gi in g]
    assume(all(g_exact))
    for fi, out in zip(f, got):
        exact = poly_compose(_drawn_value(data, fi, True), g_exact, cap)
        assert_series_certified(out, exact, cap)


def _drawn_jagged(data, ctx, n, terms):
    """``terms`` as a certified series: each coefficient capped at a drawn
    absolute precision, then, when drawn, weakened to a drawn jagged
    vector with entries -1..N+2."""
    N = ctx.abs_precision
    ms = MultiSeries.from_terms(ctx, n, {
        e: PadicScalar.exact(ctx, q).cap_precision(
            data.draw(st.integers(1, N + 2))) for e, q in terms.items()})
    if data.draw(st.booleans()):
        ms = ms._with_precision(tuple(data.draw(st.integers(-1, N + 2))
                                      for _ in range(ctx.degree_cap + 1)))
    return ms


def _compose_outcome(run):
    """(shift, vector, integers) of the series run() returns, or the class
    of the FglabError it raises."""
    try:
        out = run()
    except FglabError as exc:
        return type(exc)
    return out.shift, out.prec, out.coeffs


@settings(max_examples=300)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), m=st.integers(1, 3),
       n=st.integers(1, 3), N=st.integers(4, 12), D=st.integers(2, 7))
def test_compose_in_one_pass_where_the_tail_decides(data, p, m, n, N, D):
    """Wherever ``_tail_decides`` admits a certified outer series f,
    tuple_compose composes the exact stored parts and reduces once at
    f's tail; that gives what the Horner levels of ``_compose_one`` give
    with the tail added: the same shift, vector and integers, or the same
    error class.

    f has coefficients of valuation down to -2 and a jagged vector; the
    inner series are exact or certified, mixed, with p-power denominators.
    """
    ctx = PrecisionContext(p, N, D)
    cap = data.draw(st.integers(1, D))
    try:
        f = _drawn_jagged(data, ctx, m, _drawn_terms(
            data, p, m, data.draw(st.integers(1, 8)), -2, D, True))
        inner = [MultiSeries.from_exact_terms(ctx, n, t)
                 if data.draw(st.booleans()) else _drawn_jagged(
                     data, ctx, n, t)
                 for t in (_drawn_inner(data, p, n, D) for _ in range(m))]
    except FglabError:
        return
    if f.prec is None:
        return
    slope = series._slope(inner, cap)
    tail = series._tail(f, slope, cap)
    if not series._tail_decides(f, inner, slope, tail):
        return
    one_pass = _compose_outcome(
        lambda: tuple_compose(f, TupleSeries(inner), cap=cap))
    levels = _compose_outcome(lambda: series._compose_one(
        f, [series._PowerCache(c, cap) for c in inner], cap,
        n)._with_precision(tail))
    assert one_pass == levels


def _drawn_part(data, ctx, n, j, lossy):
    """A series exactly homogeneous of degree j in n variables: up to four
    monomials (a p-power denominator allowed) whose coefficients carry
    drawn absolute precisions when ``lossy``, or none."""
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        exps, left = [], j
        for _ in range(n - 1):
            exps.append(data.draw(st.integers(0, left)))
            left -= exps[-1]
        c = PadicScalar.exact(ctx, Fraction(
            data.draw(st.integers(-60, 60).filter(bool)))
            * Fraction(ctx.p) ** data.draw(st.integers(-1, 2)))
        if lossy:
            c = c.cap_precision(
                data.draw(st.integers(0, ctx.abs_precision)))
        terms[tuple(exps) + (left,)] = c
    return MultiSeries.from_terms(ctx, n, terms)


def _drawn_homogeneous_value(data, ms, j):
    """Fractions that every claim of the degree-j part ms allows, staying
    homogeneous: each stored and up to two absent degree-j coefficients
    moved by r p^prof(j), |r| <= 2."""
    p = ms.ctx.p
    value = {ms.unpack(k): Fraction(c, p ** ms.shift)
             for k, c in ms.coeffs.items()}
    for _ in range(2):
        exps = tuple(data.draw(st.lists(st.integers(0, j),
                                        min_size=ms.num_vars,
                                        max_size=ms.num_vars)))
        if sum(exps) == j:
            value.setdefault(exps, Fraction(0))
    pf = ms.prof(j)
    if pf != INFINITE:
        value = {e: c + data.draw(st.integers(-2, 2)) * Fraction(p) ** pf
                 for e, c in sorted(value.items())}
    return {e: c for e, c in value.items() if c}


@settings(max_examples=150)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), m=st.integers(1, 2),
       n=st.integers(1, 3), N=st.integers(3, 10), D=st.integers(2, 5))
def test_relaxed_compose_certifies_only_true_digits(data, p, m, n, N, D):
    """_RelaxedCompose: every digit it certifies in [f o h_(<k)]_k agrees
    with poly_compose of any inputs their claims allow, at every k.

    f is exact or certified (with an unstored tail), sometimes with only
    linear terms stored, so that its tail alone carries the precision; h is
    a linear start plus homogeneous parts certified by from_terms with
    PadicScalars, each moved within its precision at its own degree.  A
    typed FglabError is an acceptable outcome.
    """
    ctx = PrecisionContext(p, N, D)
    kind = data.draw(st.sampled_from(["exact", "fractions", "padic"]))
    top = data.draw(st.sampled_from([1, D]))
    outer = [{e: c for e, c in _drawn_terms(
        data, p, m, data.draw(st.integers(1, 8)), -2, D, False).items()
        if sum(e) <= top} for _ in range(data.draw(st.integers(1, 2)))]
    lossy = data.draw(st.booleans())
    try:
        if kind == "exact":
            f = TupleSeries([MultiSeries.from_exact_terms(ctx, m, t)
                             for t in outer])
        elif kind == "fractions":
            f = TupleSeries([MultiSeries.from_terms(ctx, m, t)
                             for t in outer])
        else:
            f = TupleSeries([MultiSeries.from_terms(ctx, m, {
                e: PadicScalar.exact(ctx, q).cap_precision(
                    data.draw(st.integers(1, N + 2)))
                for e, q in t.items()}) for t in outer])
        parts = [None] + [TupleSeries([_drawn_part(data, ctx, n, j, lossy)
                                       for _ in range(m)])
                          for j in range(1, D)]
        relaxed = _RelaxedCompose(f, parts[1])
        got = []
        for k in range(2, D + 1):
            got.append(relaxed.at(k))
            if k < D:
                relaxed.push(parts[k])
    except FglabError:
        return
    f_exact = [_drawn_value(data, fi, False) for fi in f]
    h_exact = [_drawn_homogeneous_value(data, c, 1) for c in parts[1]]
    assume(all(h_exact))
    for k, at_k in zip(range(2, D + 1), got):
        for fi, out in zip(f_exact, at_k):
            exact = {e: c for e, c in poly_compose(fi, h_exact, k).items()
                     if sum(e) == k}
            assert_series_certified(out, exact, k)
        if k < D:
            h_exact = [poly_add(h, _drawn_homogeneous_value(data, c, k))
                       for h, c in zip(h_exact, parts[k])]


def _drawn_addend(data, ctx, n):
    """The exact zero, a series zero at a drawn precision, an exact series,
    or a certified one whose coefficients carry drawn absolute precisions
    (so profiles and shifts differ between addends)."""
    kind = data.draw(st.sampled_from(["zero", "zero-at", "exact",
                                      "certified"]))
    if kind == "zero":
        return MultiSeries.zero(ctx, n)
    if kind == "zero-at":
        prec = data.draw(st.integers(1, ctx.abs_precision + 2))
        return MultiSeries.from_terms(
            ctx, n, {(0,) * n: PadicScalar.zero_at(ctx, prec)})
    terms = _drawn_terms(data, ctx.p, n, data.draw(st.integers(0, 5)), -2,
                         ctx.degree_cap, True)
    if kind == "exact":
        return MultiSeries.from_exact_terms(ctx, n, terms)
    top = ctx.abs_precision + 2
    return MultiSeries.from_terms(ctx, n, {
        e: PadicScalar.exact(ctx, q).cap_precision(
            data.draw(st.integers(-1, top)))
        for e, q in terms.items()})


@settings(max_examples=200)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), n=st.integers(1, 2),
       N=st.integers(2, 8), D=st.integers(2, 5))
def test_sum_is_the_fraction_sum_at_the_min_profile(data, p, n, N, D):
    """_sum over 1-6 addends: its precision is the pointwise min of the
    certified addends' precision at every degree (None when all are
    exact), and every digit it certifies, stored or absent, agrees with
    the Fraction sum of the stored values.  Stored coefficients are
    nonzero, reduced below p^(prof(d) + shift) when certified, and the
    shift is minimal."""
    ctx = PrecisionContext(p, N, D)
    try:
        addends = [_drawn_addend(data, ctx, n)
                   for _ in range(data.draw(st.integers(1, 6)))]
    except FglabError:
        return
    exact = {}
    for a in addends:
        for k, c in a.coeffs.items():
            e = a.unpack(k)
            exact[e] = exact.get(e, 0) + Fraction(c, p ** a.shift)
    certified = [a for a in addends if a.prec is not None]
    want = [min((a.prof(d) for a in certified), default=INFINITE)
            for d in range(D + 1)]
    try:
        got = _sum(a for a in addends)
    except PrecisionExhausted:
        assert any(c and want[sum(e)] < 1 for e, c in exact.items())
        return
    assert (got.prec is None) == (not certified)
    assert [got.prof(d) for d in range(D + 1)] == want
    assert_series_certified(got, exact, D)
    for k, c in got.coeffs.items():
        pf = got.prof(k >> got.degshift)
        assert c and (pf == INFINITE or 0 < c < p ** (pf + got.shift))
    assert got.shift == 0 or any(c % p for c in got.coeffs.values())


def _drawn_certified(data, ctx, n, size=None):
    """A certified series (never an exact one): up to ``size`` (default a
    drawn 1-6) monomials, a constant allowed, with coefficients u p^k,
    -2 <= k <= 2, either as Fractions or as PadicScalars cut to a drawn
    absolute precision."""
    size = size or data.draw(st.integers(1, 6))
    terms = _drawn_terms(data, ctx.p, n, size, -2, ctx.degree_cap, True)
    if data.draw(st.booleans()):
        terms = {e: PadicScalar.exact(ctx, q).cap_precision(
            data.draw(st.integers(1, ctx.abs_precision + 2)))
            for e, q in terms.items()}
    return MultiSeries.from_terms(ctx, n, terms)


@settings(max_examples=300)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), n=st.integers(1, 3),
       N=st.integers(3, 10), D=st.integers(2, 6))
def test_mul_certifies_only_true_digits(data, p, n, N, D):
    """Every digit MultiSeries.mul certifies through its cap, stored or
    absent, agrees with the poly_mul product of any inputs the factors'
    own claims allow; with and without a cap.  The relaxed lifts do all
    their work through ``mul(cap=k)``.  A typed FglabError is an
    acceptable outcome."""
    ctx = PrecisionContext(p, N, D)
    cap = data.draw(st.sampled_from([None, *range(1, D + 1)]))
    try:
        a, b = (_drawn_certified(data, ctx, n) for _ in range(2))
        got = a.mul(b, cap=cap)
    except FglabError:
        return
    assume(a.prec is not None and b.prec is not None)
    top = D if cap is None else cap
    exact = poly_mul(_drawn_value(data, a, True), _drawn_value(data, b, True),
                     top)
    assert_series_certified(got, exact, top)


def test_capped_mul_reads_a_factors_uncertainty_from_degree_0():
    """(1 + x/2)(2x + O(2^2)) at p=2, N=2, cut at degree 1.  The second
    factor is also 4 + 2x, and (1 + x/2)(4 + 2x) has x coefficient 4, so
    the product's x coefficient is known only mod 2: the 1/2 meets the
    uncertainty of the second factor from degree 0, not only from its
    lowest stored degree."""
    ctx = PrecisionContext(2, 2, 2)
    value = {(0,): Fraction(1), (1,): Fraction(1, 2)}
    a = MultiSeries.from_exact_terms(ctx, 1, value)
    b = MultiSeries.from_terms(ctx, 1, {
        (1,): PadicScalar.exact(ctx, 2).cap_precision(2)})
    got = a.mul(b, cap=1)
    for lift in ({(1,): 2}, {(0,): 4, (1,): 2}):
        assert_series_certified(got, poly_mul(value, lift, 1), 1)


def _drawn_factor(data, ctx, n):
    """A product factor: an exact series, its denominators small enough
    that each coefficient reads as a scalar, or a certified one with one
    term or with up to six."""
    kind = data.draw(st.sampled_from(["exact", "one-term", "certified"]))
    if kind == "exact":
        return MultiSeries.from_exact_terms(ctx, n, _drawn_terms(
            data, ctx.p, n, data.draw(st.integers(0, 5)),
            max(-2, 1 - ctx.abs_precision), ctx.degree_cap, True))
    return _drawn_certified(data, ctx, n, 1 if kind == "one-term" else None)


def _mul_then_sum(terms, cap):
    """The sum of the terms with each product formed on its own."""
    return _sum([a if b is None else a.mul(b, cap=cap) for a, b in terms])


@settings(max_examples=300)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), n=st.integers(1, 2),
       N=st.integers(2, 8), D=st.integers(2, 5))
def test_sum_of_products_is_the_fraction_sum_at_the_min_profile(data, p, n,
                                                                N, D):
    """_sum_of_products over 1-5 terms, each an addend or a product capped
    at one drawn cap: its precision is the pointwise min, degree by
    degree, of the addends' vectors and of ref_mul_prec for each product
    (None when all are exact).  Every digit it certifies, stored or absent, agrees
    with the poly_mul and poly_add oracle on any inputs the terms' own
    claims allow.  It is identical to forming each product with ``mul``
    and taking the ``_sum``, and raises PrecisionExhausted where that
    does, and otherwise only at a degree certified below p^1."""
    ctx = PrecisionContext(p, N, D)
    cap = data.draw(st.integers(1, D))
    try:
        terms = [(_drawn_addend(data, ctx, n), None)
                 if data.draw(st.booleans())
                 else (_drawn_factor(data, ctx, n), _drawn_factor(data, ctx, n))
                 for _ in range(data.draw(st.integers(1, 5)))]
    except FglabError:
        return
    try:
        want = _mul_then_sum(terms, cap)
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            _sum_of_products(terms, cap)
        return
    try:
        got = _sum_of_products(terms, cap)
    except PrecisionExhausted:
        # a raw key that a product alone drops, at a degree certified
        # below p^1
        assert min(want.prec[:cap + 1]) < 1
        return
    assert got.identical(want)
    vectors, exact = [], {}
    for a, b in terms:
        if b is None:
            if a.prec is not None:
                vectors.append([a.prof(d) for d in range(D + 1)])
            exact = poly_add(exact, _drawn_value(data, a, True))
        elif (a.prec is not None or a.coeffs) \
                and (b.prec is not None or b.coeffs):
            if a.prec is not None or b.prec is not None:
                vectors.append(ref_mul_prec(a, b, cap)
                               + [INFINITE] * (D - cap))
            exact = poly_add(exact, poly_mul(_drawn_value(data, a, True),
                                             _drawn_value(data, b, True),
                                             cap))
    if not vectors:
        assert got.prec is None
    else:
        assert [got.prof(d) for d in range(D + 1)] == \
            [min(x) for x in zip(*vectors)]
    assert_series_certified(got, exact, D)
    for k, c in got.coeffs.items():
        pf = got.prof(k >> got.degshift)
        assert c and (pf == INFINITE or 0 < c < p ** (pf + got.shift))
    assert got.shift == 0 or any(c % p for c in got.coeffs.values())


def test_sum_keeps_each_degree_where_the_addends_cross():
    """At p=2, N=3, D=2, O(2^2) at every degree plus x + x^2/4 (certified
    to 2^3 at degrees 0 and 1 and to 2^1 at degree 2) is certified to 2^2,
    2^2, 2^1, degree by degree: its x coefficient reads 1 + O(2^2), as both
    addends certify it, where their two lines cross."""
    ctx = PrecisionContext(2, 3, 2)
    zero = MultiSeries.from_terms(ctx, 1, {(0,): PadicScalar.zero_at(ctx, 2)})
    f = MultiSeries.from_terms(ctx, 1, {(1,): 1, (2,): Fraction(1, 4)})
    got = zero + f
    assert [got.prof(d) for d in range(3)] == [2, 2, 1]
    x = got.coefficient((1,))
    assert x.prec == 2 and x.residue(2) == 1


def test_sum_of_products_raises_where_a_product_on_its_own_raises():
    """x/2 times x/2 at p=2, N=2 certifies its x^2/4 only to p^0, so the
    product alone raises PrecisionExhausted; so does the sum with an
    addend that cancels the coefficient exactly."""
    ctx = PrecisionContext(2, 2, 2)
    a = MultiSeries.from_terms(ctx, 1, {(1,): Fraction(1, 2)})
    cancel = MultiSeries.from_exact_terms(ctx, 1, {(2,): Fraction(-1, 4)})
    with pytest.raises(PrecisionExhausted):
        a.mul(a)
    with pytest.raises(PrecisionExhausted):
        _sum_of_products([(a, a), (cancel, None)], 2)


def test_sum_of_products_raises_on_a_key_a_product_alone_drops():
    """At p=5, N=6, D=4, cap 2: (x/125)(O(5^2) at degree 1) knows degree 2
    only to 5^-1 and stores nothing there; x (degree 0 known to 5) times
    5^5 x (degree 2 known to 5^2) stores 5^5 x^2, which its own precision,
    5^3, drops.  The sum keeps that raw key at a degree certified below
    p^1, so it raises PrecisionExhausted."""
    ctx = PrecisionContext(5, 6, 4)
    a = MultiSeries.from_exact_terms(ctx, 1, {(1,): Fraction(1, 125)})
    b = MultiSeries(ctx, 1, 0, (INFINITE, 2), {})
    x = MultiSeries(ctx, 1, 0, (1,), {}) + \
        MultiSeries.from_exact_terms(ctx, 1, {(1,): 1})
    y = MultiSeries(ctx, 1, 0, (INFINITE, INFINITE, 2), {}) + \
        MultiSeries.from_exact_terms(ctx, 1, {(1,): 5 ** 5})
    assert a.mul(b, cap=2).prof(2) == -1 and not a.mul(b, cap=2).coeffs
    assert x.mul(y, cap=2).prof(2) == 3 and not x.mul(y, cap=2).coeffs
    with pytest.raises(PrecisionExhausted):
        _sum_of_products([(a, b), (x, y)], 2)


def test_compose_and_apply_matrix_never_fold_add(monkeypatch):
    """Each Horner level of tuple_compose and each row of apply_matrix is
    one sum: both still return with ``MultiSeries.__add__`` broken."""
    law = parse((GOLDEN / "lt2_p2_h12_group.doc").read_text()).law
    right = law.map_variables(6, [2, 3, 4, 5])

    def no_add(self, other):
        raise AssertionError("MultiSeries.__add__ called")

    monkeypatch.setattr(MultiSeries, "__add__", no_add)
    nested = tuple_compose(
        law, TupleSeries([*TupleSeries.identity(law.ctx, 2, 6), *right]))
    assert nested.num_vars == 6 and not nested.is_zero
    mixed = apply_matrix([[1, 2], [3, 4]], law)
    assert mixed.dim == 2 and not mixed.is_zero


def test_compose_tail_amplified_by_negative_inner_valuation():
    """f = x1 + O(3^6) stores nothing in x2, but an unstored 3^6 x2^2 is
    allowed; with x2 -> y/3 it becomes 3^4 y^2, so degree 2 of f(y, y/3)
    is certified to 3^4 at most."""
    ctx = PrecisionContext(3, 6, 4)
    f = MultiSeries.from_terms(ctx, 2, {(1, 0): 1})
    inners = [{(1,): Fraction(1)}, {(1,): Fraction(1, 3)}]
    g = TupleSeries([MultiSeries.from_terms(ctx, 1, t) for t in inners])
    out = tuple_compose(f, g)
    exact = poly_compose({(1, 0): Fraction(1), (0, 2): Fraction(3 ** 6)},
                         inners, 4)
    assert_series_certified(out, exact, 4)
    assert out.prof(2) <= 4


@pytest.mark.parametrize("y", [Fraction(1), Fraction(1, 25)])
def test_compose_carries_a_part_zero_at_its_precision_through_its_power(y):
    """x = O(5) t stores nothing, so the Horner part x of f = x*y is zero
    at its precision; composed with y = t (or t/25) it still leaves
    x*y = O(5) t^2 (O(5^-1) t^2).  The part once entered f o g as an
    addend at its own degree, which certified degree 2 to 5^4 (5^0): x =
    5t gives 5 t^2 (t^2/5)."""
    ctx = PrecisionContext(5, 4, 3)
    f = MultiSeries.from_terms(ctx, 2, {(1, 1): 1})
    x = MultiSeries.from_terms(ctx, 1, {(1,): PadicScalar.zero_at(ctx, 1)})
    g = TupleSeries([x, MultiSeries.from_exact_terms(ctx, 1, {(1,): y})])
    out = tuple_compose(f, g)
    assert out.prof(2) == 1 + ref_valuation(y, 5)
    for xc in (0, 5, -10):
        assert_series_certified(out, poly_compose(
            {(1, 1): Fraction(1)}, [{(1,): Fraction(xc)}, {(1,): y}], 3), 3)


# ---------------------------------------------------------------------------
# exact series (profile None): values in Z[1/p], held without a profile
# ---------------------------------------------------------------------------

def _exact_value(ms) -> dict:
    """The exact rational coefficients, read off the stored integers; each
    stored integer must be a Python int."""
    assert all(type(c) is int for c in ms.coeffs.values())
    return {ms.unpack(k): Fraction(c, ms.ctx.p ** ms.shift)
            for k, c in ms.coeffs.items()}


def _random_exact_terms(rng, p, m, D, linear=None):
    """A Fraction dict in m variables with denominators p^0..p^3, no
    constant term; ``linear`` fixes the degree-1 part."""
    terms = {}
    for _ in range(6):
        exps = tuple(rng.randint(0, 2) for _ in range(m))
        if 1 <= sum(exps) <= D:
            terms[exps] = Fraction(rng.randint(-9, 9), p ** rng.randint(0, 3))
    if linear is not None:
        terms = {e: c for e, c in terms.items() if sum(e) > 1}
        terms.update(linear)
    return {e: c for e, c in terms.items() if c}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_ring_operations_match_fraction_oracle(p):
    ctx = PrecisionContext(p, 4, 6)
    rng = random.Random(p)
    for _ in range(8):
        a, b = (_random_exact_terms(rng, p, 2, 6) for _ in range(2))
        sa, sb = (MultiSeries.from_exact_terms(ctx, 2, t) for t in (a, b))
        for got, want in ((sa + sb, poly_add(a, b)),
                          (sa - sb, poly_add(a, {e: -c for e, c in b.items()})),
                          (sa.mul(sb), poly_mul(a, b, 6)),
                          (sa.mul(sb, cap=4), poly_mul(a, b, 4))):
            assert got.prec is None
            assert _exact_value(got) == want


def test_scale_raises_where_no_digit_is_left():
    """At p=2, N=1, O(2) times -15/14 (valuation -1) and, at N=2, the
    series (1 + x + x^2 + x^3)/2 times a zero O(2) are known to no digit at
    any degree, so both raise PrecisionExhausted; (4 + O(2^3)) x times 93/4
    is still 93 x + O(2)."""
    ctx = PrecisionContext(2, 1, 3)
    zero = MultiSeries.from_terms(ctx, 1, {(0,): PadicScalar.zero_at(ctx, 1)})
    with pytest.raises(PrecisionExhausted):
        zero.scale(Fraction(-15, 14))
    ctx2 = PrecisionContext(2, 2, 3)
    half = MultiSeries.from_terms(ctx2, 1, {(d,): Fraction(1, 2)
                                            for d in range(4)})
    with pytest.raises(PrecisionExhausted):
        half.scale(PadicScalar.zero_at(ctx2, 1))
    four = PadicScalar.exact(ctx, 4).cap_precision(3)
    got = MultiSeries.from_terms(ctx, 1, {(1,): four}).scale(Fraction(93, 4))
    assert got.prof(1) == 1 and got.coefficient((1,)).residue() == 1


def test_exact_scale_by_z_1_over_p_stays_exact():
    """An exact series times an int or a Fraction in Z[1/p] is exact and
    equals the Fraction product; other scalars give a certified series."""
    ctx = PrecisionContext(5, 4, 6)
    rng = random.Random(5)
    terms = _random_exact_terms(rng, 5, 2, 6)
    ms = MultiSeries.from_exact_terms(ctx, 2, terms)
    for s in (3, Fraction(2, 5), 25, Fraction(-1, 125)):
        got = ms.scale(s)
        assert got.prec is None
        assert _exact_value(got) == poly_scale(terms, Fraction(s))
    for s in (Fraction(1, 3), PadicScalar.exact(ctx, 3)):
        assert ms.scale(s).prec is not None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_capped_compose_matches_fraction_oracle(p):
    ctx = PrecisionContext(p, 4, 6)
    rng = random.Random(10 + p)
    for cap in (3, 6):
        f = [_random_exact_terms(rng, p, 2, 6) for _ in range(2)]
        g = [_random_exact_terms(rng, p, 3, 6) for _ in range(2)]
        got = tuple_compose(
            TupleSeries([MultiSeries.from_exact_terms(ctx, 2, t) for t in f]),
            TupleSeries([MultiSeries.from_exact_terms(ctx, 3, t) for t in g]),
            cap=cap)
        for fi, out in zip(f, got):
            assert out.prec is None
            assert _exact_value(out) == poly_compose(fi, g, cap)


def test_exact_outer_compose_keeps_integer_coefficients():
    """An exact outer series (a ``profile exact`` document gives one)
    composes to integer coefficients, with an exact or a certified inner
    series alike."""
    ctx = PrecisionContext(5, 6, 4)
    f = {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)}
    g = [{(1,): Fraction(1)}, {(1,): Fraction(-1), (2,): Fraction(1)}]
    outer = MultiSeries.from_exact_terms(ctx, 2, f)
    want = poly_compose(f, g, 4)
    exact = tuple_compose(outer, TupleSeries(
        [MultiSeries.from_exact_terms(ctx, 1, t) for t in g]))
    assert exact.prec is None
    assert _exact_value(exact) == want
    certified = tuple_compose(outer, TupleSeries(
        [MultiSeries.from_terms(ctx, 1, t) for t in g]))
    assert all(type(c) is int for c in certified.coeffs.values())
    assert_series_matches(certified, want)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_inverse_by_lifting_matches_fraction_oracle(p):
    """The inverse of an identity-linear-part tuple h, lifted on exact
    series: start from X and add -[h(f)]_k at each degree k."""
    D = 6
    ctx = PrecisionContext(p, 4, D)
    rng = random.Random(20 + p)
    h = [_random_exact_terms(rng, p, 2, D, {(1, 0): 1}),
         _random_exact_terms(rng, p, 2, D, {(0, 1): 1})]
    hs = TupleSeries([MultiSeries.from_exact_terms(ctx, 2, t) for t in h])
    inv = lift_by_degree(hs, hs.truncate(1), lambda k, r: -r)
    for got, want in zip(inv, poly_inverse(h, D)):
        assert got.prec is None
        assert _exact_value(got) == want


# ---------------------------------------------------------------------------
# the relaxed lifts against a lift that recomposes at every cap
# ---------------------------------------------------------------------------

def _per_cap_lift(x, residual, correct):
    """Reference lift: at each k = 2..D, x becomes x + correct(k, r), r the
    degree-k part of residual(x, k).  Each residual composes afresh with
    the public tuple_compose(..., cap=k), so the reference shares no
    relaxed evaluation with lift_by_degree."""
    for k in range(2, x.ctx.degree_cap + 1):
        r = TupleSeries([c.homogeneous_part(k) for c in residual(x, k)])
        x = x + correct(k, r)
    return x


def _seeded_invertible(rng, ctx, d, lowest=0):
    """A d-in-d tuple at full precision, as the benchmark's inverse round
    trips use: a unit-determinant linear part plus up to five monomials of
    degree 2..D per component, coefficients u p^k with lowest <= k <= 2
    (p-integral for lowest = 0)."""
    p, D = ctx.p, ctx.degree_cap
    while True:
        lin = [[rng.randint(-p * p, p * p) for _ in range(d)]
               for _ in range(d)]
        if _int_det(lin) % p:
            break
    comps = []
    for row in lin:
        terms = {tuple(int(i == j) for i in range(d)): c
                 for j, c in enumerate(row) if c}
        for _ in range(rng.randint(1, 5)):
            exps = [0] * d
            for _ in range(rng.randint(2, D)):
                exps[rng.randrange(d)] += 1
            terms[tuple(exps)] = (rng.randint(-60, 60) or 1) \
                * Fraction(p) ** rng.randint(lowest, 2)
        comps.append(MultiSeries.from_terms(ctx, d, terms))
    return TupleSeries(comps)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_inverse_is_identical_to_the_per_cap_lift(p, d):
    """compositional_inverse, lifted relaxed, gives the same shift, profile
    and coefficients as recomposing h o f at every cap, on p-integral
    inputs at full precision.  (With denominators or cut coefficients the
    relaxed lift keeps each part's own profile and may certify other true
    digits; test_inverse_certifies_only_true_digits covers those.)"""
    ctx = PrecisionContext(p, 10, 6)
    rng = random.Random(1000 * p + d)
    ident = TupleSeries.identity(ctx, d)
    for _ in range(4):
        h = _seeded_invertible(rng, ctx, d)
        j0inv = mat_inverse(jacobian(h))
        want = _per_cap_lift(apply_matrix(j0inv, ident),
                             lambda f, k: ident - tuple_compose(h, f, cap=k),
                             lambda k, r: apply_matrix(j0inv, r))
        assert compositional_inverse(h).identical(want)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [10, 20])
def test_inverse_certifies_at_least_the_per_cap_lift(p, d, N):
    """With p-power denominators down to p^-2, compositional_inverse,
    lifted relaxed, certifies at every degree at least what recomposing
    h o f at every cap does, and succeeds wherever that does."""
    ctx = PrecisionContext(p, N, 6)
    rng = random.Random(100000 * p + 1000 * d + N)
    ident = TupleSeries.identity(ctx, d)
    for _ in range(3):
        h = _seeded_invertible(rng, ctx, d, lowest=-2)
        j0inv = mat_inverse(jacobian(h))
        try:
            want = _per_cap_lift(
                apply_matrix(j0inv, ident),
                lambda f, k: ident - tuple_compose(h, f, cap=k),
                lambda k, r: apply_matrix(j0inv, r))
        except PrecisionExhausted:
            continue
        for got, ref in zip(compositional_inverse(h), want):
            assert all(got.prof(k) >= ref.prof(k) for k in range(7))


def _lt2_params(p, h1, h2):
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    return LubinTate2Params(h1, h2, ctx)


@pytest.mark.parametrize("p,h1,h2", [(2, 1, 1), (2, 1, 2), (3, 1, 1),
                                     (2, 1, 3), (3, 1, 2)])
def test_inverse_logarithm_is_identical_to_the_per_cap_lift(p, h1, h2):
    """_lt2_exact's L^-1, lifted relaxed on exact series, against X - L(f)
    recomposed at every cap."""
    params = _lt2_params(p, h1, h2)
    L, Linv = fg._lt2_exact(params.ctx, lt2_logarithm_terms(params))
    X = L.truncate(1)
    want = _per_cap_lift(X, lambda f, k: X - tuple_compose(L, f, cap=k),
                         lambda k, r: r)
    assert Linv.identical(want)


@pytest.mark.parametrize("p,h1,h2", [(2, 1, 1), (2, 1, 2), (3, 1, 1),
                                     (2, 1, 3)])
def test_negation_is_identical_to_the_per_cap_lift(p, h1, h2):
    """The negation of the certified Lubin-Tate law, lifted relaxed with X
    fixed, against F(X, iota) recomposed at every cap."""
    params = _lt2_params(p, h1, h2)
    F = lt2_build(params).group.law
    ident = TupleSeries.identity(params.ctx, 2)
    want = _per_cap_lift(
        -ident,
        lambda iota, k: tuple_compose(F, TupleSeries([*ident, *iota]), cap=k),
        lambda k, r: -r)
    assert fg._solve_negation(F).identical(want)


def test_no_lift_composes_with_a_cap(monkeypatch):
    """The inverse, the inverse logarithm, the negation and the commutant
    lift all run on lift_by_degree's relaxed evaluator: each still returns
    with every tuple_compose refusing a cap."""
    def uncapped(f, g, cap=None):
        if cap is not None:
            raise AssertionError(f"tuple_compose called with cap={cap}")
        return tuple_compose(f, g)

    for module in (series, fg, cm):
        monkeypatch.setattr(module, "tuple_compose", uncapped)
    h = _seeded_invertible(random.Random(3), PrecisionContext(3, 10, 6), 2)
    assert not compositional_inverse(h).is_zero
    res = lt2_build(_lt2_params(2, 1, 2))
    iota = fg_negation(res.group)
    assert not iota.is_zero
    H = group_from_jacobian(res.mul_p.series, [[1, 0], [0, 1]],
                            [[1, 0], [0, 1]])
    assert H.same_at_working_precision(res.group.law)


def test_exact_constructor_rejects_other_denominators():
    ctx = PrecisionContext(2, 6, 4)
    with pytest.raises(BadArgument):
        MultiSeries.from_exact_terms(ctx, 1, {(1,): Fraction(1, 3)})
    with pytest.raises(BadArgument):
        MultiSeries.from_exact_terms(ctx, 1, {(1,): Fraction(1, 6)})
    ms = MultiSeries.from_exact_terms(ctx, 1, {(1,): Fraction(3, 4),
                                               (5,): 1})
    assert ms.prec is None and _exact_value(ms) == {(1,): Fraction(3, 4)}


def test_map_variables_drops_an_exact_sum_that_cancels():
    """x1 - x2 with both variables sent to x1 is the zero series; its
    cancelled sum must not stay stored (a stored 0 has no valuation, and
    vmin would loop on it).  The asserts read plain values first: a failing
    assert on the series itself would print its repr, which reads the
    stored 0's valuation too."""
    ctx = PrecisionContext(3, 5, 4)
    ms = MultiSeries.from_exact_terms(ctx, 2, {(1, 0): 1, (0, 1): -1})
    out = ms.map_variables(1, [0, 0])
    coeffs, is_zero = dict(out.coeffs), out.is_zero
    assert coeffs == {}
    assert is_zero
    assert out.vmin == 0


def test_compose_associative_up_to_truncation(ctx5):
    rng = random.Random(11)
    for _ in range(6):
        f = _random_tuple(ctx5, 2, 2, rng)
        g = _random_tuple(ctx5, 2, 2, rng)
        h = _random_tuple(ctx5, 2, 2, rng)
        left = tuple_compose(tuple_compose(f, g), h)
        right = tuple_compose(f, tuple_compose(g, h))
        assert left.same_at_working_precision(right)


def test_chain_rule_at_zero(ctx5):
    rng = random.Random(13)
    for _ in range(6):
        f = _random_tuple(ctx5, 2, 2, rng)
        g = _random_tuple(ctx5, 2, 2, rng)
        j_fg = jacobian(tuple_compose(f, g))
        jf = jacobian(f)
        jg = jacobian(g)
        prod = [[jf[i][0] * jg[0][j] + jf[i][1] * jg[1][j]
                 for j in range(2)] for i in range(2)]
        for i in range(2):
            for j in range(2):
                assert j_fg[i][j].same_at_working_precision(prod[i][j])


def test_jacobian_examples(ctx5):
    ident = TupleSeries.identity(ctx5, 2)
    J = jacobian(ident)
    assert J[0][0].same_at_working_precision(1)
    assert J[0][1].is_zero
    # linear part (p x1, p x2) has Jacobian diag(p, p)
    u = TupleSeries([MultiSeries.from_terms(ctx5, 2, {(1, 0): 5}),
                     MultiSeries.from_terms(ctx5, 2, {(0, 1): 5})])
    Ju = jacobian(u)
    assert Ju[0][0].same_at_working_precision(5)
    assert Ju[1][1].same_at_working_precision(5)
    assert Ju[0][1].is_zero and Ju[1][0].is_zero
    # h = (x1 + x2^2, x2 + x1 x2) -> identity at 0
    h = TupleSeries([MultiSeries.from_terms(ctx5, 2, {(1, 0): 1, (0, 2): 1}),
                     MultiSeries.from_terms(ctx5, 2, {(0, 1): 1, (1, 1): 1})])
    Jh = jacobian(h)
    for i in range(2):
        for j in range(2):
            if i == j:
                assert Jh[i][j].same_at_working_precision(1)
            else:
                assert Jh[i][j].is_zero


def test_jacobian_symbolic_blocks(ctx5):
    # the two-block partial Jacobians are column blocks of the Jacobian at 0
    F = TupleSeries([
        MultiSeries.from_terms(ctx5, 4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1,
                                         (0, 1, 0, 1): 1}),
        MultiSeries.from_terms(ctx5, 4, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1})])
    bx = [row[0:2] for row in jacobian(F)]
    by = [row[2:4] for row in jacobian(F)]
    for i in range(2):
        for j in range(2):
            want = 1 if i == j else 0
            assert bx[i][j].same_at_working_precision(want)
            assert by[i][j].same_at_working_precision(want)


def _jacobian_by_derivatives(h):
    """J0(h) read as each component's derivative, then its constant
    coefficient."""
    n = h.num_vars
    return [[comp.derivative(j).coefficient((0,) * n) for j in range(n)]
            for comp in h.components]


@settings(max_examples=200)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), n=st.integers(1, 3),
       d=st.integers(1, 3), N=st.integers(2, 8), D=st.integers(2, 5))
def test_jacobian_at_zero_is_the_derivative_read(data, p, n, d, N, D):
    """jacobian(h) reads each entry straight from the coefficient of x_j:
    on exact components, certified ones and ones with p-power
    denominators (a shift), each entry is identical to the derivative's
    constant coefficient, or both raise the same error."""
    ctx = PrecisionContext(p, N, D)
    try:
        h = TupleSeries([_drawn_addend(data, ctx, n) for _ in range(d)])
    except FglabError:
        return
    try:
        want = _jacobian_by_derivatives(h)
    except FglabError as exc:
        with pytest.raises(type(exc)):
            jacobian(h)
        return
    got = jacobian(h)
    assert [len(row) for row in got] == [n] * d
    for row_got, row_want in zip(got, want):
        for x, y in zip(row_got, row_want):
            assert x.identical(y)


def test_compositional_inverse_identity(ctx5):
    ident = TupleSeries.identity(ctx5, 2)
    assert compositional_inverse(ident).same_at_working_precision(ident)


def test_compositional_inverse_signed_catalan():
    ctx = PrecisionContext(5, 16, 8)
    h = TupleSeries([MultiSeries.from_terms(ctx, 1, {(1,): 1, (2,): 1})])
    hinv = compositional_inverse(h)
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    expected = {(k + 1,): Fraction((-1) ** k * catalan[k])
                for k in range(8)}
    assert_series_matches(hinv[0], expected)
    # independent verification: h(hinv) = x by the Fraction oracle
    oracle = poly_compose({(1,): Fraction(1), (2,): Fraction(1)},
                          [expected], 8)
    assert oracle == {(1,): Fraction(1)}


def test_compositional_inverse_round_trip_random(ctx5):
    rng = random.Random(17)
    ident = TupleSeries.identity(ctx5, 2)
    for _ in range(5):
        h = _random_tuple(ctx5, 2, 2, rng)
        # force an invertible linear part
        h = h + ident - TupleSeries(
            [c.truncate(1) for c in h.components])
        hinv = compositional_inverse(h)
        assert tuple_compose(h, hinv).same_at_working_precision(ident)
        assert tuple_compose(hinv, h).same_at_working_precision(ident)


def test_not_invertible_on_p_valuation_determinant(ctx5):
    h = TupleSeries([MultiSeries.from_terms(ctx5, 2, {(1, 0): 5}),
                     MultiSeries.from_terms(ctx5, 2, {(0, 1): 1})])
    with pytest.raises(NotInvertible):
        compositional_inverse(h)


@st.composite
def _invertible_cases(draw):
    """(p, N, D, terms, stored_moves, extra_moves) for an inverse oracle.

    terms: d components, each a unit-determinant linear part plus up to
    four monomials of degree 2..D with coefficients u p^k, -2 <= k <= 2.
    stored_moves: r values applied in turn to the stored coefficients;
    extra_moves: (component, exponents, r) on any monomial.  A move adds
    r p^prof(degree), which every claim of the series allows.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 3))
    N = draw(st.integers(3, 10))
    D = draw(st.integers(2, 6))
    lin = [[draw(st.integers(-p * p, p * p)) for _ in range(d)]
           for _ in range(d)]
    assume(_int_det(lin) % p)

    def exps(low):
        left = draw(st.integers(low, D))
        e = []
        for _ in range(d - 1):
            e.append(draw(st.integers(0, left)))
            left -= e[-1]
        return tuple(e + [left])

    terms = []
    for row in lin:
        t = {tuple(int(i == j) for i in range(d)): Fraction(c)
             for j, c in enumerate(row) if c}
        for _ in range(draw(st.integers(0, 4))):
            u = draw(st.integers(-60, 60).filter(bool))
            t[exps(2)] = Fraction(u) * Fraction(p) ** draw(st.integers(-2, 2))
        terms.append(t)
    stored = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=6))
    extra = [(draw(st.integers(0, d - 1)), exps(1), draw(st.integers(-2, 2)))
             for _ in range(draw(st.integers(0, 3)))]
    return p, N, D, terms, stored, extra


def _int_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _int_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def _moved(ms, stored, extra):
    """The exact values of ms after the moves (see _invertible_cases)."""
    p = ms.ctx.p
    value = {ms.unpack(k): Fraction(c, p ** ms.shift)
             for k, c in sorted(ms.coeffs.items())}
    moves = [(e, stored[n % len(stored)]) for n, e in enumerate(value)]
    for e, r in moves + extra:
        pf = ms.prof(sum(e))
        if pf != INFINITE:
            value[e] = value.get(e, 0) + r * Fraction(p) ** pf
    return {e: c for e, c in value.items() if c}


@settings(max_examples=200)
@given(case=_invertible_cases())
# the degree-4 residual is zero, but certified only to 2 and 0 digits; a
# lift that skipped it claimed x^2 y^2 of the inverse to 2^5
@example(case=(2, 8, 4, [
    {(1, 0): -1, (0, 1): 2, (2, 1): 4, (3, 0): Fraction(1, 2), (1, 2): 1},
    {(1, 0): -4, (0, 1): 3, (1, 2): 3, (0, 3): Fraction(5, 4)}],
    [0], [(1, (2, 0), 1)]))
# J0[0][0] is only O(5^8): an elimination step skipped on it claimed y^2
# of the inverse's second component to 5^8
@example(case=(5, 8, 2, [
    {(0, 1): 4}, {(1, 0): 18, (0, 1): 17, (2, 0): Fraction(-4, 25)}],
    [0], [(0, (1, 0), 1)]))
def test_inverse_certifies_only_true_digits(case):
    """Every digit compositional_inverse certifies, stored or absent,
    agrees with the exact inverse of any input its own claims allow.  A
    typed FglabError is an acceptable outcome."""
    p, N, D, terms, stored, extra = case
    ctx = PrecisionContext(p, N, D)
    d = len(terms)
    try:
        h = TupleSeries([MultiSeries.from_terms(ctx, d, t) for t in terms])
        got = compositional_inverse(h)
    except FglabError:
        return
    moved = [_moved(hi, stored, [(e, r) for i, e, r in extra if i == n])
             for n, hi in enumerate(h)]
    for out, exact in zip(got, poly_inverse(moved, D)):
        assert_series_certified(out, exact, D)


def test_mat_inverse_keeps_an_inexact_zero_factor():
    """J0[0][0] is O(5^8), not 0: eliminating with it must weaken the
    inverse's [1][1] entry to O(5^8) instead of leaving an exact 0."""
    ctx = PrecisionContext(5, 8, 2)
    h = TupleSeries([
        MultiSeries.from_terms(ctx, 2, {(0, 1): 4}),
        MultiSeries.from_terms(ctx, 2, {(1, 0): 18, (0, 1): 17,
                                        (2, 0): Fraction(-4, 25)})])
    j0 = jacobian(h)
    assert j0[0][0].is_zero and not j0[0][0].is_exact_zero
    inv = mat_inverse(j0)
    assert inv[1][1].is_zero and not inv[1][1].is_exact_zero
    assert inv[1][1].prec == 8
    assert mat_det(j0).same_at_working_precision(-72)
    assert compositional_inverse(h)[1].prof(2) <= 6


def test_coeff_extract_basics(ctx5):
    f = TupleSeries([MultiSeries.from_terms(ctx5, 2, {(1, 1): 1})])
    assert coeff_extract(f, (1, 1)).same_at_working_precision(1)
    assert coeff_extract(f, (2, 0)).is_zero


def test_coeff_extract_path_independence():
    # (x + x^2) o (x + x^2) built by composition vs direct expansion
    ctx = PrecisionContext(5, 14, 6)
    h = TupleSeries([MultiSeries.from_terms(ctx, 1, {(1,): 1, (2,): 1})])
    composed = tuple_compose(h, h)
    direct = poly_compose({(1,): Fraction(1), (2,): Fraction(1)},
                          [{(1,): Fraction(1), (2,): Fraction(1)}], 6)
    assert_series_matches(composed[0], direct)
    again = tuple_compose(h, h)
    assert composed.identical(again)


def test_eval_at_zero(ctx5):
    f = MultiSeries.from_terms(ctx5, 2, {(1, 0): 1, (1, 1): 2})
    mod = cyclotomic_modulus(ctx5, 1)
    zero = PointTuple([ExtScalar.zero(mod), ExtScalar.zero(mod)])
    assert ms_eval(f, zero).value.is_zero


def test_eval_cyclotomic_identity():
    # (1+x)^p - 1 vanishes at pi = zeta_p - 1
    import math as _math
    for p in (3, 5):
        ctx = PrecisionContext(p, 12, 8)
        terms = {(k,): _math.comb(p, k) for k in range(1, p + 1)}
        f = MultiSeries.from_terms(ctx, 1, terms)
        mod = cyclotomic_modulus(ctx, 1)
        pi = ExtScalar.uniformizer(mod)
        out = ms_eval(f, PointTuple([pi]), polynomial=True)
        assert out.value.is_zero


def test_eval_divergent_point(ctx5):
    f = MultiSeries.variable(ctx5, 1, 0)
    base = cyclotomic_modulus(ctx5, 1)
    unit_pt = PointTuple([ExtScalar.one(base)])
    with pytest.raises(DivergentPoint):
        ms_eval(f, unit_pt)


def test_eval_is_multiplicative(ctx5):
    rng = random.Random(23)
    mod = cyclotomic_modulus(ctx5, 1)
    pi = ExtScalar.uniformizer(mod)
    theta = PointTuple([pi, pi ** 2])
    for _ in range(4):
        f = _random_tuple(ctx5, 1, 2, rng, zero_const=False)[0]
        g = _random_tuple(ctx5, 1, 2, rng, zero_const=False)[0]
        lhs = ms_eval(f * g, theta).value
        rhs = ms_eval(f, theta).value * ms_eval(g, theta).value
        assert (lhs - rhs).is_zero or \
            (lhs - rhs).valuation() >= ms_eval(f * g, theta).tail_valuation


def test_eval_compose_compatibility(ctx5):
    rng = random.Random(29)
    mod = cyclotomic_modulus(ctx5, 1)
    pi = ExtScalar.uniformizer(mod)
    theta = PointTuple([pi, pi ** 3])
    for _ in range(4):
        f = _random_tuple(ctx5, 2, 2, rng)
        g = _random_tuple(ctx5, 2, 2, rng)
        comp_val = ms_eval(tuple_compose(f, g), theta)
        inner = ms_eval(g, theta).point()
        direct = ms_eval(f, inner)
        for a, b in zip(comp_val.values, direct.values):
            diff = a - b
            assert diff.is_zero or \
                diff.valuation() >= min(comp_val.tail_valuation,
                                        direct.tail_valuation)


def _log1p_at_root_of_minus_two(D):
    """log(1 + x) through degree D, from_terms at p = 2, N = 20, evaluated
    at theta = t with t^2 + 2 = 0 (Eisenstein)."""
    ctx = PrecisionContext(2, 20, D)
    f = MultiSeries.from_terms(ctx, 1, {(k,): Fraction((-1) ** (k + 1), k)
                                        for k in range(1, D + 1)})
    mod = ExtensionModulus(ctx, [2, 0, 1], "eisenstein")
    return ms_eval(f, PointTuple([ExtScalar.uniformizer(mod)])).value


def test_eval_of_log1p_agrees_between_high_caps():
    """The oracle of the test below: at D = 16 and D = 32 the value agrees
    on every digit both certify, and its t^0 coefficient is 2 mod 8."""
    a, b = (_log1p_at_root_of_minus_two(D) for D in (16, 32))
    for x, y in zip(a.coeffs, b.coeffs):
        diff = x.lift() - y.lift()
        known = min(x.prec, y.prec)
        assert diff == 0 or ref_valuation(diff, 2) >= known
    assert a.coeffs[0].prec >= 3
    assert a.coeffs[0].lift() % 8 == b.coeffs[0].lift() % 8 == 2


@pytest.mark.xfail(strict=True, reason="ms_eval bounds a truncated tail by "
                   "(D+1) v(theta) for any series, so log(1+x) at D=4 "
                   "claims its t^0 coefficient as 0 mod 2^3; see ROADMAP")
def test_eval_certifies_only_digits_a_higher_cap_confirms():
    """Every digit ms_eval certifies at D = 4 agrees with the value
    recomputed at D = 16 and D = 32, modulo the smaller of the two claimed
    precisions."""
    low = _log1p_at_root_of_minus_two(4)
    for D in (16, 32):
        high = _log1p_at_root_of_minus_two(D)
        for a, b in zip(low.coeffs, high.coeffs):
            known = min(a.prec, b.prec)
            diff = a.lift() - b.lift()
            assert diff == 0 or ref_valuation(diff, 2) >= known, \
                f"D=4 claims {a!r}, D={D} gives {b!r}"


def test_mat_det_pivoting(ctx5):
    one = PadicScalar.exact(ctx5, 1)
    p = PadicScalar.exact(ctx5, 5)
    zero = PadicScalar.zero(ctx5)
    det = mat_det([[p, one], [one, zero]])
    assert det.same_at_working_precision(-1)


def test_mat_det_without_pivot_bounds_the_whole_minor():
    """A column that is zero at its precision leaves a determinant known
    only to the bound every term of the remaining minor obeys: one entry
    from each column, so v(pivots so far) plus each column's least
    valuation bound, not the precision of that one column."""
    ctx = PrecisionContext(5, 6, 4)
    zero, one, five = (PadicScalar.exact(ctx, q) for q in (0, 1, 5))
    o5, o25 = PadicScalar.zero_at(ctx, 1), PadicScalar.zero_at(ctx, 2)
    # the lift [[0, 1/125], [5, 1]] has det -1/25: no digit is certified
    with pytest.raises(PrecisionExhausted):
        mat_det([[o5, PadicScalar.exact(ctx, Fraction(1, 125))], [o5, one]])
    det = mat_det([[five, one, one],
                   [zero, o5, five * five],
                   [zero, o25, five]])
    # the bound is attained: the lift with 5 and 0 in the middle column
    # has det 5 * (5 * 5 - 25 * 0) = 5^3
    assert det.is_zero and det.prec == 3
    assert mat_det([[one, one], [zero, zero]]).is_exact_zero


def test_mat_det_without_pivot_stays_in_the_extension():
    """Over Q_5(zeta_5), a first column that is O(pi^5) bounds the
    determinant by v = 5/4: the result is the extension's own zero
    O(pi^5), not a base-field zero at the fractional precision 5/4."""
    ctx = PrecisionContext(5, 6, 4)
    mod = cyclotomic_modulus(ctx, 1)
    z = ExtScalar.zero(mod).cap_precision(Fraction(5, 4))
    pi, one = ExtScalar.uniformizer(mod), ExtScalar.one(mod)
    det = mat_det([[z, pi], [z, one]])
    assert isinstance(det, ExtScalar)
    assert det.is_zero and det.prec == 5


def test_positive_valuation_fraction_coefficient_digits():
    # coefficients with v > 0 claim precision beyond N; every claimed digit
    # must match the independent modular residue
    ctx = PrecisionContext(5, 8, 6)
    f = MultiSeries.from_terms(ctx, 1, {(1,): Fraction(5, 3)})
    c = f.coefficient((1,))
    assert c.prec == 9
    want = 5 * pow(3, -1, 5 ** 9) % 5 ** 9
    assert c.unit * 5 % 5 ** 9 == want
    g = MultiSeries.from_terms(ctx, 1, {(1,): Fraction(1, 3)}).scale(5)
    c2 = g.coefficient((1,))
    assert c2.unit * 5 % 5 ** c2.prec == \
        want % 5 ** c2.prec
