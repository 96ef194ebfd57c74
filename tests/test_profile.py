"""The series precision bookkeeping against the Fraction reference.

The library keeps profile slopes and series summaries as integer pairs;
the reference in conftest recomputes them from ``terms()`` with Fraction
and math.floor.  Both must agree exactly on random sparse series.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fglab.errors import PrecisionExhausted
from fglab.padic import PadicScalar, PrecisionContext
from fglab.series import MultiSeries, Profile, _mul_profile

from conftest import (
    ref_mul_profile,
    ref_profile_at,
    ref_scale_profile,
    ref_summary,
)


def _summary(ms):
    """The library's cached summary in the reference's shape."""
    vmin, vhat, rn, rd, mindeg = ms._summary()
    assert (ms.vmin, ms.rho, ms.mindeg) == (vmin, Fraction(rn, rd), mindeg)
    return vmin, vhat, Fraction(rn, rd), mindeg


def _fields(profile):
    return None if profile is None else \
        (profile.p0, profile.slope, profile.flat)


@st.composite
def contexts(draw):
    ctx = PrecisionContext(draw(st.sampled_from((2, 3, 5))),
                           draw(st.integers(4, 10)), draw(st.integers(2, 7)))
    return ctx, draw(st.integers(1, 3))


def series_in(ctx, m):
    """Sparse series: exact zero, an empty series carrying a profile,
    constant-only, or a few terms with negative valuations (a nonzero
    shift) and reduced absolute precisions (sloped profiles)."""
    p, N, D = ctx.p, ctx.abs_precision, ctx.degree_cap

    @st.composite
    def build(draw):
        kind = draw(st.sampled_from(("zero", "empty", "constant", "sparse",
                                     "sparse", "sparse")))
        if kind == "zero":
            return MultiSeries.zero(ctx, m)
        if kind == "empty":
            return MultiSeries.from_terms(
                ctx, m, {(0,) * m: PadicScalar.zero_at(ctx, draw(
                    st.integers(1, N)))})
        degrees = st.just((0,) * m) if kind == "constant" else \
            st.lists(st.integers(0, D), min_size=m, max_size=m).filter(
                lambda e: sum(e) <= D).map(tuple)
        terms = {}
        for _ in range(draw(st.integers(1, 5))):
            v = draw(st.integers(-3, 3))
            unit = draw(st.integers(1, p ** 3).filter(lambda u: u % p))
            sign = draw(st.sampled_from((1, -1)))
            c = PadicScalar.exact(ctx, sign * Fraction(unit) * Fraction(p) ** v)
            c = c.reduce_abs_precision(
                draw(st.integers(max(1, v + 1), v + N)))
            terms[draw(degrees)] = c
        return MultiSeries.from_terms(ctx, m, terms)

    return build()


@st.composite
def series_pairs(draw):
    ctx, m = draw(contexts())
    return ctx, draw(series_in(ctx, m)), draw(series_in(ctx, m))


def test_profile_at_rounds_toward_minus_infinity():
    # -5/4 * 3 = -3.75 floors to -4, +5/4 * 3 = 3.75 to 3
    assert Profile(10, -5, 4, -100).at(3) == 6
    assert Profile(10, 5, 4, -100).at(3) == 13
    assert Profile(10, -1, 3, -100).at(1) == 9
    assert Profile(10, -2, 7, 8).at(14) == 8      # the flat floor wins
    assert Profile.const(4).at(99) == 4


@given(st.integers(-20, 20), st.integers(-30, 30), st.integers(1, 12),
       st.integers(-20, 20), st.integers(0, 60))
@settings(max_examples=300)
def test_profile_at_matches_fraction_floor(p0, n, d, flat, x):
    q = Fraction(n, d)
    pr = Profile(p0, q.numerator, q.denominator, flat)
    assert pr.slope == q
    assert pr.at(x) == ref_profile_at(p0, q, flat, x)


@given(st.tuples(st.integers(-9, 9), st.integers(-9, 0), st.integers(1, 9),
                 st.integers(-9, 9)),
       st.tuples(st.integers(-9, 9), st.integers(-9, 0), st.integers(1, 9),
                 st.integers(-9, 9)))
def test_profile_min_with_matches_fraction_min(a, b):
    pa, pb = (Profile(p0, Fraction(n, d).numerator, Fraction(n, d).denominator,
                      flat) for p0, n, d, flat in (a, b))
    m = pa.min_with(pb)
    assert _fields(m) == (min(pa.p0, pb.p0), min(pa.slope, pb.slope),
                          min(pa.flat, pb.flat))


@given(series_pairs())
@settings(max_examples=150)
def test_summary_matches_reference(args):
    _, a, b = args
    for ms in (a, b):
        assert _summary(ms) == ref_summary(ms)


@given(series_pairs(), st.data())
@settings(max_examples=150)
def test_mul_profile_matches_reference(args, data):
    ctx, a, b = args
    D = ctx.degree_cap
    for cap in (D, data.draw(st.integers(0, D))):
        assert _fields(_mul_profile(a, b, cap)) == ref_mul_profile(a, b, cap)
    cap = data.draw(st.sampled_from((None, 1, D - 1, D + 3)))
    try:
        prod = a.mul(b, cap=cap)
    except PrecisionExhausted:
        return
    if (a.profile is None and not a.coeffs) or \
            (b.profile is None and not b.coeffs):
        return      # the exact zero factor is returned as it is
    eff = D if cap is None else min(cap, D)
    assert _fields(prod.profile) == ref_mul_profile(a, b, eff)
    # products carry nonzero shifts; their summaries must hold as well
    assert _summary(prod) == ref_summary(prod)


@given(series_pairs(), st.data())
@settings(max_examples=100)
def test_scale_profile_matches_reference(args, data):
    ctx, a, _ = args
    if a.profile is None:
        return
    p = ctx.p
    q = data.draw(st.integers(1, p ** 2).filter(lambda u: u % p)) \
        * Fraction(p) ** data.draw(st.integers(-2, 2))
    s = q if data.draw(st.booleans()) else \
        PadicScalar.exact(ctx, q).reduce_abs_precision(
            ctx.abs_precision // 2 + 1)
    try:
        out = a.scale(s)
    except PrecisionExhausted:
        return
    assert _fields(out.profile) == ref_scale_profile(a, s)
    assert _summary(out) == ref_summary(out)


@given(contexts(), st.data())
@settings(max_examples=100)
def test_normalized_never_leaves_a_stale_summary(cm, data):
    """_normalized rewrites coeffs and shift in place; a summary taken
    before it must not survive it."""
    ctx, m = cm
    p, D = ctx.p, ctx.degree_cap
    ms = MultiSeries(ctx, m, data.draw(st.integers(0, 3)),
                     Profile.const(data.draw(st.integers(1, 4))), {})
    for _ in range(data.draw(st.integers(1, 5))):
        exps = data.draw(st.lists(st.integers(0, D), min_size=m, max_size=m)
                         .filter(lambda e: sum(e) <= D))
        ms.coeffs[ms.pack(exps)] = data.draw(st.integers(1, p ** 3)) \
            * p ** data.draw(st.integers(0, 6))
    ms._summary()
    out = ms._normalized()
    fresh = MultiSeries(ctx, m, out.shift, out.profile, dict(out.coeffs))
    assert out._summary() == fresh._summary()
    assert _summary(out) == ref_summary(out)


def test_normalized_drops_a_term_and_refreshes_mindeg():
    ctx = PrecisionContext(5, 12, 8)
    ms = MultiSeries(ctx, 1, 2, Profile.const(2), {})
    # x: 5^4 * 5^-2 = 25 vanishes at precision 5^2; x^2: 7 * 5^-2 stays
    ms.coeffs = {ms.pack((1,)): 5 ** 4, ms.pack((2,)): 7}
    assert (ms.vmin, ms.rho, ms.mindeg) == (-2, -1, 1)
    ms._normalized()
    assert (ms.vmin, ms.rho, ms.mindeg) == (-2, -1, 2)
    assert ms.coeffs == {ms.pack((2,)): 7}
