"""The series precision bookkeeping against the Fraction reference.

The library keeps each series' per-degree valuations and precision vector
as integers; the reference in conftest recomputes them from the stored
integers with Fraction, and the precision of a product by brute force over
every pair of degrees.  Both must agree exactly on random sparse series.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fglab.errors import PrecisionExhausted
from fglab.padic import PadicScalar, PrecisionContext
from fglab.series import MultiSeries

from conftest import (
    ref_degree_valuations,
    ref_mul_prec,
    ref_scale_prec,
    ref_valuation,
)


def _summary(ms):
    """The library's cached valuations in the reference's shape."""
    vmin, vals = ms._summary()
    assert ms.vmin == vmin
    return vmin, dict(vals), ms.rho


def _ref_summary(ms):
    vals = ref_degree_valuations(ms)
    return (min(vals.values(), default=0), vals,
            min([Fraction(0)] + [Fraction(v, d) for d, v in vals.items()
                                 if d]))


@st.composite
def contexts(draw):
    ctx = PrecisionContext(draw(st.sampled_from((2, 3, 5))),
                           draw(st.integers(4, 10)), draw(st.integers(2, 7)))
    return ctx, draw(st.integers(1, 3))


def series_in(ctx, m):
    """Sparse series: exact zero, an empty series carrying a precision,
    constant-only, or a few terms with negative valuations (a nonzero
    shift) and reduced absolute precisions (jagged vectors)."""
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
            c = c.cap_precision(
                draw(st.integers(max(1, v + 1), v + N)))
            terms[draw(degrees)] = c
        return MultiSeries.from_terms(ctx, m, terms)

    return build()


@st.composite
def series_pairs(draw):
    ctx, m = draw(contexts())
    return ctx, draw(series_in(ctx, m)), draw(series_in(ctx, m))


@given(series_pairs())
@settings(max_examples=150)
def test_summary_matches_reference(args):
    _, a, b = args
    for ms in (a, b):
        assert _summary(ms) == _ref_summary(ms)


def vectors(ctx):
    """A precision vector over degrees 0..D: constant, sloped (a line
    max(flat, p0 + floor(slope d))), jagged (each degree drawn, some
    exact), or None (an exact series)."""
    N, D = ctx.abs_precision, ctx.degree_cap

    @st.composite
    def build(draw):
        kind = draw(st.sampled_from(("constant", "sloped", "jagged",
                                     "exact")))
        if kind == "exact":
            return None
        if kind == "constant":
            return (draw(st.integers(1, N + 2)),) * (D + 1)
        if kind == "sloped":
            p0 = draw(st.integers(2, N + 2))
            slope = Fraction(-draw(st.integers(1, 4)), draw(st.integers(1, 3)))
            flat = draw(st.integers(1, p0))
            return tuple(max(flat, p0 + math.floor(slope * d))
                         for d in range(D + 1))
        return tuple(draw(st.sampled_from((math.inf,) + tuple(range(1, N + 3))))
                     for _ in range(D + 1))

    return build()


@st.composite
def factors(draw, ctx, m):
    """A series with a drawn vector and up to five stored terms whose
    valuations lie from -2 up to just below their degree's precision."""
    p, D = ctx.p, ctx.degree_cap
    prec = draw(vectors(ctx))
    shift = 2
    ms = MultiSeries(ctx, m, shift, prec, {})
    for _ in range(draw(st.integers(0, 5))):
        exps = draw(st.lists(st.integers(0, D), min_size=m, max_size=m)
                    .filter(lambda e: sum(e) <= D))
        top = ms.prof(sum(exps))
        v = draw(st.integers(-2, 4 if top == math.inf else top - 1))
        unit = draw(st.integers(1, p ** 3).filter(lambda u: u % p))
        ms.coeffs[ms.pack(exps)] = unit * p ** (v + shift)
    return ms._normalized()


@given(contexts(), st.data())
@settings(max_examples=300)
def test_mul_profile_matches_reference(cm, data):
    """a.mul(b, cap) certifies degree k, k <= cap, to the least of
    pe_a[i] + w_b[j], w_a[i] + pe_b[j] and N + v_a[i] + v_b[j] over
    i + j = k, and is exact above the cap.  Factors carry constant,
    sloped, jagged or no vectors; caps run below D."""
    ctx, m = cm
    D = ctx.degree_cap
    a = data.draw(factors(ctx, m))
    b = data.draw(factors(ctx, m))
    cap = data.draw(st.integers(0, D))
    want = ref_mul_prec(a, b, cap)
    try:
        got = a.mul(b, cap=cap)
    except PrecisionExhausted:
        assert want is not None and min(want) < 1
        return
    if (a.prec is None and not a.coeffs) or (b.prec is None and not b.coeffs):
        return      # the exact zero factor is returned as it is
    if want is None:
        assert got.prec is None
    else:
        assert [got.prof(k) for k in range(D + 1)] == \
            want + [math.inf] * (D - cap)
    # products carry nonzero shifts; their summaries must hold as well
    assert _summary(got) == _ref_summary(got)


@given(contexts(), st.data())
@settings(max_examples=300)
def test_scale_profile_matches_reference(cm, data):
    """a.scale(s) certifies each degree from s's precision as a product
    with the constant series s does, for exact, non-integral and
    reduced-precision scalars."""
    ctx, m = cm
    D = ctx.degree_cap
    a = data.draw(factors(ctx, m))
    p = ctx.p
    q = data.draw(st.integers(1, p ** 2).filter(lambda u: u % p)) \
        * Fraction(p) ** data.draw(st.integers(-2, 2))
    s = data.draw(st.sampled_from((
        q, q / (p + 1), PadicScalar.exact(ctx, q).cap_precision(
            ctx.abs_precision // 2 + 1))))
    want = ref_scale_prec(a, s)
    try:
        out = a.scale(s)
    except PrecisionExhausted:
        assert want is not None and (max(want) < 1 or any(
            want[sum(a.unpack(k))] < 1 for k in a.coeffs))
        return
    if a.prec is None and not a.coeffs:
        return
    if want is None:
        assert out.prec is None
    else:
        assert [out.prof(d) for d in range(D + 1)] == want
    assert _summary(out) == _ref_summary(out)


@given(contexts(), st.data())
@settings(max_examples=100)
def test_normalized_never_leaves_a_stale_summary(cm, data):
    """_normalized rewrites coeffs and shift in place; a summary taken
    before it must not survive it."""
    ctx, m = cm
    p, D = ctx.p, ctx.degree_cap
    ms = MultiSeries(ctx, m, data.draw(st.integers(0, 3)),
                     (data.draw(st.integers(1, 4)),) * (D + 1), {})
    for _ in range(data.draw(st.integers(1, 5))):
        exps = data.draw(st.lists(st.integers(0, D), min_size=m, max_size=m)
                         .filter(lambda e: sum(e) <= D))
        ms.coeffs[ms.pack(exps)] = data.draw(st.integers(1, p ** 3)) \
            * p ** data.draw(st.integers(0, 6))
    ms._summary()
    ms._views()
    out = ms._normalized()
    fresh = MultiSeries(ctx, m, out.shift, out.prec, dict(out.coeffs))
    assert out._summary() == fresh._summary()
    assert out._views() == fresh._views()
    assert _summary(out) == _ref_summary(out)


def test_normalized_drops_a_term_and_refreshes_mindeg():
    ctx = PrecisionContext(5, 12, 8)
    ms = MultiSeries(ctx, 1, 2, (2,) * 9, {})
    # x: 5^4 * 5^-2 = 25 vanishes at precision 5^2; x^2: 7 * 5^-2 stays
    ms.coeffs = {ms.pack((1,)): 5 ** 4, ms.pack((2,)): 7}
    assert _summary(ms) == (-2, {1: 2, 2: -2}, -1)
    ms._normalized()
    assert _summary(ms) == (-2, {2: -2}, -1)
    assert ms.coeffs == {ms.pack((2,)): 7}
    assert ref_valuation(Fraction(7, 25), 5) == -2
