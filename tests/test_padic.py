"""Scalar and extension arithmetic: precision tracking, valuations, lifts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglab.errors import (
    BadModulus,
    DivisionByZero,
    FglabError,
    ImpreciseValuation,
    MixedContext,
    PrecisionExhausted,
)
from fglab.padic import (
    INFINITE,
    ExtensionModulus,
    ExtScalar,
    PadicScalar,
    PointTuple,
    PrecisionContext,
    ext_construct,
    teichmuller,
)
from fglab.series import mat_det, mat_inverse

from conftest import cyclotomic_modulus, ref_valuation


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(4, 6, 8)
    with pytest.raises(ValueError):
        PrecisionContext(5, 0, 8)
    with pytest.raises(ValueError):
        PrecisionContext(5, 6, 1)


def test_inverse_pair(ctx5):
    one = PadicScalar.exact(ctx5, 1)
    p = PadicScalar.exact(ctx5, 5)
    assert ((one / p) * p).same_at_working_precision(1)


def test_geometric_series_oracle():
    # 1/(1-5) = 1 + 5 + ... + 5^5 (mod 5^6), checked by multiplying back
    ctx = PrecisionContext(5, 6, 8)
    g = PadicScalar.exact(ctx, 1) / PadicScalar.exact(ctx, 1 - 5)
    expected = sum(5 ** k for k in range(6))
    assert (expected * (1 - 5)) % 5 ** 6 == 1 % 5 ** 6
    assert g.residue(6) == expected


def test_division_by_zero(ctx5):
    with pytest.raises(DivisionByZero):
        PadicScalar.exact(ctx5, 1) / PadicScalar.zero(ctx5)
    near_zero = PadicScalar.exact(ctx5, 7) - PadicScalar.exact(ctx5, 7)
    with pytest.raises(DivisionByZero):
        PadicScalar.exact(ctx5, 1) / near_zero


def test_mixed_context_rejected():
    a = PadicScalar.exact(PrecisionContext(5, 6, 8), 1)
    b = PadicScalar.exact(PrecisionContext(5, 7, 8), 1)
    with pytest.raises(MixedContext):
        a + b


def test_division_by_p_power_consumes_precision(ctx5):
    x = PadicScalar.exact(ctx5, 7)
    assert x.prec == ctx5.abs_precision
    y = x / PadicScalar.exact(ctx5, 5 ** 3)
    assert y.prec == ctx5.abs_precision - 3


def test_precision_exhausted_is_loud():
    ctx = PrecisionContext(5, 3, 8)
    x = PadicScalar.exact(ctx, 1)
    with pytest.raises(PrecisionExhausted):
        x / PadicScalar.exact(ctx, 5 ** 3)


def test_valuation_basics(ctx5):
    assert PadicScalar.exact(ctx5, 5).valuation() == 1
    assert PadicScalar.exact(ctx5, Fraction(1, 5)).valuation() == -1
    assert PadicScalar.zero(ctx5).valuation() is INFINITE


def test_imprecise_valuation(ctx5):
    a = PadicScalar.exact(ctx5, 7)
    diff = a - a
    assert diff.is_zero and not diff.is_exact_zero
    with pytest.raises(ImpreciseValuation):
        diff.valuation()


def test_point_tuple_valuation_min_rule(ctx5):
    base = ExtensionModulus.base(ctx5)
    pt = PointTuple([ExtScalar.from_poly(base, [25]),
                     ExtScalar.from_poly(base, [5])])
    assert pt.valuation() == 1


def test_teichmuller_examples():
    ctx = PrecisionContext(5, 6, 8)
    w = teichmuller(2, ctx)
    # independent oracle: iterate x -> x^5 mod 5^6 from 2
    x = 2
    for _ in range(10):
        x = pow(x, 5, 5 ** 6)
    assert w.residue(6) == x
    assert w.residue(2) == 7
    assert (w ** 4).same_at_working_precision(1)
    assert teichmuller(1, ctx).same_at_working_precision(1)
    assert teichmuller(0, ctx).is_exact_zero


@pytest.mark.parametrize("p", [3, 5, 7])
def test_teichmuller_properties(p):
    ctx = PrecisionContext(p, 8, 8)
    for r in range(1, p):
        w = teichmuller(r, ctx)
        assert (w ** (p - 1)).same_at_working_precision(1)
        assert w.residue(1) == r


def test_ext_construct_trivial_embedding(ctx5):
    x = ext_construct([-1, 1], [1], ctx5, "unramified")
    assert x.same_at_working_precision(1)


def test_ext_construct_cyclotomic(ctx5):
    # Phi_5(1+t) = t^4 + 5t^3 + 10t^2 + 10t + 5, Eisenstein at 5
    pi = ext_construct([5, 10, 10, 5, 1], [0, 1], ctx5, "eisenstein")
    assert pi.valuation() == Fraction(1, 4)


def test_ext_construct_bad_modulus(ctx5):
    with pytest.raises(BadModulus):
        ext_construct([-1, 1], [1], ctx5, "eisenstein")
    with pytest.raises(BadModulus):
        # t^2 - 1 = (t-1)(t+1) is reducible mod 5
        ext_construct([-1, 0, 1], [1], ctx5, "unramified")
    with pytest.raises(BadModulus):
        ext_construct([5, 2, 1], [1], ctx5, "bogus-tag")
    # a coefficient known to fewer than N digits, or only as zero modulo
    # p^k, would leave the modulus itself less certain than its elements
    for c in (PadicScalar.exact(ctx5, 5).cap_precision(3),
              PadicScalar.zero_at(ctx5, 4)):
        with pytest.raises(BadModulus, match="known to N digits"):
            ext_construct([5, c, 1], [1], ctx5, "eisenstein")


def test_eisenstein_valuation_rule():
    # v(pi) = 1/(p-1) for the p-th cyclotomic uniformizer
    for p in (2, 3, 5):
        ctx = PrecisionContext(p, 10, 8)
        mod = cyclotomic_modulus(ctx, 1)
        pi = ExtScalar.uniformizer(mod)
        assert pi.valuation() == Fraction(1, p - 1)


def test_unramified_arithmetic():
    ctx = PrecisionContext(2, 10, 8)
    mod = ExtensionModulus(ctx, [1, 1, 1], "unramified")
    a = ExtScalar.from_poly(mod, [1, 1])
    b = ExtScalar.from_poly(mod, [2, 6])
    assert a.valuation() == 0
    assert b.valuation() == 1
    assert (a * a.inverse()).same_at_working_precision(1)
    assert (b * b.inverse()).same_at_working_precision(1)
    assert ((a + b) - b).same_at_working_precision(a)


def test_unramified_inverse_of_embedded_rational():
    # residue polynomial with trailing zeros (an embedded base scalar)
    ctx = PrecisionContext(2, 14, 8)
    mod = ExtensionModulus(ctx, [1, 1, 1], "unramified")
    x = ExtScalar.from_poly(mod, [6])
    inv = x.inverse()
    assert (x * inv).same_at_working_precision(1)
    assert inv.same_at_working_precision(
        ExtScalar.from_poly(mod, [Fraction(1, 6)]))


def test_unramified_quintic_teichmuller_order():
    # the (p^5 - 1)-th roots of unity live in the unramified quintic;
    # the modulus is accepted and its uniformizer is p itself
    ctx = PrecisionContext(2, 10, 8)
    mod = ExtensionModulus(ctx, [1, 0, 1, 0, 0, 1], "unramified")
    assert mod.res_degree == 5 and mod.ram_index == 1
    t = ExtScalar.from_poly(mod, [0, 1])
    # t is a unit (nonzero residue), and t^(2^5 - 1) = 1 in the residue field
    power = t ** 31
    assert (power - 1).valuation_lower_bound() >= 1


def test_eisenstein_inverse_round_trip(ctx5):
    mod = cyclotomic_modulus(ctx5, 1)
    pi = ExtScalar.uniformizer(mod)
    x = pi ** 3 + ExtScalar.from_poly(mod, [5])
    assert (x * x.inverse()).same_at_working_precision(1)
    assert (x / x).same_at_working_precision(1)


def test_ext_cap_precision(ctx5):
    mod = cyclotomic_modulus(ctx5, 1)
    pi = ExtScalar.uniformizer(mod)
    capped = pi.cap_precision(Fraction(3, 2))
    assert capped.same_at_working_precision(pi)
    assert capped.precision_floor() <= Fraction(3, 2) + 1


units = st.integers(min_value=1, max_value=5 ** 6 - 1).filter(
    lambda n: n % 5)
vals = st.integers(min_value=-2, max_value=3)


@st.composite
def scalars(draw):
    ctx = PrecisionContext(5, 8, 8)
    return PadicScalar.exact(
        ctx, Fraction(draw(units)) * Fraction(5) ** draw(vals))


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_valuation_multiplicative(a, b):
    assert (a * b).valuation() == a.valuation() + b.valuation()


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_ultrametric_inequality(a, b):
    s = a + b
    lower = min(a.valuation(), b.valuation())
    if s.is_zero:
        assert s.prec >= lower
    else:
        assert s.valuation() >= lower
        if a.valuation() != b.valuation():
            assert s.valuation() == lower


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_round_trips(a, b):
    assert ((a + b) - b).same_at_working_precision(a)
    assert ((a * b) / b).same_at_working_precision(a)


@st.composite
def moved_scalars(draw, ctx, zero_top=None):
    """(x, y): x an inexact scalar (a value with an absolute precision, a
    zero at a precision up to p^zero_top, default p^N, or the exact zero)
    and y a rational anywhere in the class x certifies, y = lift(x) + p^k t
    with t a p-adic integer.  A zero keeps its precision above p^N, as a
    coefficient from ``ExtScalar.coeffs`` does."""
    p, N = ctx.p, ctx.abs_precision
    kind = draw(st.sampled_from(["value", "value", "zero_at", "exact_zero"]))
    if kind == "exact_zero":
        return PadicScalar.zero(ctx), Fraction(0)
    coprime = st.integers(1, 60).filter(lambda n: n % p)
    if kind == "zero_at":
        x = PadicScalar.zero_at(ctx, draw(st.integers(1, zero_top or N)))
    else:
        # a scalar certifies at least one digit: v + rel >= 1
        v = draw(st.integers(max(-3, 1 - N), 4))
        unit = Fraction(draw(coprime) * draw(st.sampled_from([1, -1])),
                        draw(coprime))
        x = PadicScalar.exact(ctx, unit * Fraction(p) ** v) \
            .cap_precision(v + draw(st.integers(max(1, 1 - v), N)))
    t = Fraction(draw(st.integers(-10 ** 6, 10 ** 6)), draw(coprime))
    return x, x.lift() + Fraction(p) ** x.prec * t


def _certifies(out, exact):
    """Every digit ``out`` certifies agrees with the rational ``exact``."""
    k = out.prec
    diff = exact - out.lift()
    if k == INFINITE:
        return diff == 0
    return diff == 0 or ref_valuation(diff, out.ctx.p) >= k


@st.composite
def moved_pairs(draw):
    """Two moved scalars; the right one may be a zero above p^N."""
    ctx = PrecisionContext(draw(st.sampled_from([2, 3, 5])),
                           draw(st.integers(1, 8)), 2)
    return (draw(moved_scalars(ctx)),
            draw(moved_scalars(ctx, ctx.abs_precision + 4)))


@given(moved_pairs())
@settings(max_examples=400, deadline=None)
def test_scalar_arithmetic_certifies_only_true_digits(pair):
    """+, -, *, / and negation of inexact scalars, against Fraction
    arithmetic on inputs moved anywhere within their precision: each
    certified digit of the result is a digit of the moved result.  An
    operation may instead raise an FglabError (no digit left, a divisor
    that is zero at its precision).

    +, -, * and negation also lose no digit: with k a scalar's absolute
    precision and lb its valuation lower bound, a sum is known to
    min(k_a, k_b) and a product to min(k_a + lb(b), k_b + lb(a)).  A
    nonzero result is then capped at v + N; a zero keeps its k uncapped."""
    (a, x), (b, y) = pair
    ka, kb = a.prec, b.prec
    la, lb = a.valuation_lower_bound(), b.valuation_lower_bound()
    cases = [(lambda: a + b, lambda: x + y, min(ka, kb)),
             (lambda: a - b, lambda: x - y, min(ka, kb)),
             (lambda: a * b, lambda: x * y, min(ka + lb, kb + la)),
             (lambda: a / b, lambda: x / y, None),
             (lambda: -a, lambda: -x, ka)]
    for op, exact, k in cases:
        try:
            out = op()
        except FglabError:
            continue
        assert _certifies(out, exact()), (a, b, out, exact())
        if k is not None:
            assert out.prec == _capped(out, k), (a, b, out, k)


def test_sum_reads_a_zero_operand_at_its_own_precision_on_both_sides():
    """a +- z and z +- a agree for a zero z above p^N, such as a coefficient
    of an ExtScalar over the base field: each operand is read at its own
    precision, so both are known to p^12, a's own precision."""
    ctx = PrecisionContext(5, 8, 2)
    base = ExtensionModulus.base(ctx)
    z, = (ExtScalar.from_poly(base, [PadicScalar.zero_at(ctx, 5)])
          * ExtScalar.from_poly(base, [5 ** 10])).coeffs
    assert z.is_zero and z.prec == 15
    a = PadicScalar.exact(ctx, 3 * 5 ** 4)
    for left, right in ((a + z, z + a), (a - z, -(z - a))):
        assert (left.v, left.unit, left.prec) == (right.v, right.unit,
                                                  right.prec) == (4, 3, 12)


def test_a_zero_keeps_its_precision_past_the_digit_cap():
    """(125 - 125) + 25 and (125 + 25) - 125 at p = 5, N = 4: the zero
    125 - 125 is known modulo 5^7, so both orders read 25 + O(5^6)."""
    ctx = PrecisionContext(5, 4, 2)
    a, b = PadicScalar.exact(ctx, 125), PadicScalar.exact(ctx, 25)
    z = a - a
    assert z.is_zero and z.prec == 7
    for out in ((a - a) + b, (a + b) - a):
        assert (out.v, out.unit, out.prec) == (2, 1, 6)


@st.composite
def base_field_pairs(draw):
    """Two scalars of one context, each an exact zero, a zero at 1..2N or
    a value with moved precision."""
    ctx = PrecisionContext(draw(st.sampled_from([2, 3, 5])),
                           draw(st.sampled_from([3, 6])), 2)
    top = 2 * ctx.abs_precision
    return (draw(moved_scalars(ctx, top))[0],
            draw(moved_scalars(ctx, top))[0])


def _fields(x):
    """(v, unit, prec) of a scalar, read off the one coefficient of an
    ExtScalar over the base field."""
    if isinstance(x, ExtScalar):
        x, = x.coeffs
    return x.v, x.unit, x.prec


def _outcome(op):
    """_fields of op's scalar result, or the FglabError it raised."""
    try:
        out = op()
    except FglabError as exc:
        return type(exc)
    return _fields(out)


@given(base_field_pairs())
@settings(max_examples=300, deadline=None)
def test_scalar_arithmetic_agrees_with_the_base_field_extension(pair):
    """+, -, * and / of PadicScalars give the valuation, unit and absolute
    precision that ExtScalar arithmetic over ExtensionModulus.base gives,
    zeros included; / is compared where both sides succeed."""
    a, b = pair
    base = ExtensionModulus.base(a.ctx)
    x, y = (ExtScalar.from_poly(base, [c]) for c in pair)
    for op in (lambda s, t: s + t, lambda s, t: s - t,
               lambda s, t: s * t):
        assert _outcome(lambda: op(a, b)) == _outcome(lambda: op(x, y)), \
            (a, b)
    got, want = _outcome(lambda: a / b), _outcome(lambda: x / y)
    if isinstance(got, tuple) and isinstance(want, tuple):
        assert got == want, (a, b)


@st.composite
def base_field_matrices(draw):
    """A 1x1 to 3x3 matrix of scalars of one context, each entry drawn as
    base_field_pairs draws one."""
    ctx = PrecisionContext(draw(st.sampled_from([2, 3, 5])),
                           draw(st.sampled_from([3, 6])), 2)
    n = draw(st.integers(1, 3))
    top = 2 * ctx.abs_precision
    return [[draw(moved_scalars(ctx, top))[0] for _ in range(n)]
            for _ in range(n)]


def _entry_outcomes(op, kind):
    """_fields of each entry of op's result, a scalar or a matrix whose
    entries must all be of type ``kind``, or the FglabError it raised."""
    try:
        out = op()
    except FglabError as exc:
        return type(exc)
    rows = out if isinstance(out, list) else [[out]]
    assert all(isinstance(x, kind) for row in rows for x in row), rows
    return [[_fields(x) for x in row] for row in rows]


@given(base_field_matrices())
@settings(max_examples=300, deadline=None)
def test_matrix_routines_agree_with_the_base_field_extension(rows):
    """mat_det and mat_inverse over ExtScalars on ExtensionModulus.base
    return ExtScalars with the valuation, unit and absolute precision,
    entry for entry, that they give over the PadicScalars, or raise the
    same error."""
    base = ExtensionModulus.base(rows[0][0].ctx)
    ext = [[ExtScalar.from_poly(base, [c]) for c in row] for row in rows]
    for routine in (mat_det, mat_inverse):
        assert _entry_outcomes(lambda: routine(rows), PadicScalar) == \
            _entry_outcomes(lambda: routine(ext), ExtScalar), rows


def test_cap_precision_rounds_a_fractional_cap_up():
    """No digit of Q_p lies strictly between two integer valuations: a cap
    at 79/2 keeps all 40 digits of 5^39 - 2 and a cap at 7/2 keeps 4, each
    with an integer unit and precision."""
    ctx = PrecisionContext(5, 40, 2)
    x = PadicScalar.exact(ctx, 5 ** 39 - 2)
    assert x.cap_precision(Fraction(79, 2)) is x
    y = x.cap_precision(Fraction(7, 2))
    assert (y.v, y.unit, y.prec) == (0, (5 ** 39 - 2) % 5 ** 4, 4)
    assert type(y.unit) is int and type(y.prec) is int


def _capped(out, k):
    """k under the relative cap: v + N for a nonzero scalar; a zero has no
    cap."""
    if out.v is None:
        return k
    return min(k, out.v + out.ctx.abs_precision)


def test_digits_little_endian(ctx5):
    x = PadicScalar.exact(ctx5, 2 + 3 * 5 + 4 * 25)
    assert x.digits()[:3] == [2, 3, 4]


def test_scalars_are_unhashable(ctx5):
    """== against an int holds at working precision, which no hash can
    agree with (PadicScalar.exact(ctx, 1) == 1 once hashed apart from 1),
    so both scalar types refuse to be hashed."""
    a = PadicScalar.exact(ctx5, 1)
    x = ExtScalar.from_poly(cyclotomic_modulus(ctx5, 1), [1])
    assert a == 1 and x == 1
    for value in (a, x):
        with pytest.raises(TypeError):
            hash(value)
        with pytest.raises(TypeError):
            {value, 1}
