"""Precision soundness of extension arithmetic against an exact oracle.

Every digit that ``+``, ``-``, ``*``, ``/``, ``inverse`` and ``** 3``
certify must agree with the exact result in Q[t]/(e(t)), computed with
Fractions from the inputs' stored representatives.  A typed FglabError is
an acceptable outcome; a false certified digit is not.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fglab.errors import FglabError
from fglab.padic import (
    INFINITE,
    ExtensionModulus,
    ExtScalar,
    PadicScalar,
    PrecisionContext,
)

from conftest import (
    assert_ext_certified,
    cyclotomic_coeffs,
    cyclotomic_modulus,
    ext_representative,
    qt_add,
    qt_inverse,
    qt_mul,
    qt_sub,
)

#: t^2 + c irreducible modulo p: an unramified quadratic extension
UNRAMIFIED = {2: [1, 1, 1], 3: [1, 0, 1], 5: [2, 0, 1]}

# coefficients of valuation at least k at every prime in {2, 3, 5}
coefficient = st.builds(lambda k, u: u * 30 ** k,
                        st.integers(0, 3), st.integers(-500, 500))
element = st.lists(coefficient, min_size=1, max_size=20)


def _modulus(p, kind):
    if kind == "unramified":
        return UNRAMIFIED[p], "unramified"
    return cyclotomic_coeffs(p, 1 if kind == "level1" else 2), "eisenstein"


def _element(mod, coeffs, shift):
    scale = Fraction(mod.ctx.p) ** shift
    return ExtScalar.from_poly(mod, [Fraction(c) * scale
                                     for c in coeffs[:mod.degree]])


def _check(p, compute, exact):
    try:
        got = compute()
    except FglabError:
        return
    want = exact()
    assert want is not None, f"{got!r} certified for an undefined result"
    assert_ext_certified(got, want, p)


@settings(max_examples=150)
@given(p=st.sampled_from([2, 3, 5]),
       kind=st.sampled_from(["level1", "level2", "unramified"]),
       N=st.integers(3, 10), xs=element, ys=element,
       shift=st.integers(-1, 1))
@example(p=2, kind="level2", N=6, xs=[8, -64], ys=[1], shift=0)
def test_certified_digits_are_true(p, kind, N, xs, ys, shift):
    ctx = PrecisionContext(p, N, 8)
    e, tag = _modulus(p, kind)
    mod = ExtensionModulus(ctx, e, tag)
    try:
        x = _element(mod, xs, shift)
        y = _element(mod, ys, 0)
    except FglabError:
        return
    qx, qy = ext_representative(x, p), ext_representative(y, p)

    def quotient(a, b):
        inv = qt_inverse(b, e)
        return None if inv is None else qt_mul(a, inv, e)

    _check(p, lambda: x + y, lambda: qt_add(qx, qy))
    _check(p, lambda: x - y, lambda: qt_sub(qx, qy))
    _check(p, lambda: x * y, lambda: qt_mul(qx, qy, e))
    _check(p, lambda: x / y, lambda: quotient(qx, qy))
    _check(p, lambda: y / x, lambda: quotient(qy, qx))
    _check(p, x.inverse, lambda: qt_inverse(qx, e))
    _check(p, lambda: x ** 3,
           lambda: qt_mul(qt_mul(qx, qx, e), qx, e))


def test_inverse_certifies_only_true_digits():
    """1/(8 - 64t) in Q_2[t]/(t^2 + 2t + 2) at N=6: the Newton iterate's
    own precision claimed coefficient 1 as 1 + O(2^6), while the exact
    value is 1/145 = 49 mod 64."""
    ctx = PrecisionContext(2, 6, 4)
    mod = ExtensionModulus(ctx, [2, 2, 1], "eisenstein")
    x = ExtScalar.from_poly(mod, [8, -64])
    exact = qt_inverse([Fraction(8), Fraction(-64)], [2, 2, 1])
    assert exact[1] == Fraction(1, 145)
    y = x.inverse()
    assert_ext_certified(y, exact, 2)
    assert y.coeffs[1].v == 0 and y.coeffs[1].rel == 3


def test_cap_precision_at_infinity_keeps_the_element():
    """An infinite cap forgets nothing."""
    mod = ExtensionModulus.base(PrecisionContext(5, 6, 4))
    x = ExtScalar.from_poly(mod, [3])
    assert x.cap_precision(INFINITE) == x
    zero = ExtScalar.zero(cyclotomic_modulus(PrecisionContext(3, 8, 4), 2))
    assert zero.cap_precision(zero.precision_floor()) == zero


def test_inverse_of_a_base_field_element_stays_in_the_base_field():
    """1/(1 + O(3^14)) in Q_3(zeta_9): the upper coefficients are exact
    zeros, not O(3^14)."""
    ctx = PrecisionContext(3, 14, 8)
    mod = cyclotomic_modulus(ctx, 2)
    for c in (1, 7, 9, Fraction(2, 27)):
        x = ExtScalar.from_base(mod, c)
        y = x.inverse()
        assert all(u.is_exact_zero for u in y.coeffs[1:]), y
        exact = qt_inverse(ext_representative(x, 3), cyclotomic_coeffs(3, 2))
        assert_ext_certified(y, exact, 3)
    assert y.coeffs[0] == PadicScalar.exact(ctx, Fraction(27, 2))
