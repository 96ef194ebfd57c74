"""Precision soundness of extension arithmetic against an exact oracle.

Every digit that ``+``, ``-``, ``*``, ``/``, ``inverse`` and ``** 3``
certify must agree with the exact result in Q[t]/(e(t)), computed with
Fractions from the inputs' stored representatives.  A typed FglabError is
an acceptable outcome; a false certified digit is not.

The second half moves each input to another point of the ball it claims
before the oracle reads it: a claim about x + y, x * y, x / y, ``ms_eval``,
``mat_det`` or a torsion root's residual must hold for every value the
inputs may stand for, not only for their stored representatives.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fglab.dynamics import torsion_probe_dim1
from fglab.errors import FglabError
from fglab.padic import (
    INFINITE,
    ExtensionModulus,
    ExtScalar,
    PadicScalar,
    PointTuple,
    PrecisionContext,
)
from fglab.series import MultiSeries, mat_det, ms_eval

from conftest import (
    assert_ext_certified,
    cyclotomic_coeffs,
    cyclotomic_modulus,
    ext_representative,
    qt_add,
    qt_inverse,
    qt_mul,
    qt_sub,
    ref_valuation,
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
    if kind == "fractional":
        # t^2 + (p/7) t + p: a coefficient known only to N digits
        return [p, Fraction(p, 7), 1], "eisenstein"
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
       kind=st.sampled_from(["level1", "level2", "unramified",
                             "fractional"]),
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
    # floor 3 certifies coefficient 1 modulo 2^ceil(3 - 1/2) = 2^3, the
    # three digits 1/145 = 1 mod 8 that are true, and no more
    assert y.precision_floor() == 3
    assert y.coeffs[1].lift() % 8 == 1


def test_cap_precision_at_infinity_keeps_the_element():
    """An infinite cap forgets nothing."""
    mod = ExtensionModulus.base(PrecisionContext(5, 6, 4))
    x = ExtScalar.from_poly(mod, [3])
    assert x.cap_precision(INFINITE) == x
    zero = ExtScalar.zero(cyclotomic_modulus(PrecisionContext(3, 8, 4), 2))
    assert zero.cap_precision(zero.precision_floor()) == zero


def test_inverse_of_a_base_field_element_stays_in_the_base_field():
    """1/c for c = 1, 7, 9, 2/27 in Q_3(zeta_9) at N = 14 keeps all 14
    digits of relative precision: the floor is v(1/c) + 14 (17 for 27/2,
    not the 14 that O(3^14) upper coefficients would leave), and the upper
    coefficients certify zero digits."""
    ctx = PrecisionContext(3, 14, 8)
    mod = cyclotomic_modulus(ctx, 2)
    for c in (1, 7, 9, Fraction(2, 27)):
        x = ExtScalar.from_poly(mod, [c])
        y = x.inverse()
        assert y.precision_floor() == ref_valuation(1 / Fraction(c), 3) + 14
        exact = qt_inverse(ext_representative(x, 3), cyclotomic_coeffs(3, 2))
        assert exact[1:] == [0] * 5
        assert_ext_certified(y, exact, 3)
    assert y.coeffs[0] == PadicScalar.exact(ctx, Fraction(27, 2))


# ---------------------------------------------------------------------------
# inputs moved within their claimed precision
# ---------------------------------------------------------------------------

#: the p = 5 fields of the extension goldens: e = 1, 4 and 20
P5_FIELDS = {1: ([-1, 1], "unramified"),
             4: (cyclotomic_coeffs(5, 1), "eisenstein"),
             20: (cyclotomic_coeffs(5, 2), "eisenstein")}

moves = st.lists(st.integers(-125, 125), min_size=20, max_size=20)


def _moved(x, move, p):
    """A point of x's claimed ball as Fractions: coefficient i moved by
    move[i] * p^k, k the precision x certifies for that coefficient."""
    out = []
    for c, r in zip(x.coeffs, move):
        q = c.lift()
        if c.prec != INFINITE:
            q += r * Fraction(p) ** c.prec
        out.append(q)
    return out


def _qt_eval(terms, point, e):
    """sum c * x1^i * x2^j in Q[t]/(e(t))."""
    d = len(e) - 1
    acc = [Fraction(0)] * d
    for (i, j), c in terms.items():
        term = [Fraction(c)] + [Fraction(0)] * (d - 1)
        for x, k in ((point[0], i), (point[1], j)):
            for _ in range(k):
                term = qt_mul(term, x, e)
        acc = qt_add(acc, term)
    return acc


def _at_least(a, floor, mod, p):
    """Every coefficient of a in Q[t]/(e(t)) has valuation >= floor - i v(t):
    the element a has valuation >= floor."""
    step = Fraction(1 if mod.tag == "eisenstein" else 0, mod.ram_index)
    for i, c in enumerate(a):
        assert c == 0 or ref_valuation(c, p) >= math.ceil(floor - i * step), \
            f"coefficient {i} = {c} below valuation floor {floor}"


@settings(max_examples=60)
@given(e=st.sampled_from(sorted(P5_FIELDS)), N=st.integers(4, 12),
       xs=st.lists(st.integers(-625, 625), min_size=1, max_size=20),
       ys=st.lists(st.integers(-625, 625), min_size=1, max_size=20),
       caps=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       lifts=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       terms=st.dictionaries(
           st.tuples(st.integers(0, 4), st.integers(0, 4)),
           st.integers(-50, 50), min_size=1, max_size=5),
       mx=moves, my=moves)
def test_claims_hold_across_the_input_ball(e, N, xs, ys, caps, lifts, terms,
                                           mx, my):
    """x + y, x * y, x / y and ms_eval(f, (pi^a x, pi^b y), polynomial=True)
    in the p = 5 fields with e = 1, 4 and 20, on inputs capped below full
    precision, certify only digits true at every point of the inputs'
    balls."""
    p = 5
    coeffs, tag = P5_FIELDS[e]
    ctx = PrecisionContext(p, N, 8)
    mod = ExtensionModulus(ctx, coeffs, tag)
    try:
        x = ExtScalar.from_poly(mod, xs).cap_precision(Fraction(caps[0]))
        y = ExtScalar.from_poly(mod, ys).cap_precision(Fraction(caps[1]))
    except FglabError:
        return
    qx, qy = _moved(x, mx, p), _moved(y, my, p)

    def quotient(a, b):
        inv = qt_inverse(b, coeffs)
        return None if inv is None else qt_mul(a, inv, coeffs)

    _check(p, lambda: x + y, lambda: qt_add(qx, qy))
    _check(p, lambda: x * y, lambda: qt_mul(qx, qy, coeffs))
    _check(p, lambda: x / y, lambda: quotient(qx, qy))

    pi = ExtScalar.uniformizer(mod)
    try:
        theta = [pi ** lifts[0] * x, pi ** lifts[1] * y]
    except FglabError:
        return
    moved = [_moved(c, m, p) for c, m in zip(theta, (mx, my))]
    f = MultiSeries.from_terms(ctx, 2, terms)
    _check(p, lambda: ms_eval(f, PointTuple(theta), polynomial=True).value,
           lambda: _qt_eval(terms, moved, coeffs))


def _leibniz_det(rows, e):
    """Determinant of a matrix over Q[t]/(e(t)) by the Leibniz formula."""
    n, d = len(rows), len(e) - 1
    det = [Fraction(0)] * d
    for perm in itertools.permutations(range(n)):
        term = [Fraction(1)] + [Fraction(0)] * (d - 1)
        for i, j in enumerate(perm):
            term = qt_mul(term, rows[i][j], e)
        odd = sum(perm[i] > perm[j]
                  for i in range(n) for j in range(i + 1, n)) % 2
        det = (qt_sub if odd else qt_add)(det, term)
    return det


# an entry: its integer coefficients (all zero for a zero entry), a cap
# on its precision (None for none) and a move within its ball
matrix_entry = st.tuples(st.one_of(st.just([0]), element),
                         st.one_of(st.none(), st.integers(1, 12)), moves)


@settings(max_examples=100)
@given(e=st.sampled_from([4, 20]), N=st.integers(4, 10),
       entries=st.integers(1, 3).flatmap(
           lambda n: st.lists(st.lists(matrix_entry, min_size=n, max_size=n),
                              min_size=n, max_size=n)))
# a first column zero at v = 3 beside 1/30: the minor's bound is 3 - 1,
# and the moved determinant -(25/6)(1 + t + t^2 + t^3) attains it
@example(e=4, N=6, entries=[[([0], 3, [0] * 20), ([1], None, [0] * 20)],
                            [([0], 3, [1] * 20), ([30], None, [0] * 20)]])
def test_mat_det_certifies_only_true_digits(e, N, entries):
    """mat_det over the p = 5 cyclotomic fields with e = 4 and e = 20, on
    1x1 to 3x3 matrices with zero, capped and negative-valuation entries,
    certifies only digits of the Leibniz determinant of every matrix in
    the entries' balls."""
    p = 5
    coeffs, tag = P5_FIELDS[e]
    mod = ExtensionModulus(PrecisionContext(p, N, 8), coeffs, tag)
    rows = []
    try:
        for row in entries:
            rows.append([])
            for xs, cap, move in row:
                x = ExtScalar.from_poly(mod, [Fraction(c, 30) for c in xs])
                if cap is not None:
                    x = x.cap_precision(Fraction(cap))
                rows[-1].append(x)
    except FglabError:
        return
    moved = [[_moved(x, move, p) for x, (_, _, move) in zip(row, erow)]
             for row, erow in zip(rows, entries)]
    _check(p, lambda: mat_det(rows), lambda: _leibniz_det(moved, coeffs))


@settings(max_examples=150)
@given(e=st.sampled_from(sorted(P5_FIELDS)),
       kinds=st.tuples(*[st.sampled_from(["exact", "zero_at", "value"])] * 2),
       xs=element, ys=element, caps=st.tuples(st.integers(1, 12),
                                              st.integers(1, 12)),
       n=st.integers(0, 3))
def test_zeros_keep_a_number_for_their_precision(e, kinds, xs, ys, caps, n):
    """No ExtScalar operation over exact zeros, zeros at a precision and
    values reports a nan precision, and a result that is exactly zero
    reports INFINITE for its precision, its floors and its coefficients."""
    coeffs, tag = P5_FIELDS[e]
    mod = ExtensionModulus(PrecisionContext(5, 6, 8), coeffs, tag)

    def operand(kind, ints, cap):
        if kind == "exact":
            return ExtScalar.zero(mod)
        if kind == "zero_at":
            return ExtScalar.zero(mod).cap_precision(Fraction(cap, e))
        return ExtScalar.from_poly(mod, ints).cap_precision(Fraction(cap))

    try:
        x, y = operand(kinds[0], xs, caps[0]), operand(kinds[1], ys, caps[1])
    except FglabError:
        return
    ex, ey = x.is_exact_zero, y.is_exact_zero
    cases = [(lambda: x + y, ex and ey), (lambda: x - y, ex and ey),
             (lambda: x * y, ex or ey), (lambda: -x, ex),
             (lambda: x / y, ex), (lambda: x ** n, ex and n > 0),
             (lambda: x.cap_precision(INFINITE), ex),
             (lambda: x.cap_precision(Fraction(caps[1], e)), False)]
    for op, exact_zero in cases:
        try:
            out = op()
        except FglabError:
            continue
        precs = [out.prec, out.precision_floor(), out.valuation_lower_bound(),
                 *(c.prec for c in out.coeffs)]
        assert not any(math.isnan(k) for k in precs), (x, y, out)
        if exact_zero:
            assert out.is_exact_zero and out.valuation() == INFINITE
            assert all(k == INFINITE for k in precs), (x, y, out)


def _read_via_terms(f, modulus):
    """The per-coefficient read: terms() into PadicScalars, each moved into
    the extension by from_poly."""
    return [(exps, ExtScalar.from_poly(modulus, [c]))
            for exps, c in f.terms()]


def _drawn_series(kind, ctx, terms):
    """An exact series with denominators p^k, a certified one with them
    (shifted), or a certified one whose terms are cut to drawn absolute
    precisions (jagged)."""
    p = ctx.p
    if kind == "jagged":
        return MultiSeries.from_terms(ctx, 2, {
            exps: PadicScalar.exact(ctx, c * p ** k).cap_precision(r)
            for exps, (c, k, r) in terms.items()})
    values = {exps: Fraction(c, p ** k) for exps, (c, k, _) in terms.items()}
    if kind == "exact":
        return MultiSeries.from_exact_terms(ctx, 2, values)
    return MultiSeries.from_terms(ctx, 2, values)


@pytest.mark.parametrize("kind", ["exact", "shifted", "jagged"])
@settings(max_examples=40)
@given(e=st.sampled_from(sorted(P5_FIELDS)), N=st.integers(2, 10),
       terms=st.dictionaries(
           st.tuples(st.integers(0, 4), st.integers(0, 4)),
           st.tuples(st.integers(-50, 50).filter(bool), st.integers(0, 3),
                     st.integers(1, 12)), min_size=1, max_size=5),
       xs=st.lists(st.integers(-625, 625), min_size=1, max_size=20),
       lifts=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       polynomial=st.booleans())
def test_ms_eval_reads_as_the_per_coefficient_read(kind, e, N, terms, xs,
                                                   lifts, polynomial):
    """ms_eval reads each stored integer straight into the extension.  On
    exact, shifted and jagged certified series in the p = 5 fields with
    e = 1, 4 and 20 its value is == to the one the per-coefficient read
    gives, and it raises where that read raises."""
    coeffs, tag = P5_FIELDS[e]
    ctx = PrecisionContext(5, N, 8)
    mod = ExtensionModulus(ctx, coeffs, tag)
    pi = ExtScalar.uniformizer(mod)
    try:
        f = _drawn_series(kind, ctx, terms)
        x = ExtScalar.from_poly(mod, xs)
        theta = PointTuple([pi ** lifts[0] * x, pi ** lifts[1]])
    except FglabError:
        return

    def outcome(read):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MultiSeries, "ext_terms", read)
            try:
                return ms_eval(f, theta, polynomial=polynomial).value
            except FglabError as exc:
                return type(exc)

    got = outcome(MultiSeries.ext_terms)
    want = outcome(_read_via_terms)
    assert type(got) is type(want) and got == want, (got, want)


@functools.cache
def _torsion_probes():
    """The benchmark's three probes: [p^level]_M in Q_p(zeta_(p^level))."""
    out = []
    for p, level, D in ((3, 2, 12), (2, 3, 8), (5, 1, 8)):
        ctx = PrecisionContext(p, 14, D)
        a = p ** level
        G = {k: math.comb(a, k) for k in range(1, a + 1)}
        probe = torsion_probe_dim1(
            MultiSeries.from_terms(ctx, 1, {(k,): c for k, c in G.items()}),
            level, cyclotomic_modulus(ctx, level), expected=a,
            polynomial=True)
        assert len(probe.roots) == a
        out.append((p, [0] + [G[k] for k in range(1, a + 1)], probe))
    return out


@settings(max_examples=20)
@given(move=moves)
def test_torsion_residual_floors_hold_across_each_root_ball(move):
    """Each root of [p^level]_M certifies v([p^level](r)) >= its residual
    floor; that must hold at every point of the root's claimed ball."""
    for p, G, probe in _torsion_probes():
        mod = probe.modulus
        e = [c.lift() for c in mod.coeffs]
        for root in probe.roots:
            r = _moved(root.point, move, p)
            acc = [Fraction(G[-1])] + [Fraction(0)] * (mod.degree - 1)
            for c in reversed(G[:-1]):
                acc = qt_mul(acc, r, e)
                acc[0] += c
            if root.residual_floor == INFINITE:
                assert not any(acc), f"exact root {r} is not a root"
            else:
                _at_least(acc, root.residual_floor, mod, p)
