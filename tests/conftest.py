"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately naive (plain Fraction arithmetic on
exponent dictionaries) so they share no code with the library paths they
check.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import settings

from fglab.padic import ExtensionModulus, PadicScalar, PrecisionContext

# Property tests replay the same examples on every run and carry no
# per-example deadline (timings on a shared host are too noisy for one).
settings.register_profile("fglab", derandomize=True, deadline=None)
settings.load_profile("fglab")


def cyclotomic_coeffs(p: int, k: int) -> list:
    """Integer coefficients of Phi_(p^k)(1 + t), constant term first."""
    pk1 = p ** (k - 1)
    coeffs = [0] * (pk1 * (p - 1) + 1)
    for i in range(p):
        e = i * pk1
        for j in range(e + 1):
            coeffs[j] += math.comb(e, j)
    return coeffs


def cyclotomic_modulus(ctx: PrecisionContext, k: int) -> ExtensionModulus:
    """Phi_(p^k)(1 + t): Eisenstein of degree p^(k-1) (p - 1)."""
    return ExtensionModulus(ctx, cyclotomic_coeffs(ctx.p, k), "eisenstein")


def frac_mat_inverse(rows: list) -> list:
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination;
    raises ZeroDivisionError when it is singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# Fraction oracle for Q[t]/(e(t)) (independent of the extension layer)
# ---------------------------------------------------------------------------
# An element is a list of d Fractions, constant term first; e is a monic
# integer polynomial of degree d, constant term first, irreducible over Q.

def qt_reduce(a: list, e: list) -> list:
    d = len(e) - 1
    a = [Fraction(c) for c in a] + [Fraction(0)] * max(0, d - len(a))
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top]
        if c:
            for i in range(d + 1):
                a[top - d + i] -= c * e[i]
    return a[:d]


def qt_add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def qt_sub(a: list, b: list) -> list:
    return [x - y for x, y in zip(a, b)]


def qt_mul(a: list, b: list, e: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return qt_reduce(out, e)


def qt_inverse(a: list, e: list) -> list:
    """Solve a * s = 1 with the matrix of t^j * a; None when a is zero."""
    d = len(e) - 1
    cols, col = [], list(a)
    for _ in range(d):
        cols.append(col)
        col = qt_reduce([Fraction(0)] + col, e)
    try:
        inv = frac_mat_inverse([[cols[j][i] for j in range(d)]
                                for i in range(d)])
    except ZeroDivisionError:
        return None
    return [row[0] for row in inv]


def ext_representative(x, p: int) -> list:
    """The stored representative p^v * unit of each coefficient, read off
    the (v, unit, prec) fields."""
    return [Fraction(0) if c.v is None else Fraction(c.unit) * Fraction(p) ** c.v
            for c in x.coeffs]


def assert_ext_certified(x, exact: list, p: int):
    """Every certified digit of x agrees with the exact value: each stored
    coefficient matches its exact counterpart modulo the precision the
    coefficient claims."""
    for i, (got, want) in enumerate(zip(ext_representative(x, p), exact)):
        c = x.coeffs[i]
        diff = want - got
        assert diff == 0 or ref_valuation(diff, p) >= c.prec, \
            f"coefficient {i}: claims {c!r}, exact value {want}"


# ---------------------------------------------------------------------------
# Fraction-dict polynomial oracle (independent of the series layer)
# ---------------------------------------------------------------------------

def poly_mul(a: dict, b: dict, cap: int) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > cap:
                continue
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def poly_scale(a: dict, s) -> dict:
    return {e: c * s for e, c in a.items()} if s else {}


def poly_compose(outer: dict, inners: list, cap: int) -> dict:
    """Substitute inners[i] for variable i of outer, truncating at cap."""
    m = len(inners)
    target = len(next(iter(inners[0])))
    one = {(0,) * target: Fraction(1)}
    out = {}
    for exps, c in outer.items():
        term = dict(one)
        for i in range(m):
            for _ in range(exps[i]):
                term = poly_mul(term, inners[i], cap)
        out = poly_add(out, poly_scale(term, c))
    return out


def poly_inverse(h: list, cap: int) -> list:
    """Compositional inverse of a d-in-d tuple of Fraction dicts with an
    invertible linear part A, through degree cap: start from A^-1 X and
    add -A^-1 times the degree-k part of h(f) for k = 2..cap."""
    d = len(h)
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    ainv = frac_mat_inverse([[hi.get(e, 0) for e in units] for hi in h])
    f = [{e: c for e, c in zip(units, row) if c} for row in ainv]
    for k in range(2, cap + 1):
        resid = [{e: c for e, c in poly_compose(hi, f, k).items()
                  if sum(e) == k} for hi in h]
        for i in range(d):
            for j in range(d):
                f[i] = poly_add(f[i], poly_scale(resid[j], -ainv[i][j]))
    return f


def poly_negation(F: list, cap: int) -> list:
    """iota with F(X, iota(X)) = 0 for a d-dimensional law F given as
    Fraction dicts in 2d variables, through degree cap: start from -X and
    subtract the degree-k part of F(X, iota) for k = 2..cap."""
    d = len(F)
    X = [{tuple(int(i == j) for i in range(d)): Fraction(1)}
         for j in range(d)]
    iota = [poly_scale(x, -1) for x in X]
    for k in range(2, cap + 1):
        resid = [{e: c for e, c in poly_compose(Fi, X + iota, k).items()
                  if sum(e) == k} for Fi in F]
        iota = [poly_add(t, poly_scale(r, -1)) for t, r in zip(iota, resid)]
    return iota


def _monomials(num_vars: int, degree: int) -> list:
    """Exponent tuples of one total degree."""
    if num_vars == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree + 1)
            for rest in _monomials(num_vars - 1, degree - first)]


def frac_commutant(u: list, start: list, right: list, cap: int) -> list:
    """The h = start + (terms of degree >= 2) with u o h = h o right through
    degree cap, over Q.

    u is d Fraction dicts in d variables, start d linear dicts in n
    variables and right n dicts in n variables; commutant_reconstruct is
    start = J0 target times X with right = u, group_from_jacobian is
    start = X + Y with right = (u(X), u(Y)).  At each degree k the
    homogeneous correction D solves D(A X) - B D(X) = [u o h - h o right]_k,
    A and B the linear parts of right and u, with frac_mat_inverse on the
    (component, degree-k monomial) basis.
    """
    d, n = len(u), len(right)
    lin_r = [{e: c for e, c in r.items() if sum(e) == 1} for r in right]
    lin_u = [[ui.get(tuple(int(i == j) for i in range(d)), 0)
              for j in range(d)] for ui in u]
    h = [dict(s) for s in start]
    for k in range(2, cap + 1):
        basis = [(i, mono) for i in range(d) for mono in _monomials(n, k)]
        index = {b: r for r, b in enumerate(basis)}
        cols = []
        for i, mono in basis:
            col = [Fraction(0)] * len(basis)
            for e, c in poly_compose({mono: 1}, lin_r, k).items():
                col[index[(i, e)]] += c
            for t in range(d):
                col[index[(t, mono)]] -= lin_u[t][i]
            cols.append(col)
        inv = frac_mat_inverse([list(row) for row in zip(*cols)])
        resid = [Fraction(0)] * len(basis)
        for t in range(d):
            diff = poly_add(poly_compose(u[t], h, k),
                            poly_scale(poly_compose(h[t], right, k), -1))
            for e, c in diff.items():
                if sum(e) == k:
                    resid[index[(t, e)]] = c
        for r, (i, mono) in enumerate(basis):
            c = sum(x * y for x, y in zip(inv[r], resid) if y)
            if c:
                h[i][mono] = c
    return h


def lt2_log_oracle(p: int, h1: int, h2: int, cap: int) -> list:
    """The two-dimensional Lubin-Tate logarithm (L1, L2) through degree cap,
    in closed form.  Unrolling L1 = x1 + (1/p) L2(x1^q1, x2^q1) and
    L2 = x2 + (1/p) L1(x1^q2, x2^q2) (q_i = p^h_i) gives
    L1 = sum_k p^-k m_k, where m_0 = x1 and m_(k+1) raises the other
    variable to the degree of m_k times q1, q2, q1, ... in turn; L2
    likewise from x2 with q2 first."""
    out = []
    for var, qs in ((0, (p ** h1, p ** h2)), (1, (p ** h2, p ** h1))):
        terms, deg, k = {}, 1, 0
        while deg <= cap:
            exps = [0, 0]
            exps[(var + k) % 2] = deg
            terms[tuple(exps)] = Fraction(1, p ** k)
            deg *= qs[k % 2]
            k += 1
        out.append(terms)
    return out


def lt2_law_oracle(p: int, h1: int, h2: int, cap: int) -> list:
    """The Lubin-Tate law F = L^-1(L(X) + L(Y)) through degree cap over Q,
    from the closed-form logarithm, poly_inverse and poly_compose; X is
    variables 0, 1 and Y variables 2, 3."""
    log = lt2_log_oracle(p, h1, h2, cap)
    both = [poly_add({e + (0, 0): c for e, c in t.items()},
                     {(0, 0) + e: c for e, c in t.items()}) for t in log]
    return [poly_compose(t, both, cap) for t in poly_inverse(log, cap)]


def series_to_fractions(ms) -> dict:
    """Canonical rational representatives of a series' stored coefficients."""
    return {tuple(e): c.lift() for e, c in ms.terms()}


def assert_series_matches(ms, expected: dict):
    """Every stored and expected coefficient agrees at working precision."""
    seen = set()
    for exps, coeff in ms.terms():
        want = expected.get(tuple(exps), 0)
        assert coeff.same_at_working_precision(want), \
            f"coefficient at {tuple(exps)}: got {coeff!r}, want {want}"
        seen.add(tuple(exps))
    for exps, want in expected.items():
        if exps in seen:
            continue
        got = ms.coefficient(exps)
        assert got.same_at_working_precision(want), \
            f"coefficient at {exps}: absent, want {want}"


def assert_series_certified(ms, exact: dict, cap: int):
    """Every digit ms certifies through degree cap agrees with exact.

    A stored coefficient (read off the raw integer and shift) and an absent
    monomial (zero) must match the exact coefficient modulo p^prof(d)
    wherever prof(d) >= 1.
    """
    p = ms.ctx.p
    stored = {ms.unpack(k): Fraction(c, p ** ms.shift)
              for k, c in ms.coeffs.items()}
    for exps in set(stored) | set(exact):
        d = sum(exps)
        pf = ms.prof(d)
        if d > cap or pf < 1:
            continue
        diff = exact.get(exps, 0) - stored.get(exps, 0)
        assert diff == 0 or ref_valuation(diff, p) >= pf, \
            f"coefficient at {exps}: claims {stored.get(exps, 0)} " \
            f"mod {p}^{pf}, exact value {exact.get(exps, 0)}"


# ---------------------------------------------------------------------------
# Fraction reference for the series precision bookkeeping
# ---------------------------------------------------------------------------

def ref_valuation(q, p: int) -> int:
    """p-adic valuation of a nonzero rational, by repeated division."""
    q = Fraction(q)
    v = 0
    while q.numerator % p == 0:
        q /= p
        v += 1
    while q.denominator % p == 0:
        q *= p
        v -= 1
    return v


def ref_degree_valuations(ms) -> dict:
    """{degree: least valuation of the stored coefficients of that degree},
    read off the raw integers as Fractions."""
    p = ms.ctx.p
    out = {}
    for k, c in ms.coeffs.items():
        d = sum(ms.unpack(k))
        out[d] = min(out.get(d, math.inf),
                     ref_valuation(Fraction(c, p ** ms.shift), p))
    return out


def ref_mul_prec(a, b, cap) -> list:
    """Precision of a*b truncated at cap, degrees 0..cap, by brute force
    over every pair i + j = k (None when both factors are exact).

    With A, B the stored parts and ea, eb the uncertainties, a*b - A*B =
    ea*(B + eb) + A*eb; a certified product also keeps at most N digits
    past the valuation of the data products A_i B_j.
    """
    if a.prec is None and b.prec is None:
        return None
    N = a.ctx.abs_precision
    va, vb = ref_degree_valuations(a), ref_degree_valuations(b)
    out = []
    for k in range(cap + 1):
        best = math.inf
        for i in range(k + 1):
            xa, xb = va.get(i, math.inf), vb.get(k - i, math.inf)
            pa, pb = a.prof(i), b.prof(k - i)
            best = min(best, pa + min(xb, pb), min(xa, pa) + pb,
                       N + xa + xb)
        out.append(best)
    return out


def ref_scale_prec(ms, s) -> list:
    """Precision of ms.scale(s), degrees 0..D, for a nonzero scalar s: s
    is known to p^s_abs (exact for a rational in Z[1/p], else to N digits)
    and the product keeps at most N digits past its data."""
    p, N, D = ms.ctx.p, ms.ctx.abs_precision, ms.ctx.degree_cap
    if isinstance(s, PadicScalar):
        vq, s_abs = s.valuation(), s.prec
    else:
        q = Fraction(s)
        vq = ref_valuation(q, p)
        s_abs = math.inf if p ** ref_valuation(q.denominator, p) \
            == q.denominator else vq + N
    if ms.prec is None and s_abs == math.inf:
        return None
    vals = ref_degree_valuations(ms)
    return [min(ms.prof(d) + vq,
                s_abs + min(vals.get(d, math.inf), ms.prof(d)),
                N + vq + vals.get(d, math.inf)) for d in range(D + 1)]


@pytest.fixture
def ctx5():
    return PrecisionContext(5, 12, 8)


@pytest.fixture
def ctx2():
    return PrecisionContext(2, 14, 8)


@pytest.fixture
def ctx3():
    return PrecisionContext(3, 14, 9)
