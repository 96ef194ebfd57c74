"""Formal group laws: validation, negation, multiplication maps, and the
two-dimensional Lubin-Tate construction.

The Lubin-Tate construction runs on exact series (profile None): the
logarithm, its inverse, [p]_F and the group law have coefficients in
Z[1/p], so integers over one power of p hold them exactly, and no p-adic
precision is spent on the degree-by-degree inversion or the compositions.
The law is certified by its logarithm instead of by the axiom checks of
fg_validate, and only then rounded to the context's precision.
fg_validate checks the axioms of any other candidate, including every
law read from a document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AxiomViolation,
    BadArgument,
    MixedContext,
    NotEndomorphism,
    PrecisionExhausted,
    UnsupportedShape,
)
from .padic import INFINITE, PadicScalar, PrecisionContext
from .series import (
    MultiSeries,
    TupleSeries,
    lift_by_degree,
    tuple_compose,
)


@dataclass(frozen=True)
class AxiomCertificate:
    """Record of which axioms were verified, and to which degree."""

    degree: int
    axioms: tuple
    commutative: bool | None = None


class FormalGroupLaw:
    """A certified d-dimensional group law F(X, Y) in 2d variables."""

    __slots__ = ("dimension", "law", "certificate", "_negation")

    def __init__(self, dimension, law, certificate):
        self.dimension = dimension
        self.law = law
        self.certificate = certificate
        self._negation = None

    @property
    def ctx(self):
        return self.law.ctx

    def __repr__(self):
        return (f"FormalGroupLaw(dim={self.dimension}, "
                f"certified to degree {self.certificate.degree})")


class EndoSeries:
    """A d-in-d series attached to a group law, optionally certified."""

    __slots__ = ("series", "group", "certified")

    def __init__(self, series, group, certified=False):
        self.series = series
        self.group = group
        self.certified = certified


def block_embed(t: TupleSeries, total_vars: int, offset: int) -> TupleSeries:
    """Re-embed a d-in-d tuple into a wider variable set at ``offset``."""
    d = t.num_vars
    return t.map_variables(total_vars, [offset + i for i in range(d)])


def group_add(F: TupleSeries, s: TupleSeries, t: TupleSeries) -> TupleSeries:
    """F(s, t) for tuples s, t over a common variable set."""
    return tuple_compose(
        F, TupleSeries(list(s.components) + list(t.components)))


def _first_difference(a: TupleSeries, b: TupleSeries):
    """(component, exponent tuple) of the lowest-degree disagreement."""
    for i, (ca, cb) in enumerate(zip(a.components, b.components)):
        diff = ca - cb
        if not diff.is_zero:
            key = min(diff.coeffs)
            return i, diff.unpack(key)
    return None


def fg_validate(candidate: TupleSeries) -> FormalGroupLaw:
    """Check the group-law axioms and return a certified law.

    Verifies, modulo degree D+1: the linear part X + Y, the unit laws
    F(X,0) = F(0,X) = X and associativity; raises AxiomViolation naming
    the first failure.  The certificate also lists ``inverse``, which the
    linear part implies: with F = X + Y mod degree 2, the degree-k part of
    F(X, iota(X)) = 0 reads iota_k = -(terms of lower degree), solvable over
    any ring without a division (the formal implicit function theorem).
    fg_negation builds iota when it is first asked for and checks it there.
    """
    d = candidate.dim
    if candidate.num_vars != 2 * d:
        raise MixedContext(
            f"law must have {d} components in {2 * d} variables")
    ctx = candidate.ctx
    D = ctx.degree_cap

    # (i) F = X + Y mod deg 2
    for i, comp in enumerate(candidate.components):
        low = comp.truncate(1)
        want = MultiSeries.variable(ctx, 2 * d, i) + \
            MultiSeries.variable(ctx, 2 * d, d + i)
        diff = low - want
        if not diff.is_zero:
            key = min(diff.coeffs)
            deg = sum(diff.unpack(key))
            raise AxiomViolation("linear-part", deg, (i, diff.unpack(key)))

    # (iii) unit laws by substituting zero blocks
    ident_x = TupleSeries.identity(ctx, d, num_vars=2 * d, offset=0)
    ident_y = TupleSeries.identity(ctx, d, num_vars=2 * d, offset=d)
    FX0 = TupleSeries([c.substitute_zero(range(d, 2 * d))
                       for c in candidate.components])
    F0Y = TupleSeries([c.substitute_zero(range(d))
                       for c in candidate.components])
    w = _first_difference(FX0, ident_x)
    if w is not None:
        raise AxiomViolation("unit", sum(w[1]), w)
    w = _first_difference(F0Y, ident_y)
    if w is not None:
        raise AxiomViolation("unit", sum(w[1]), w)

    # (ii) associativity in 3d variables
    m3 = 3 * d
    FXY = candidate.map_variables(m3, list(range(2 * d)))
    FYZ = candidate.map_variables(m3, list(range(d, 3 * d)))
    X3 = TupleSeries.identity(ctx, d, num_vars=m3, offset=0)
    Z3 = TupleSeries.identity(ctx, d, num_vars=m3, offset=2 * d)
    left = group_add(candidate, FXY, Z3)
    right = group_add(candidate, X3, FYZ)
    w = _first_difference(left, right)
    if w is not None:
        raise AxiomViolation("associativity", sum(w[1]), w)

    perm = list(range(d, 2 * d)) + list(range(d))
    swapped = candidate.map_variables(2 * d, perm)
    commutative = _first_difference(candidate, swapped) is None

    cert = AxiomCertificate(
        degree=D,
        axioms=("linear-part", "unit", "associativity", "inverse"),
        commutative=commutative)
    return FormalGroupLaw(d, candidate, cert)


def _solve_negation(F: TupleSeries) -> TupleSeries:
    """The unique iota with F(X, iota(X)) = 0, solved degree by degree.

    F = X + Y mod degree 2, so the lift of F's inner pair (X, iota) starts
    from (X, -X) and adds (0, -[F(X, iota)]_k) at each degree k.
    """
    d = F.dim
    ident = TupleSeries.identity(F.ctx, d)
    zeros = list(TupleSeries.zero(F.ctx, d, d))
    pair = lift_by_degree(F, TupleSeries([*ident, *-ident]),
                          lambda k, r: TupleSeries([*zeros, *-r]))
    return TupleSeries(pair.components[d:])


def fg_negation(F: FormalGroupLaw) -> TupleSeries:
    """iota(X) with F(X, iota(X)) = 0 mod deg D+1, solved once and cached.

    The solved iota is checked against F(X, iota(X)) = 0 before it is
    cached; a failure raises AxiomViolation("inverse").
    """
    if F._negation is None:
        d = F.dimension
        iota = _solve_negation(F.law)
        probe = group_add(F.law, TupleSeries.identity(F.ctx, d), iota)
        w = _first_difference(probe, TupleSeries.zero(F.ctx, d, d))
        if w is not None:
            raise AxiomViolation("inverse", sum(w[1]), w)
        F._negation = iota
    return F._negation


# ---------------------------------------------------------------------------
# multiplication maps
# ---------------------------------------------------------------------------

def fg_multiplication_map(F: FormalGroupLaw, a) -> EndoSeries:
    """[a]_F for an integer or a p-adic integer multiplier.

    Integers, and Fractions with denominator 1, go through binary
    add/compose chains.  Any other p-adic multiplier a (a Fraction or a
    PadicScalar) known modulo p^m, m = min(its absolute precision, N),
    gives [a mod p^m]_F certified to p^(m - v_p(D!)).

    The bound holds for a law with p-integral coefficients: the degree-k
    coefficients of [n]_F are then integer-valued polynomials in n of
    degree at most k, so Z_p-combinations of the binomials C(n, j), j <= k
    (Mahler, J. reine angew. Math. 199 (1958)), and C(n, j) moves by a
    multiple of p^(m - v_p(j!)) when n moves by a multiple of p^m.  A
    multiplier outside Z_p, or a law with a coefficient outside Z_p, raises
    BadArgument.  An exact-zero multiplier gives the exact zero series.
    """
    if isinstance(a, Fraction) and a.denominator == 1:
        a = a.numerator
    if isinstance(a, int):
        return EndoSeries(_int_multiple(F, a), F)
    if isinstance(a, Fraction):
        a = PadicScalar.exact(F.ctx, a)
    if not isinstance(a, PadicScalar):
        raise TypeError("multiplier must be int, Fraction, or PadicScalar")
    F.ctx.require_same(a.ctx)
    if a.is_exact_zero:
        return EndoSeries(TupleSeries.zero(F.ctx, F.dimension, F.dimension), F)
    if a.valuation_lower_bound() < 0:
        raise BadArgument("multiplier must lie in Z_p")
    if any(c.shift for c in F.law):
        raise BadArgument(
            "a p-adic multiplier needs a law with p-integral coefficients")
    D = F.ctx.degree_cap
    known = min(a.prec, F.ctx.abs_precision)
    target = known - _vp_factorial(D, F.ctx.p)
    if target < 1:
        raise PrecisionExhausted(
            f"multiplier precision p^{known} cannot certify one digit of "
            f"[a]_F at degree cap {D}")
    cap = (target,) * (D + 1)
    return EndoSeries(TupleSeries([c._with_precision(cap) for c in
                                   _int_multiple(F, a.residue(known))]), F)


def _vp_factorial(n: int, p: int) -> int:
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def _int_multiple(F: FormalGroupLaw, n: int) -> TupleSeries:
    ctx = F.ctx
    d = F.dimension
    ident = TupleSeries.identity(ctx, d)
    if n == 0:
        return TupleSeries.zero(ctx, d, d)
    if n < 0:
        base = fg_negation(F)
        n = -n
    else:
        base = ident
    # binary: [2k+b] = F([2][k], [b]); composition realizes products
    result = None
    doubled = base
    while n:
        if n & 1:
            result = doubled if result is None else \
                group_add(F.law, result, doubled)
        n >>= 1
        if n:
            doubled = group_add(F.law, doubled, doubled)
    return result


# ---------------------------------------------------------------------------
# endomorphism verification
# ---------------------------------------------------------------------------

def endo_verify(F: FormalGroupLaw, f: TupleSeries) -> EndoSeries:
    """Certify f(F(X,Y)) = F(f(X), f(Y)) mod deg D+1 or raise a witness."""
    d = F.dimension
    if f.dim != d or f.num_vars != d:
        raise MixedContext("endomorphism candidate must be d-in-d")
    if not f.constant_is_zero():
        raise NotEndomorphism("nonzero constant term")
    lhs = tuple_compose(f, F.law)
    fX = block_embed(f, 2 * d, 0)
    fY = block_embed(f, 2 * d, d)
    rhs = group_add(F.law, fX, fY)
    w = _first_difference(lhs, rhs)
    if w is not None:
        raise NotEndomorphism(w)
    return EndoSeries(f, F, certified=True)


# ---------------------------------------------------------------------------
# the 2-dimensional Lubin-Tate construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LubinTate2Params:
    """Frobenius exponents (h1, h2) with gcd 1, plus the ambient context."""

    h1: int
    h2: int
    ctx: PrecisionContext

    def __post_init__(self):
        if self.h1 < 1 or self.h2 < 1:
            raise BadArgument("h1, h2 must be positive")
        if math.gcd(self.h1, self.h2) != 1:
            raise BadArgument("gcd(h1, h2) must be 1")
        if self.ctx.degree_cap < self.ctx.p ** min(self.h1, self.h2):
            raise BadArgument(
                "degree cap too small to expose the first logarithm term "
                f"(need >= p^min(h1,h2) = {self.ctx.p ** min(self.h1, self.h2)})")


@dataclass
class Lt2Result:
    """Logarithm, certified group law, [p]_F, and the checked congruences."""

    log: TupleSeries
    group: FormalGroupLaw
    mul_p: EndoSeries
    congruences: dict


def lt2_logarithm_terms(params: LubinTate2Params):
    """Unroll the mutual logarithm recursion until terms exceed the cap.

    L1 = x1 + (1/p) L2(x1^q1, x2^q1) with q1 = p^h1, and symmetrically for
    L2; iterating the pair to its fixed point below the degree cap yields
    one monomial per unrolling step.  Returns the two {exponents: Fraction}
    dicts.
    """
    p = params.ctx.p
    D = params.ctx.degree_cap
    q1 = p ** params.h1
    q2 = p ** params.h2
    t1 = {(1, 0): Fraction(1)}
    t2 = {(0, 1): Fraction(1)}
    while True:
        n1 = {(1, 0): Fraction(1), **{(i * q1, j * q1): c / p
                                      for (i, j), c in t2.items()
                                      if (i + j) * q1 <= D}}
        n2 = {(0, 1): Fraction(1), **{(i * q2, j * q2): c / p
                                      for (i, j), c in t1.items()
                                      if (i + j) * q2 <= D}}
        if n1 == t1 and n2 == t2:
            return n1, n2
        t1, t2 = n1, n2


def _lt2_exact(ctx, log_terms):
    """The exact logarithm L and its compositional inverse, as exact series.

    L = X + (higher terms), so L^{-1} starts from X, and at each degree k
    its correction is -[L(L^{-1})]_k.
    """
    L = TupleSeries([MultiSeries.from_exact_terms(ctx, 2, t)
                     for t in log_terms])
    return L, lift_by_degree(L, L.truncate(1), lambda k, r: -r)


def lt2_build(params: LubinTate2Params) -> Lt2Result:
    """Logarithm, group law F = L^{-1}(L(X) + L(Y)), and [p]_F.

    Everything is computed on exact series (coefficients in Z[1/p]) and
    only then certified for the context at its full precision.  The law is
    certified by its logarithm: L(F(X,Y)) = L(X) + L(Y) is checked exactly
    modulo degree D+1, and a failure raises AxiomViolation with the first
    differing coefficient.  Since L is exact with linear part X, the
    identity gives F = L^{-1}(L(X) + L(Y)) mod degree D+1, so the linear
    part, the unit laws, the inverse and associativity (both sides equal
    L^{-1}(L(X) + L(Y) + L(Z))) all hold: L is the logarithm of F over a
    Q-algebra (Hazewinkel, "Formal Groups and Applications", 1978).  F and
    [p]_F must be p-integral, else PrecisionExhausted; both
    multiplication-by-p congruences are checked on the exact [p]_F.
    """
    ctx = params.ctx
    p = ctx.p
    log_terms = lt2_logarithm_terms(params)
    L_exact, Linv_exact = _lt2_exact(ctx, log_terms)

    need = _lt2_budget(L_exact, Linv_exact)
    if ctx.abs_precision < need:
        raise PrecisionExhausted(
            f"abs_precision {ctx.abs_precision} too small for the 1/p budget "
            f"of this configuration; need at least {need}")

    # [p]_F = L^{-1}(p L), p-integral exactly when every shift is 0
    mulp_exact = tuple_compose(Linv_exact, L_exact.scale(p))
    if any(c.shift for c in mulp_exact):
        raise PrecisionExhausted("[p]_F is not p-integral")

    # F = L^{-1}(L(X) + L(Y)), certified by L(F) = L(X) + L(Y)
    lx_ly = L_exact.map_variables(4, [0, 1]) + L_exact.map_variables(4, [2, 3])
    F_exact = tuple_compose(Linv_exact, lx_ly)
    w = _first_difference(tuple_compose(L_exact, F_exact), lx_ly)
    if w is not None:
        raise AxiomViolation("logarithm", sum(w[1]), w)
    if any(c.shift for c in F_exact):
        raise PrecisionExhausted("the group law is not p-integral")

    def certified(t, num_vars):
        return TupleSeries([MultiSeries.from_terms(ctx, num_vars,
                                                   dict(c.terms()))
                            for c in t])

    group = FormalGroupLaw(2, certified(F_exact, 4), AxiomCertificate(
        degree=ctx.degree_cap,
        axioms=("linear-part", "unit", "associativity", "inverse"),
        commutative=_first_difference(
            F_exact, F_exact.map_variables(4, [2, 3, 0, 1])) is None))
    congruences = _check_lt2_congruences(mulp_exact, params)
    return Lt2Result(log=certified(L_exact, 2), group=group,
                     mul_p=EndoSeries(certified(mulp_exact, 2), group),
                     congruences=congruences)


def _lt2_budget(L: TupleSeries, Linv: TupleSeries) -> int:
    """Smallest abs_precision that survives the denominator exposure of
    the exact logarithm and its inverse."""
    comps = L.components + Linv.components
    worst_v = min(0, *(c.vmin for c in comps))
    worst_rho = min(c.rho for c in comps)
    return 2 - worst_v + 2 * math.ceil(-worst_rho * L.ctx.degree_cap)


def lt2_min_precision(h1: int, h2: int, p: int, D: int) -> int:
    """Precision budget for lt2_build(h1, h2) at prime p and degree cap D."""
    probe = LubinTate2Params(h1, h2, PrecisionContext(p, 1, D))
    return _lt2_budget(*_lt2_exact(probe.ctx, lt2_logarithm_terms(probe)))


def _check_lt2_congruences(mulp: TupleSeries, params) -> dict:
    """Eq-style congruence report: deg-2 linear shape and the mod-p shape,
    read off the exact, p-integral [p]_F."""
    ctx = params.ctx
    p = ctx.p
    wanted = [(0, p ** params.h1), (p ** params.h2, 0)]
    lin_ok = modp_ok = True
    for i, (comp, want_exp) in enumerate(zip(mulp.components, wanted)):
        terms = {comp.unpack(k): c for k, c in comp.coeffs.items()}
        lin_ok &= {e: c for e, c in terms.items() if sum(e) <= 1} \
            == {(int(i == 0), int(i == 1)): p}
        modp_ok &= _residues(comp) == {want_exp: 1}
    return {
        "linear_part_is_p_times_identity": lin_ok,
        "frobenius_shape_mod_p": modp_ok,
        "frobenius_exponents": (p ** params.h1, p ** params.h2),
    }


def _residues(comp: MultiSeries) -> dict:
    """{exponents: coefficient mod p} over the nonzero residues of a
    series with p-integral coefficients.  Every constructor leaves the
    least shift, so a positive shift means a non-integral coefficient."""
    if comp.shift > 0:
        raise UnsupportedShape("[p]_F has a non-integral coefficient")
    p = comp.ctx.p
    return {comp.unpack(k): c % p for k, c in comp.coeffs.items() if c % p}


# ---------------------------------------------------------------------------
# heights and kernel counting at desk scale
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeightReport:
    height: object          # int or INFINITE
    level: int
    kernel_order: object    # p^(h n), or INFINITE


def height_and_kernel_count(F: FormalGroupLaw, level: int = 1,
                            mul_p: TupleSeries | None = None) -> HeightReport:
    """Height via [p]_F mod p, and the kernel order p^(h * level).

    Dimension 1 uses the Weierstrass degree (index of the first unit
    coefficient); dimension 2 requires the monomial shape (u1 x_a^e1,
    u2 x_b^e2) mod p and counts the monomial basis of the residue ring over
    the image subring.  Anything else is UnsupportedShape.
    """
    # from level N on, p^level is 0 modulo p^N: no certified digit tells
    # the level apart from N, and p^(h level) stays a printable integer
    if not 1 <= level <= F.ctx.abs_precision:
        raise BadArgument(f"level must be in 1..{F.ctx.abs_precision}")
    d = F.dimension
    p = F.ctx.p
    series = mul_p if mul_p is not None else \
        fg_multiplication_map(F, p).series
    residues = [_residues(comp) for comp in series.components]
    if d == 1:
        entries = residues[0]
        if not entries:
            return HeightReport(INFINITE, level, INFINITE)
        wdeg = min(e[0] for e in entries)
        h = _exact_p_log(wdeg, p)
        if h is None:
            raise UnsupportedShape(
                f"Weierstrass degree {wdeg} is not a p-power")
        return HeightReport(h, level, p ** (h * level))
    if d == 2:
        if not residues[0] or not residues[1]:
            return HeightReport(INFINITE, level, INFINITE)
        if any(len(r) != 1 for r in residues):
            raise UnsupportedShape(
                "[p]_F mod p is not a monomial tuple")
        (e1,), (e2,) = (list(r) for r in residues)
        mat = [list(e1), list(e2)]
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        if det == 0:
            raise UnsupportedShape("mod-p exponent matrix is singular")
        if not ((mat[0][1] == 0 and mat[1][0] == 0)
                or (mat[0][0] == 0 and mat[1][1] == 0)):
            raise UnsupportedShape(
                "only axis-aligned monomial shapes are counted")
        # over the image of an axis-aligned shape (x_a^e1, x_b^e2), the
        # monomials x_a^i x_b^j with i < e1, j < e2 are a basis: |det| of them
        count = abs(det)
        h = _exact_p_log(count, p)
        if h is None:
            raise UnsupportedShape(f"rank {count} is not a p-power")
        return HeightReport(h, level, p ** (h * level))
    raise UnsupportedShape("height computation supports dimensions 1 and 2")


def _exact_p_log(n: int, p: int):
    h = 0
    while n > 1:
        if n % p:
            return None
        n //= p
        h += 1
    return h


# ---------------------------------------------------------------------------
# stock laws used across tests and the CLI
# ---------------------------------------------------------------------------

def multiplicative_law(ctx: PrecisionContext) -> FormalGroupLaw:
    """M(X, Y) = X + Y + XY."""
    m = MultiSeries.from_terms(ctx, 2, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    return fg_validate(TupleSeries([m]))


def additive_law(ctx: PrecisionContext, d: int = 1) -> FormalGroupLaw:
    comps = []
    for i in range(d):
        comps.append(MultiSeries.variable(ctx, 2 * d, i)
                     + MultiSeries.variable(ctx, 2 * d, d + i))
    return fg_validate(TupleSeries(comps))
