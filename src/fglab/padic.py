"""Exact p-adic base-field and extension-field arithmetic.

A scalar is stored as valuation + unit digits together with the number of
certified digits, so every result advertises exactly how much of it is
trustworthy.  Division by p consumes absolute precision and operations fail
loudly (PrecisionExhausted) instead of degrading silently; the distinction
between an exact zero and "zero as far as we can see" is kept explicit
because finite-precision arguments can only ever certify the latter.

Extensions are user-supplied monic moduli over Z_p tagged ``eisenstein``
(totally ramified, v(t) = 1/e) or ``unramified`` (residue degree f); no
factorization or automatic extension discovery happens here.

One integer kernel carries the scalar rules for both classes: the
module-level functions ``_build``, ``_zero_at``, ``_mul_add`` (with its
special cases ``_mul`` and ``_add``) and ``_neg`` work on plain
``(v, unit, rel)`` triples.  ``PadicScalar``'s operators coerce, call the
kernel and wrap the triple; ``ExtScalar`` runs its coefficient loops on
triples, one ``_mul_add`` per product term, and wraps only its d output
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadArgument,
    BadModulus,
    DivisionByZero,
    ImpreciseValuation,
    MixedContext,
    PrecisionExhausted,
)

#: valuation reported for an exact zero
INFINITE = math.inf


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# the largest prime modulus a context accepts: trial division decides
# primality below it in milliseconds, where a prime near 10^30 would take
# longer than any desk computation
_P_LIMIT = 2 ** 32


@dataclass(frozen=True)
class PrecisionContext:
    """Ambient parameters: prime p, certified-digit cap N, total-degree cap D."""

    p: int
    abs_precision: int
    degree_cap: int

    def __post_init__(self):
        if not (self.p < _P_LIMIT and _is_prime(self.p)):
            raise BadArgument(f"p = {self.p} is not a prime below 2^32")
        if self.abs_precision < 1:
            raise BadArgument("abs_precision must be >= 1")
        if self.degree_cap < 2:
            raise BadArgument("degree_cap must be >= 2")

    def require_same(self, other: "PrecisionContext"):
        if self is not other and self != other:
            raise MixedContext(f"contexts differ: {self} vs {other}")


# ---------------------------------------------------------------------------
# scalar kernel
# ---------------------------------------------------------------------------
# The rules of PadicScalar arithmetic on (v, unit, rel) triples, in the three
# states of PadicScalar: (None, 0, None) is the exact zero, (None, 0, k) is
# zero modulo p^k, and (v, unit, rel) is p^v * unit known modulo p^(v + rel).
# Only the exact zero has rel None.  p is the prime and N the cap on rel.

_EXACT_ZERO = (None, 0, None)


def _build(p, N, v, unit, rel):
    """Normalized nonzero triple; raises if no certified digit remains."""
    if rel > N:
        rel = N
    if rel < 1:
        raise PrecisionExhausted(
            f"result at valuation {v} retains {rel} certified digits")
    if v + rel < 1:
        raise PrecisionExhausted(
            f"known precision p^{v + rel} dropped below p^1")
    return (v, unit % p ** rel, rel)


def _zero_at(N, prec):
    """Zero modulo p^prec with nothing certified beyond."""
    if prec < 1:
        raise PrecisionExhausted(
            f"zero certified only modulo p^{prec}: no digits remain")
    return (None, 0, prec if prec < N else N)


def _mul_add(p, N, c, a, b):
    """c + a * b: the product rule, then the addition rule.

    The sum is known modulo the weaker of the two precisions, the product
    at the smaller relative precision of its factors.
    """
    av, au, ar = a
    bv, bu, br = b
    if ar is None or br is None:
        return c
    if av is None or bv is None:
        wv, wu, wr = _zero_at(N, (ar if av is None else av)
                              + (br if bv is None else bv))
        wk = wr
    else:
        wr = ar if ar < br else br
        if wr > N:
            wr = N
        wv = av + bv
        if wr < 1 or wv + wr < 1:       # no digit left: _build raises
            return _build(p, N, wv, au * bu, wr)
        # digits of au * bu beyond p^wr drop out of the sum's modulus
        wu = au * bu
        wk = wv + wr
    cv, cu, cr = c
    if cr is None:
        return (wv, wu % p ** wr, wr) if wv is not None else (wv, wu, wr)
    ck = cr if cv is None else cv + cr
    absprec = ck if ck < wk else wk
    # a zero, or a digit at or beyond absprec, adds nothing modulo p^absprec
    va = absprec if cv is None else cv
    vb = absprec if wv is None else wv
    vmin = va if va < vb else vb
    if vmin >= absprec:
        return _zero_at(N, absprec)
    if va == vmin:
        r = cu
    else:
        r = cu * p ** (va - vmin) if va < absprec else 0
    if vb == vmin:
        r += wu
    elif vb < absprec:
        r += wu * p ** (vb - vmin)
    r %= p ** (absprec - vmin)
    if r == 0:
        return _zero_at(N, absprec)
    v = vmin
    while r % p == 0:
        r //= p
        v += 1
    rel = absprec - v
    if absprec < 1 or rel > N:      # r < p^rel already: _build only checks
        return _build(p, N, v, r, rel)
    return (v, r, rel)


def _mul(p, N, a, b):
    """a * b."""
    return _mul_add(p, N, _EXACT_ZERO, a, b)


def _add(p, N, a, b):
    """a + b, as a + b * 1 (b * 1 is b, its rel never exceeding N)."""
    return _mul_add(p, N, a, b, (0, 1, N))


def _neg(p, a):
    """-a, at the precision of a."""
    v, u, rel = a
    if v is None:
        return a
    return (v, -u % p ** rel, rel)


class PadicScalar:
    """An element of Q_p known to a certified precision.

    Three states:

    * exact zero            -- ``v is None and rel is None``
    * zero at precision k   -- ``v is None, rel = k`` (value is 0 mod p^k)
    * nonzero               -- value = p^v * unit, unit a unit mod p^rel,
                               certified modulo p^(v + rel)

    The relative precision ``rel`` never exceeds the context cap N, so a
    division by p^k lowers the certified absolute precision by exactly k.
    """

    __slots__ = ("ctx", "v", "unit", "rel")

    def __init__(self, ctx, v, unit, rel):
        self.ctx = ctx
        self.v = v
        self.unit = unit
        self.rel = rel

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, ctx: PrecisionContext, value) -> "PadicScalar":
        """Scalar from an int or Fraction, certified to the context cap."""
        if isinstance(value, PadicScalar):
            ctx.require_same(value.ctx)
            return value
        q = Fraction(value)
        if q == 0:
            return cls.zero(ctx)
        p = ctx.p
        v = _vp(q.numerator, p) - _vp(q.denominator, p)
        rel = ctx.abs_precision
        mod = p ** rel
        if v > 0:
            num, den = q.numerator // p ** v, q.denominator
        elif v < 0:
            num, den = q.numerator, q.denominator // p ** (-v)
        else:
            num, den = q.numerator, q.denominator
        unit = num * pow(den, -1, mod) % mod
        return cls._build(ctx, v, unit, rel)

    @classmethod
    def zero(cls, ctx: PrecisionContext) -> "PadicScalar":
        return cls(ctx, None, 0, None)

    @classmethod
    def zero_at(cls, ctx: PrecisionContext, prec: int) -> "PadicScalar":
        """Zero modulo p^prec with nothing certified beyond."""
        return cls(ctx, *_zero_at(ctx.abs_precision, prec))

    @classmethod
    def _build(cls, ctx, v, unit, rel) -> "PadicScalar":
        """Normalized nonzero scalar; raises if no certified digit remains."""
        return cls(ctx, *_build(ctx.p, ctx.abs_precision, v, unit, rel))

    # -- predicates and accessors -----------------------------------------

    @property
    def is_zero(self) -> bool:
        """Zero at working precision (exactly zero or indistinguishable)."""
        return self.v is None

    @property
    def is_exact_zero(self) -> bool:
        return self.v is None and self.rel is None

    @property
    def known_precision(self):
        """Certified absolute precision: value is known modulo p^this."""
        if self.is_exact_zero:
            return INFINITE
        if self.v is None:
            return self.rel
        return self.v + self.rel

    def valuation(self):
        """Exact additive valuation; INFINITE for exact zero.

        Raises ImpreciseValuation for a zero-at-precision element, whose
        valuation is only known to exceed the certified precision.
        """
        if self.is_exact_zero:
            return INFINITE
        if self.v is None:
            raise ImpreciseValuation(
                f"zero modulo p^{self.rel} but not certified zero")
        return self.v

    def valuation_lower_bound(self):
        """Certified lower bound on the valuation; always available."""
        if self.is_exact_zero:
            return INFINITE
        if self.v is None:
            return self.rel
        return self.v

    def digits(self) -> list:
        """Little-endian base-p digits of the unit part (rel of them)."""
        if self.v is None:
            return []
        p, u, out = self.ctx.p, self.unit, []
        for _ in range(self.rel):
            u, r = divmod(u, p)
            out.append(r)
        return out

    def residue(self, k: int = 1) -> int:
        """Value modulo p^k as an integer in [0, p^k); needs v >= 0."""
        if self.v is None:
            if self.rel is not None and self.rel < k:
                raise PrecisionExhausted(f"only certified modulo p^{self.rel}")
            return 0
        if self.v < 0:
            raise ValueError("negative valuation has no integer residue")
        if self.known_precision < k:
            raise PrecisionExhausted(
                f"known modulo p^{self.known_precision}, requested p^{k}")
        return self.unit * self.ctx.p ** self.v % self.ctx.p ** k

    def lift(self) -> Fraction:
        """Canonical rational representative p^v * unit of the certified class."""
        if self.v is None:
            return Fraction(0)
        return Fraction(self.unit) * Fraction(self.ctx.p) ** self.v

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            self.ctx.require_same(other.ctx)
            return other
        if isinstance(other, (int, Fraction)):
            return PadicScalar.exact(self.ctx, other)
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        ctx = self.ctx
        return PadicScalar(ctx, *_add(ctx.p, ctx.abs_precision,
                                      (self.v, self.unit, self.rel),
                                      (b.v, b.unit, b.rel)))

    __radd__ = __add__

    def __neg__(self):
        if self.v is None:
            return self
        return PadicScalar(self.ctx, *_neg(self.ctx.p,
                                           (self.v, self.unit, self.rel)))

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        ctx = self.ctx
        return PadicScalar(ctx, *_add(ctx.p, ctx.abs_precision,
                                      (self.v, self.unit, self.rel),
                                      _neg(ctx.p, (b.v, b.unit, b.rel))))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        ctx = self.ctx
        return PadicScalar(ctx, *_add(ctx.p, ctx.abs_precision,
                                      _neg(ctx.p, (self.v, self.unit, self.rel)),
                                      (b.v, b.unit, b.rel)))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        ctx = self.ctx
        return PadicScalar(ctx, *_mul(ctx.p, ctx.abs_precision,
                                      (self.v, self.unit, self.rel),
                                      (b.v, b.unit, b.rel)))

    __rmul__ = __mul__

    def inverse(self) -> "PadicScalar":
        if self.v is None:
            raise DivisionByZero("inverse of zero at working precision")
        mod = self.ctx.p ** self.rel
        return PadicScalar._build(self.ctx, -self.v,
                                  pow(self.unit, -1, mod), self.rel)

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if b.v is None:
            raise DivisionByZero("divisor is zero at working precision")
        if self.is_exact_zero:
            return self
        if self.v is None:
            return PadicScalar.zero_at(self.ctx, self.rel - b.v)
        return self * b.inverse()

    def __rtruediv__(self, other):
        a = self._coerce(other)
        if a is None:
            return NotImplemented
        return a / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = PadicScalar.exact(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by p^k exactly (relabels digits; rel unchanged)."""
        if self.v is None:
            if self.rel is None:
                return self
            return PadicScalar.zero_at(self.ctx, self.rel + k)
        return PadicScalar._build(self.ctx, self.v + k, self.unit, self.rel)

    def reduce_abs_precision(self, prec: int) -> "PadicScalar":
        """Forget digits beyond absolute precision p^prec (no-op if weaker)."""
        if self.known_precision <= prec:
            return self
        if self.v is None:
            return PadicScalar.zero_at(self.ctx, prec)
        if self.v >= prec:
            return PadicScalar.zero_at(self.ctx, prec)
        return PadicScalar._build(self.ctx, self.v, self.unit, prec - self.v)

    # -- comparisons -------------------------------------------------------

    def same_at_working_precision(self, other) -> bool:
        """True when the difference is zero at its certified precision."""
        b = self._coerce(other)
        return (self - b).is_zero

    def identical(self, other: "PadicScalar") -> bool:
        """Bitwise identity of the stored representation."""
        return (self.ctx == other.ctx and self.v == other.v
                and self.unit == other.unit and self.rel == other.rel)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.same_at_working_precision(other)
        if isinstance(other, PadicScalar):
            return self.identical(other)
        return NotImplemented

    # == against an int or Fraction holds at working precision, which is
    # not transitive, so no hash can agree with it: the type is unhashable
    __hash__ = None

    def __repr__(self):
        p = self.ctx.p
        if self.is_exact_zero:
            return "0"
        if self.v is None:
            return f"O({p}^{self.rel})"
        return f"{self.unit}*{p}^{self.v} + O({p}^{self.v + self.rel})"


def teichmuller(r: int, ctx: PrecisionContext) -> PadicScalar:
    """The unique (p-1)-th root of unity congruent to r mod p (0 for r=0).

    Computed by iterating x -> x^p, which contracts to the fixed point.
    """
    if not 0 <= r < ctx.p:
        raise ValueError(f"residue {r} not in [0, {ctx.p})")
    if r == 0:
        return PadicScalar.zero(ctx)
    mod = ctx.p ** ctx.abs_precision
    x = r % mod
    for _ in range(ctx.abs_precision + 1):
        nxt = pow(x, ctx.p, mod)
        if nxt == x:
            break
        x = nxt
    return PadicScalar._build(ctx, 0, x, ctx.abs_precision)


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_divmod_mod_p(a, b, p):
    """Quotient and remainder (trailing zeros stripped) modulo p."""
    a = [c % p for c in a]
    b = [c % p for c in b]
    while b and b[-1] == 0:
        b.pop()
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - db)
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db or not any(a):
            break
        c = a[-1] * inv % p
        shift = len(a) - 1 - db
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
    return q, a


def _poly_sub_mod_p(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [(x - y) % p for x, y in zip(a, b)]


def _poly_gcd_mod_p(a, b, p):
    a, b = [c % p for c in a], [c % p for c in b]
    while any(b):
        a, b = b, _poly_divmod_mod_p(a, b, p)[1]
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
    return a


def _poly_powmod_mod_p(base, e, m, p):
    result = [1]
    base = _poly_divmod_mod_p(base, m, p)[1]
    while e:
        if e & 1:
            result = _poly_divmod_mod_p(
                _poly_mul_mod_p(result, base, p), m, p)[1]
        base = _poly_divmod_mod_p(_poly_mul_mod_p(base, base, p), m, p)[1]
        e >>= 1
    return result


def _irreducible_mod_p(coeffs, p) -> bool:
    """Rabin test for a monic integer polynomial modulo p."""
    n = len(coeffs) - 1
    if n < 1:
        return False
    m = [c % p for c in coeffs]
    x = _poly_divmod_mod_p([0, 1], m, p)[1]
    # x^(p^n) == x mod (m, p)
    t = x
    for _ in range(n):
        t = _poly_powmod_mod_p(t, p, m, p)
    if any(_poly_sub_mod_p(t, x, p)):
        return False
    # gcd(x^(p^(n/q)) - x, m) must be constant for every prime q | n
    q = 2
    nn = n
    primes = set()
    while q * q <= nn:
        if nn % q == 0:
            primes.add(q)
            while nn % q == 0:
                nn //= q
        q += 1
    if nn > 1:
        primes.add(nn)
    for q in primes:
        t = x
        for _ in range(n // q):
            t = _poly_powmod_mod_p(t, p, m, p)
        d = _poly_sub_mod_p(t, x, p)
        g = _poly_gcd_mod_p(d, m, p)
        if len(g) > 1:
            return False
    return True


class ExtensionModulus:
    """A validated monic modulus e(t) over Z_p defining O = Z_p[t]/(e(t))."""

    __slots__ = ("ctx", "coeffs", "tag", "degree", "ram_index", "res_degree",
                 "_neg_low")

    def __init__(self, ctx: PrecisionContext, coeffs, tag: str):
        self.ctx = ctx
        scalars = tuple(PadicScalar.exact(ctx, c) for c in coeffs)
        if len(scalars) < 2:
            raise BadModulus("modulus must have degree >= 1")
        lead = scalars[-1]
        if lead.is_zero or not lead.same_at_working_precision(1):
            raise BadModulus("modulus must be monic")
        self.coeffs = scalars
        self.degree = len(scalars) - 1
        self.tag = tag
        low = scalars[:-1]
        if tag == "eisenstein":
            c0 = low[0]
            if c0.is_zero or c0.valuation() != 1:
                raise BadModulus("eisenstein tag needs v(constant term) = 1")
            for c in low[1:]:
                if not c.is_zero and c.valuation() < 1:
                    raise BadModulus("eisenstein tag needs v(c_i) >= 1")
            self.ram_index = self.degree
            self.res_degree = 1
        elif tag == "unramified":
            ints = []
            for c in low:
                if not c.is_zero and c.valuation() < 0:
                    raise BadModulus("unramified modulus must be integral")
                ints.append(0 if c.is_zero else c.residue(1))
            ints.append(1)
            if not _irreducible_mod_p(ints, ctx.p):
                raise BadModulus("unramified tag needs irreducibility mod p")
            self.ram_index = 1
            self.res_degree = self.degree
        else:
            raise BadModulus(f"unknown tag {tag!r}")
        # -c_i as kernel triples: reducing t^d subtracts c_i t^i, i < d
        self._neg_low = tuple(_neg(ctx.p, (c.v, c.unit, c.rel)) for c in low)

    @classmethod
    def base(cls, ctx: PrecisionContext) -> "ExtensionModulus":
        """Degree-1 modulus t - 1: the base field embedded."""
        return cls(ctx, [-1, 1], "unramified")

    def same_as(self, other: "ExtensionModulus") -> bool:
        if self is other:
            return True
        if self.ctx != other.ctx or self.degree != other.degree:
            return False
        return all(a.same_at_working_precision(b)
                   for a, b in zip(self.coeffs, other.coeffs))

    def require_same(self, other: "ExtensionModulus"):
        if not self.same_as(other):
            raise MixedContext("extension moduli differ")

    def __repr__(self):
        return f"ExtensionModulus(deg={self.degree}, tag={self.tag})"


class ExtScalar:
    """Element of Z_p[t]/(e(t)) as a coefficient vector of PadicScalars."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: ExtensionModulus, coeffs):
        self.modulus = modulus
        self.coeffs = tuple(coeffs)

    @property
    def ctx(self):
        return self.modulus.ctx

    @classmethod
    def from_poly(cls, modulus: ExtensionModulus, coeffs) -> "ExtScalar":
        """Reduce an arbitrary polynomial in t modulo the modulus."""
        ctx = modulus.ctx
        work = []
        for c in coeffs:
            if isinstance(c, PadicScalar):
                ctx.require_same(c.ctx)
            else:
                c = PadicScalar.exact(ctx, c)
            work.append((c.v, c.unit, c.rel))
        return cls(modulus, _reduce(modulus, work))

    @classmethod
    def zero(cls, modulus) -> "ExtScalar":
        z = PadicScalar.zero(modulus.ctx)
        return cls(modulus, [z] * modulus.degree)

    @classmethod
    def one(cls, modulus) -> "ExtScalar":
        return cls.from_poly(modulus, [1])

    @classmethod
    def uniformizer(cls, modulus) -> "ExtScalar":
        """t for an eisenstein modulus, p for an unramified one."""
        if modulus.tag == "eisenstein":
            return cls.from_poly(modulus, [0, 1])
        return cls.from_poly(modulus, [modulus.ctx.p])

    @classmethod
    def from_base(cls, modulus, scalar) -> "ExtScalar":
        return cls.from_poly(modulus, [scalar])

    # -- state -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    @property
    def is_exact_zero(self) -> bool:
        return all(c.is_exact_zero for c in self.coeffs)

    def valuation(self):
        """Exact valuation as a Fraction (denominator | e), or INFINITE.

        For an eisenstein modulus the candidate valuations v(a_i) + i/e have
        pairwise distinct fractional parts, so the minimum is exact; for an
        unramified modulus the residue field argument makes min exact.
        """
        e, step = self._scale()
        best = None
        uncertain = []
        for i, c in enumerate(self.coeffs):
            if c.rel is None:
                continue
            if c.v is None:
                uncertain.append(c.rel * e + i * step)
            else:
                cand = c.v * e + i * step
                if best is None or cand < best:
                    best = cand
        if best is None:
            if not uncertain:
                return INFINITE
            raise ImpreciseValuation(
                f"zero modulo precision floor {Fraction(min(uncertain), e)}")
        for bound in uncertain:
            if bound <= best:
                raise ImpreciseValuation(
                    f"uncertain coefficient bound {Fraction(bound, e)} "
                    f"<= minimum {Fraction(best, e)}")
        return Fraction(best, e)

    def _scale(self):
        """(e, step): coefficient i of valuation w has valuation
        (w e + i step) / e."""
        mod = self.modulus
        return mod.ram_index, 1 if mod.tag == "eisenstein" else 0

    def valuation_lower_bound(self):
        e, step = self._scale()
        best = None
        for i, c in enumerate(self.coeffs):
            if c.rel is None:
                continue
            cand = (c.rel if c.v is None else c.v) * e + i * step
            if best is None or cand < best:
                best = cand
        return INFINITE if best is None else Fraction(best, e)

    def precision_floor(self):
        """Certified valuation floor of the representation's uncertainty."""
        e, step = self._scale()
        best = None
        for i, c in enumerate(self.coeffs):
            if c.rel is None:
                continue
            cand = (c.rel if c.v is None else c.v + c.rel) * e + i * step
            if best is None or cand < best:
                best = cand
        return INFINITE if best is None else Fraction(best, e)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExtScalar):
            self.modulus.require_same(other.modulus)
            return other
        if isinstance(other, (int, Fraction, PadicScalar)):
            return ExtScalar.from_poly(self.modulus, [other])
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        ctx = self.modulus.ctx
        p, N = ctx.p, ctx.abs_precision
        return ExtScalar(self.modulus, [
            PadicScalar(ctx, *_add(p, N, (x.v, x.unit, x.rel),
                                   (y.v, y.unit, y.rel)))
            for x, y in zip(self.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return ExtScalar(self.modulus, [-c for c in self.coeffs])

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        ctx = self.modulus.ctx
        p, N = ctx.p, ctx.abs_precision
        return ExtScalar(self.modulus, [
            PadicScalar(ctx, *_add(p, N, (x.v, x.unit, x.rel),
                                   _neg(p, (y.v, y.unit, y.rel))))
            for x, y in zip(self.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        mod = self.modulus
        ctx = mod.ctx
        p, N = ctx.p, ctx.abs_precision
        if isinstance(other, (int, Fraction, PadicScalar)) and \
                not isinstance(other, ExtScalar):
            if isinstance(other, PadicScalar):
                ctx.require_same(other.ctx)
                s = other
            else:
                s = PadicScalar.exact(ctx, other)
            ts = (s.v, s.unit, s.rel)
            return ExtScalar(mod, [
                PadicScalar(ctx, *_mul(p, N, (c.v, c.unit, c.rel), ts))
                for c in self.coeffs])
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        conv = [_EXACT_ZERO] * (2 * mod.degree - 1)
        tb = [(c.v, c.unit, c.rel) for c in b.coeffs]
        for i, a in enumerate(self.coeffs):
            if a.rel is None:
                continue
            ta = (a.v, a.unit, a.rel)
            for j, y in enumerate(tb):
                if y[2] is not None:
                    conv[i + j] = _mul_add(p, N, conv[i + j], ta, y)
        return ExtScalar(mod, _reduce(mod, conv))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ExtScalar.one(self.modulus)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def _unit_inverse(self) -> "ExtScalar":
        """Newton inverse of a unit (valuation 0)."""
        mod = self.modulus
        p = self.ctx.p
        if mod.tag == "unramified" and mod.degree > 1:
            ints = [0 if c.is_zero else c.residue(1) for c in self.coeffs]
            while ints and ints[-1] == 0:
                ints.pop()
            if not ints:
                raise DivisionByZero("not a unit in the residue field")
            mints = [0 if c.is_zero else c.residue(1) for c in mod.coeffs]
            # extended euclid over F_p[t]
            r0, r1 = mints, ints
            s0, s1 = [0], [1]
            while any(r1) and len(r1) > 1:
                q, rem = _poly_divmod_mod_p(r0, r1, p)
                r0, r1 = r1, rem
                s0, s1 = s1, _poly_sub_mod_p(s0, _poly_mul_mod_p(q, s1, p), p)
            if not any(r1):
                raise DivisionByZero("not a unit in the residue field")
            c = pow(r1[0], -1, p)
            inv0 = [x * c % p for x in s1]
            y = ExtScalar.from_poly(mod, inv0)
        else:
            c0 = self.coeffs[0]
            if c0.is_zero or c0.valuation() != 0:
                raise DivisionByZero("not a unit at working precision")
            y = ExtScalar.from_poly(mod, [pow(c0.residue(1), -1, p)])
        one = ExtScalar.one(mod)
        steps = max(1, (self.ctx.abs_precision * mod.ram_index).bit_length() + 1)
        for _ in range(steps):
            err = one - self * y
            if err.is_zero:
                break
            y = y + y * err
        else:
            err = one - self * y
        # y's own precision comes from arithmetic, not from convergence:
        # 1/x - y = err/x with x a unit, so y is true only to v(err)
        return y.cap_precision(err.valuation_lower_bound())

    def inverse(self) -> "ExtScalar":
        if self.is_zero:
            raise DivisionByZero("inverse of zero at working precision")
        if all(c.is_exact_zero for c in self.coeffs[1:]):
            # a base-field element: its inverse stays in the base field,
            # so the upper coefficients stay exact zeros
            return ExtScalar.from_base(self.modulus, self.coeffs[0].inverse())
        val = self.valuation()
        mod = self.modulus
        e = mod.ram_index
        m = math.floor(val)
        r = int((val - m) * e)
        x = self
        if m:
            x = x * PadicScalar.exact(self.ctx, 1).shift(-m)
        tinv_r = None
        if r:
            tinv_r = _t_inverse(mod) ** r
            x = x * tinv_r
        out = x._unit_inverse()
        if m:
            out = out * PadicScalar.exact(self.ctx, 1).shift(-m)
        if r:
            out = out * tinv_r
        return out

    def __truediv__(self, other):
        b = self._coerce(other) if isinstance(other, ExtScalar) else None
        if b is None:
            if isinstance(other, (int, Fraction, PadicScalar)):
                s = other if isinstance(other, PadicScalar) \
                    else PadicScalar.exact(self.ctx, other)
                if s.is_zero:
                    raise DivisionByZero("divisor is zero at working precision")
                return self * s.inverse()
            return NotImplemented
        return self * b.inverse()

    def __rtruediv__(self, other):
        a = self._coerce(other)
        if a is None:
            return NotImplemented
        return a * self.inverse()

    # -- precision management ----------------------------------------------

    def cap_precision(self, tau) -> "ExtScalar":
        """Forget everything beyond valuation tau (a Fraction).

        Raises PrecisionExhausted when the cap leaves some coefficient with
        no certified digit at all: the element would carry a false claim.
        An infinite tau forgets nothing.
        """
        if tau == INFINITE:
            return self
        e, step = self._scale()
        t = Fraction(tau)
        out = []
        for i, c in enumerate(self.coeffs):
            # ceil(tau - i step / e)
            cap = -((i * step * t.denominator - t.numerator * e)
                    // (t.denominator * e))
            if cap < 1:
                raise PrecisionExhausted(
                    f"cap at valuation {tau} leaves coefficient {i} uncertified")
            out.append(c.reduce_abs_precision(cap))
        return ExtScalar(self.modulus, out)

    def same_at_working_precision(self, other) -> bool:
        b = self._coerce(other)
        return (self - b).is_zero

    def __eq__(self, other):
        if isinstance(other, ExtScalar):
            return self.modulus.same_as(other.modulus) and all(
                a.identical(b) for a, b in zip(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction, PadicScalar)):
            return self.same_at_working_precision(other)
        return NotImplemented

    # unhashable for the reason PadicScalar is
    __hash__ = None

    def __repr__(self):
        parts = [f"({c!r})*t^{i}" for i, c in enumerate(self.coeffs)
                 if not c.is_zero]
        return " + ".join(parts) if parts else "0"


def _reduce(modulus: ExtensionModulus, work: list) -> list:
    """Reduce a list of kernel triples modulo the modulus, in place, and
    wrap the d remaining coefficients as PadicScalars."""
    ctx = modulus.ctx
    p, N = ctx.p, ctx.abs_precision
    d = modulus.degree
    neg_low = modulus._neg_low
    while len(work) > d:
        top = work.pop()
        if top[2] is None:
            continue
        shift = len(work) - d
        for i in range(d):
            k = shift + i
            work[k] = _mul_add(p, N, work[k], top, neg_low[i])
    work.extend([_EXACT_ZERO] * (d - len(work)))
    return [PadicScalar(ctx, v, u, rel) for v, u, rel in work]


def _t_inverse(modulus: ExtensionModulus) -> ExtScalar:
    """t^(-1) from t * (t^(e-1) + c_(e-1) t^(e-2) + ... + c_1) = -c_0."""
    ctx = modulus.ctx
    d = modulus.degree
    body = [modulus.coeffs[i] for i in range(1, d)] + \
           [PadicScalar.exact(ctx, 1)]
    c0 = modulus.coeffs[0]
    num = ExtScalar.from_poly(modulus, body)
    return num * (-c0.inverse())


def ext_construct(modulus_coeffs, coeffs, ctx: PrecisionContext,
                  tag: str) -> ExtScalar:
    """Build an extension element; the caller asserts the modulus tag."""
    modulus = ExtensionModulus(ctx, modulus_coeffs, tag)
    return ExtScalar.from_poly(modulus, coeffs)


class PointTuple:
    """A d-tuple of extension elements sharing one modulus."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("empty point")
        for c in coords[1:]:
            coords[0].modulus.require_same(c.modulus)
        self.coords = coords

    @property
    def modulus(self):
        return self.coords[0].modulus

    @property
    def ctx(self):
        return self.coords[0].ctx

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def valuation(self):
        """min over coordinate valuations; INFINITE when all exactly zero."""
        vals = []
        for c in self.coords:
            v = c.valuation()
            if v is not INFINITE:
                vals.append(v)
        return min(vals) if vals else INFINITE

    def valuation_lower_bound(self):
        return min(c.valuation_lower_bound() for c in self.coords)

    def same_at_working_precision(self, other: "PointTuple") -> bool:
        if len(self) != len(other):
            return False
        return all(a.same_at_working_precision(b)
                   for a, b in zip(self.coords, other.coords))

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"
