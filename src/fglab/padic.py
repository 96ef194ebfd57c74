"""Exact p-adic base-field and extension-field arithmetic.

A scalar is stored as valuation + unit digits together with its certified
absolute precision, so every result advertises exactly how much of it is
trustworthy.  Division by p consumes absolute precision and operations fail
loudly (PrecisionExhausted) instead of degrading silently; the distinction
between an exact zero and "zero as far as we can see" is kept explicit
because finite-precision arguments can only ever certify the latter.

Extensions are user-supplied monic moduli over Z_p tagged ``eisenstein``
(totally ramified, v(t) = 1/e) or ``unramified`` (residue degree f); no
factorization or automatic extension discovery happens here.

Both scalar types compute their precision once per operation (the "flat"
precision of Caruso, "Computations with p-adic numbers", arXiv:1701.06794).
An ``ExtScalar`` is plain integers: one p-shift, d coefficients and one
absolute precision in powers of the uniformizer.
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


def _split(q: Fraction, p: int, n: int):
    """(v, u) for a nonzero rational q = p^v * unit, u = unit mod p^n."""
    num, den = q.numerator, q.denominator
    a, b = _vp(num, p), _vp(den, p)
    mod = p ** n
    return a - b, num // p ** a * pow(den // p ** b, -1, mod) % mod


# the largest prime modulus a context accepts: trial division decides
# primality below it in milliseconds, where a prime near 10^30 would take
# longer than any desk computation
_P_LIMIT = 2 ** 32

# the largest N and D a context accepts: a stored entry p^v with v up to
# N * D, the bound a document's header sets, stays below 2^22 bits
# (under a second to build at p near 2^32) instead of growing with
# whatever header a document states
_N_LIMIT = 256
_D_LIMIT = 512


@dataclass(frozen=True)
class PrecisionContext:
    """Ambient parameters: prime p, certified-digit cap N, total-degree cap D."""

    p: int
    abs_precision: int
    degree_cap: int

    def __post_init__(self):
        if not (self.p < _P_LIMIT and _is_prime(self.p)):
            raise BadArgument(f"p = {self.p} is not a prime below 2^32")
        if not 1 <= self.abs_precision <= _N_LIMIT:
            raise BadArgument(f"abs_precision must be in 1..{_N_LIMIT}")
        if not 2 <= self.degree_cap <= _D_LIMIT:
            raise BadArgument(f"degree_cap must be in 2..{_D_LIMIT}")

    def require_same(self, other: "PrecisionContext"):
        if self is not other and self != other:
            raise MixedContext(f"contexts differ: {self} vs {other}")


class PadicScalar:
    """An element of Q_p known to a certified absolute precision.

    A scalar is p^v * unit known modulo p^k, stored as ``(v, unit, prec)``
    with ``prec`` = k, the absolute precision that series and extension
    elements carry too.  A zero at precision k has ``v is None`` and keeps
    its k; the exact zero is the zero at ``INFINITE``.  A nonzero scalar is
    known to at most N digits past its valuation, ``prec <= v + N``, so a
    division by p^j lowers the certified absolute precision by exactly j.
    """

    __slots__ = ("ctx", "v", "unit", "prec")

    def __init__(self, ctx, v, unit, prec):
        self.ctx = ctx
        self.v = v
        self.unit = unit
        self.prec = prec

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
        v, unit = _split(q, ctx.p, ctx.abs_precision)
        return cls._build(ctx, v, unit, v + ctx.abs_precision)

    @classmethod
    def zero(cls, ctx: PrecisionContext) -> "PadicScalar":
        return cls(ctx, None, 0, INFINITE)

    @classmethod
    def zero_at(cls, ctx: PrecisionContext, prec) -> "PadicScalar":
        """Zero modulo p^prec with nothing certified beyond; the exact zero
        at prec = INFINITE."""
        if prec < 1:
            raise PrecisionExhausted(
                f"zero certified only modulo p^{prec}: no digits remain")
        return cls(ctx, None, 0, prec)

    @classmethod
    def _build(cls, ctx, v, unit, prec) -> "PadicScalar":
        """Normalized nonzero scalar, prec capped at v + N; raises if no
        certified digit remains."""
        if prec > v + ctx.abs_precision:
            prec = v + ctx.abs_precision
        if prec <= v:
            raise PrecisionExhausted(
                f"result at valuation {v} retains {prec - v} certified digits")
        if prec < 1:
            raise PrecisionExhausted(
                f"known precision p^{prec} dropped below p^1")
        return cls(ctx, v, unit % ctx.p ** (prec - v), prec)

    # -- predicates and accessors -----------------------------------------

    @property
    def is_zero(self) -> bool:
        """Zero at working precision (exactly zero or indistinguishable)."""
        return self.v is None

    @property
    def is_exact_zero(self) -> bool:
        return self.prec == INFINITE

    def valuation(self):
        """Exact additive valuation; INFINITE for exact zero.

        Raises ImpreciseValuation for a zero-at-precision element, whose
        valuation is only known to exceed the certified precision.
        """
        if self.v is None and self.prec != INFINITE:
            raise ImpreciseValuation(
                f"zero modulo p^{self.prec} but not certified zero")
        return self.valuation_lower_bound()

    def valuation_lower_bound(self):
        """Certified lower bound on the valuation; always available."""
        return self.prec if self.v is None else self.v

    def digits(self) -> list:
        """Little-endian base-p digits of the unit part (prec - v of them)."""
        if self.v is None:
            return []
        p, u, out = self.ctx.p, self.unit, []
        for _ in range(self.prec - self.v):
            u, r = divmod(u, p)
            out.append(r)
        return out

    def residue(self, k: int = 1) -> int:
        """Value modulo p^k as an integer in [0, p^k); needs v >= 0."""
        if self.v is not None and self.v < 0:
            raise ValueError("negative valuation has no integer residue")
        if self.prec < k:
            raise PrecisionExhausted(
                f"known modulo p^{self.prec}, requested p^{k}")
        if self.v is None:
            return 0
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

    def _add(self, b: "PadicScalar", sign: int) -> "PadicScalar":
        """self + sign * b, known to the weaker of the two precisions, each
        operand read at its own, so the sum is symmetric."""
        ctx = self.ctx
        p = ctx.p
        prec = self.prec if self.prec < b.prec else b.prec
        # a zero, or a digit at or beyond prec, adds nothing modulo p^prec
        va = prec if self.v is None else self.v
        vb = prec if b.v is None else b.v
        v = va if va < vb else vb
        if v >= prec:
            return PadicScalar.zero_at(ctx, prec)
        r = 0
        if va < prec:
            r = self.unit * p ** (va - v)
        if vb < prec:
            r += sign * b.unit * p ** (vb - v)
        r %= p ** (prec - v)
        if r == 0:
            return PadicScalar.zero_at(ctx, prec)
        w = _vp(r, p)
        return PadicScalar._build(ctx, v + w, r // p ** w, prec)

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self._add(b, 1)

    __radd__ = __add__

    def __neg__(self):
        if self.v is None:
            return self
        return PadicScalar(self.ctx, self.v,
                           -self.unit % self.ctx.p ** (self.prec - self.v),
                           self.prec)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self._add(b, -1)

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return (-self)._add(b, 1)

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        # a product is known to min(k_a + v(b), k_b + v(a)), v read as a
        # lower bound, which is k_a + k_b for a zero factor
        if self.v is None or b.v is None:
            return PadicScalar.zero_at(self.ctx, self.valuation_lower_bound()
                                       + b.valuation_lower_bound())
        pa, pb = self.prec + b.v, b.prec + self.v
        return PadicScalar._build(self.ctx, self.v + b.v, self.unit * b.unit,
                                  pa if pa < pb else pb)

    __rmul__ = __mul__

    def inverse(self) -> "PadicScalar":
        if self.v is None:
            raise DivisionByZero("inverse of zero at working precision")
        mod = self.ctx.p ** (self.prec - self.v)
        return PadicScalar._build(self.ctx, -self.v, pow(self.unit, -1, mod),
                                  self.prec - 2 * self.v)

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if b.v is None:
            raise DivisionByZero("divisor is zero at working precision")
        if self.v is None:
            return PadicScalar.zero_at(self.ctx, self.prec - b.v)
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
        """Multiply by p^k exactly (relabels digits; the unit is unchanged)."""
        if self.v is None:
            return PadicScalar.zero_at(self.ctx, self.prec + k)
        return PadicScalar._build(self.ctx, self.v + k, self.unit,
                                  self.prec + k)

    def cap_precision(self, tau) -> "PadicScalar":
        """Forget everything beyond valuation tau (no-op if weaker).

        A fractional tau rounds up, since no digit of Q_p lies strictly
        between two integer valuations; an infinite tau forgets nothing.
        """
        if tau == INFINITE:
            return self
        prec = math.ceil(tau)
        if self.prec <= prec:
            return self
        if self.v is None or self.v >= prec:
            return PadicScalar.zero_at(self.ctx, prec)
        return PadicScalar._build(self.ctx, self.v, self.unit, prec)

    # -- comparisons -------------------------------------------------------

    def same_at_working_precision(self, other) -> bool:
        """True when the difference is zero at its certified precision."""
        b = self._coerce(other)
        return (self - b).is_zero

    def identical(self, other: "PadicScalar") -> bool:
        """Bitwise identity of the stored representation."""
        return (self.ctx == other.ctx and self.v == other.v
                and self.unit == other.unit and self.prec == other.prec)

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
            return f"O({p}^{self.prec})"
        return f"{self.unit}*{p}^{self.v} + O({p}^{self.prec})"


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


def _poly_mod_p(a, b, p):
    """Remainder of a modulo b over F_p, trailing zeros stripped."""
    a = [c % p for c in a]
    b = [c % p for c in b]
    while b and b[-1] == 0:
        b.pop()
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db or not any(a):
            return a
        c = a[-1] * inv % p
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p


def _poly_gcd_mod_p(a, b, p):
    while any(b):
        a, b = b, _poly_mod_p(a, b, p)
    return a


def _poly_powmod_mod_p(base, e, m, p):
    result = [1]
    base = _poly_mod_p(base, m, p)
    while e:
        if e & 1:
            result = _poly_mod_p(_poly_mul_mod_p(result, base, p), m, p)
        base = _poly_mod_p(_poly_mul_mod_p(base, base, p), m, p)
        e >>= 1
    return result


def _irreducible_mod_p(coeffs, p) -> bool:
    """Whether a monic integer polynomial of degree n >= 1 is irreducible
    modulo p: it has no factor of degree k <= n/2, so it is prime to
    x^(p^k) - x, the product of the monic irreducibles of degree dividing k."""
    m = [c % p for c in coeffs]
    t = [0, 1]
    for _ in range((len(m) - 1) // 2):
        t = _poly_powmod_mod_p(t, p, m, p)
        diff = t + [0] * (2 - len(t))
        diff[1] -= 1
        if len(_poly_gcd_mod_p(diff, m, p)) > 1:
            return False
    return True


class ExtensionModulus:
    """A validated monic modulus e(t) over Z_p defining O = Z_p[t]/(e(t))."""

    __slots__ = ("ctx", "coeffs", "tag", "degree", "ram_index", "res_degree",
                 "_step", "_low")

    def __init__(self, ctx: PrecisionContext, coeffs, tag: str):
        self.ctx = ctx
        scalars = tuple(PadicScalar.exact(ctx, c) for c in coeffs)
        if len(scalars) < 2:
            raise BadModulus("modulus must have degree >= 1")
        lead = scalars[-1]
        if lead.is_zero or not lead.same_at_working_precision(1):
            raise BadModulus("modulus must be monic")
        if any(c.prec < c.valuation_lower_bound() + ctx.abs_precision
               for c in scalars):
            raise BadModulus("modulus coefficients must be known to N digits")
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
        # coefficient i of an element weighs i * step powers of pi extra
        self._step = 1 if tag == "eisenstein" else 0
        # t^d folds to -(c_0 + ... + c_(d-1) t^(d-1)) by the lifts of the
        # c_i, each O(p^(v + N)) off with v >= 1 (eisenstein) or v >= 0
        # (unramified): folding terms of valuation >= W errs by
        # O(pi^(W + e N)), which the relative cap already forgets
        self._low = tuple((i, int(c.lift())) for i, c in enumerate(low)
                          if not c.is_zero)

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


def _fold(modulus: ExtensionModulus, z: list, q: int) -> list:
    """The d coefficients of the integer polynomial z modulo e(t), each
    term of degree >= d first reduced modulo q; z is consumed."""
    d = modulus.degree
    low = modulus._low
    for k in range(len(z) - 1 - d, -1, -1):
        top = z.pop() % q
        if top:
            for i, c in low:
                z[k + i] -= top * c
    z.extend([0] * (d - len(z)))
    return z


class ExtScalar:
    """p^shift * sum(ints[i] t^i) in Z_p[t]/(e(t)), known modulo pi^prec.

    ``prec`` is one absolute precision in powers of the uniformizer pi,
    that is in units of 1/e of valuation; it is ``INFINITE`` only for the
    exact zero.  The ints are held modulo p^(ceil(prec / e) - shift), and
    ``shift`` is their least valuation.  ``val`` is the valuation in powers
    of pi, None when the element is zero at its precision.  A nonzero
    element is known to at most e N powers of pi beyond its valuation, so
    a unit is known modulo p^N.
    """

    __slots__ = ("modulus", "shift", "ints", "prec", "val")

    @classmethod
    def _normal(cls, modulus, shift, ints, prec) -> "ExtScalar":
        """p^shift * sum(ints[i] t^i) + O(pi^prec) with its valuation found,
        the relative cap applied, the shift moved to the least valuation
        of the ints and the ints reduced.  Raises PrecisionExhausted when
        not even pi^1 is certified."""
        out = object.__new__(cls)
        out.modulus = modulus
        p, e, step = modulus.ctx.p, modulus.ram_index, modulus._step
        # a digit at or beyond pi^prec gives a term of valuation >= prec,
        # so the ints need no reduction to find the valuation below prec
        best = None
        low = e * shift
        for i, a in enumerate(ints):
            if best is not None and low + i * step >= best:
                break
            if a:
                w = low + i * step if a % p else \
                    low + e * _vp(a, p) + i * step
                if best is None or w < best:
                    best = w
        if best is not None and best < prec:
            cap = best + e * modulus.ctx.abs_precision
            if cap < prec:
                prec = cap
        else:
            best = None
        if prec < 1:
            raise PrecisionExhausted(
                f"known only modulo pi^{prec}: no certified digit remains")
        if best is None:
            out.shift, out.ints, out.prec, out.val = \
                0, (0,) * modulus.degree, prec, None
            return out
        k = best // e - shift
        q = p ** (-(-prec // e) - shift - k)
        if k:
            pk = p ** k
            ints = tuple([a // pk % q for a in ints])
        else:
            ints = tuple([a % q for a in ints])
        out.shift, out.ints, out.prec, out.val = shift + k, ints, prec, best
        return out

    @classmethod
    def from_poly(cls, modulus: ExtensionModulus, coeffs) -> "ExtScalar":
        """Reduce an arbitrary polynomial in t modulo the modulus."""
        ctx = modulus.ctx
        p, e, step = ctx.p, modulus.ram_index, modulus._step
        scalars = [PadicScalar.exact(ctx, c) for c in coeffs]
        prec = min((e * c.prec + i * step for i, c in enumerate(scalars)),
                   default=INFINITE)
        # the exact zero returns here: INFINITE // e below would be nan
        if prec == INFINITE:
            return cls.zero(modulus)
        shift = min((c.v for c in scalars if c.v is not None), default=0)
        ints = [0 if c.v is None else c.unit * p ** (c.v - shift)
                for c in scalars]
        return cls._normal(modulus, shift, _fold(
            modulus, ints, p ** max(1, -(-prec // e) - shift)), prec)

    @classmethod
    def zero(cls, modulus) -> "ExtScalar":
        return cls._normal(modulus, 0, [0] * modulus.degree, INFINITE)

    @classmethod
    def one(cls, modulus) -> "ExtScalar":
        return cls.from_poly(modulus, [1])

    @classmethod
    def uniformizer(cls, modulus) -> "ExtScalar":
        """t for an eisenstein modulus, p for an unramified one."""
        if modulus.tag == "eisenstein":
            return cls.from_poly(modulus, [0, 1])
        return cls.from_poly(modulus, [modulus.ctx.p])

    @property
    def ctx(self):
        return self.modulus.ctx

    @property
    def coeffs(self) -> tuple:
        """The coefficients as PadicScalars, built on each call: pi^prec
        certifies coefficient i modulo p^k, k = ceil((prec - i step) / e),
        step 1 for an eisenstein modulus and 0 for an unramified one.  At
        k = 0 (i >= prec, so prec < e) a coefficient is known only as an
        integer: it reads as zero modulo p^0, or by its digits below p^0."""
        ctx = self.modulus.ctx
        # the general branch would read INFINITE // e, which is nan
        if self.prec == INFINITE:
            return tuple(PadicScalar.zero(ctx) for _ in self.ints)
        p, e, step = ctx.p, self.modulus.ram_index, self.modulus._step
        out = []
        for i, a in enumerate(self.ints):
            k = -((i * step - self.prec) // e)
            v = None if a == 0 else self.shift + _vp(a, p)
            if v is None or v >= k:
                out.append(PadicScalar(ctx, None, 0, k))
            else:
                unit = a // p ** (v - self.shift) % p ** (k - v)
                out.append(PadicScalar(ctx, v, unit, k))
        return tuple(out)

    # -- state -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.val is None

    @property
    def is_exact_zero(self) -> bool:
        return self.prec == INFINITE

    def valuation(self):
        """Exact valuation as a Fraction (denominator | e), or INFINITE.

        Terms a_i t^i of an eisenstein modulus have pairwise distinct
        fractional valuations, and the residue field argument covers an
        unramified one, so the minimum over the terms is exact.
        """
        if self.val is None and self.prec != INFINITE:
            raise ImpreciseValuation(
                f"zero modulo precision floor {self.precision_floor()}")
        return self.valuation_lower_bound()

    def valuation_lower_bound(self):
        if self.val is None:
            return self.precision_floor()
        return Fraction(self.val, self.modulus.ram_index)

    def precision_floor(self):
        """Certified valuation floor of the representation's uncertainty."""
        if self.prec == INFINITE:
            return INFINITE
        return Fraction(self.prec, self.modulus.ram_index)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExtScalar):
            self.modulus.require_same(other.modulus)
            return other
        if isinstance(other, (int, Fraction, PadicScalar)):
            return ExtScalar.from_poly(self.modulus, [other])
        return None

    def _add(self, b: "ExtScalar", sign: int) -> "ExtScalar":
        """self + sign * b, known to the weaker of the two precisions."""
        p = self.modulus.ctx.p
        s, t = self.shift, b.shift
        if s <= t:
            f = sign * p ** (t - s)
            ints = [x + f * y for x, y in zip(self.ints, b.ints)]
        else:
            f = p ** (s - t)
            ints = [f * x + sign * y for x, y in zip(self.ints, b.ints)]
            s = t
        return ExtScalar._normal(self.modulus, s, ints,
                                 min(self.prec, b.prec))

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self._add(b, 1)

    __radd__ = __add__

    def __neg__(self):
        return ExtScalar._normal(self.modulus, self.shift,
                                 [-a for a in self.ints], self.prec)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self._add(b, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        mod = self.modulus
        # x y - x0 y0 = x0 dy + dx y0 + dx dy has valuation at least
        # min(P_x + v(y), P_y + v(x)), with v read as a lower bound
        px = self.prec + (b.prec if b.val is None else b.val)
        py = b.prec + (self.prec if self.val is None else self.val)
        prec = px if px < py else py
        d = mod.degree
        if self.val is None or b.val is None:
            return ExtScalar._normal(mod, 0, [0] * d, prec)
        shift = self.shift + b.shift
        e = mod.ram_index
        z = [0] * (2 * d - 1)
        ys = b.ints
        for i, a in enumerate(self.ints):
            if a:
                for j, c in enumerate(ys, i):
                    z[j] += a * c
        q = mod.ctx.p ** max(1, -(-prec // e) - shift)
        return ExtScalar._normal(mod, shift, _fold(mod, z, q), prec)

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
        """Newton inverse of a unit (valuation 0), started at its inverse
        in the residue field F_(p^f): 1/a_0 mod p when f = 1, else
        x^(p^f - 2)."""
        mod = self.modulus
        p = self.ctx.p
        if self.val != 0:
            raise DivisionByZero("not a unit at working precision")
        if mod.res_degree == 1:
            y = ExtScalar.from_poly(mod, [pow(self.ints[0], -1, p)])
        else:
            y = self ** (p ** mod.res_degree - 2)
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
        bound = err.prec if err.val is None else err.val
        return ExtScalar._normal(mod, y.shift, y.ints, min(bound, y.prec))

    def inverse(self) -> "ExtScalar":
        if self.is_zero:
            raise DivisionByZero("inverse of zero at working precision")
        mod = self.modulus
        if not any(self.ints[1:]):
            # p^s u in the base field: its inverse p^-s u^-1 stays there,
            # at the same relative precision
            m = -(-self.prec // mod.ram_index) - self.shift
            return ExtScalar._normal(
                mod, -self.shift, [pow(self.ints[0], -1, mod.ctx.p ** m)]
                + [0] * (mod.degree - 1), self.prec - 2 * self.val)
        m, r = divmod(self.val, mod.ram_index)
        x = self
        if m:
            x = x * PadicScalar.exact(self.ctx, 1).shift(-m)
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
        b = self._coerce(other)
        if b is None:
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

        Raises PrecisionExhausted when the cap leaves not even pi^1
        certified: the element would carry a false claim.  An infinite tau
        forgets nothing.
        """
        if tau == INFINITE:
            return self
        t = Fraction(tau)
        prec = -(-t.numerator * self.modulus.ram_index // t.denominator)
        if prec < 1:
            raise PrecisionExhausted(
                f"cap at valuation {tau} leaves no certified digit")
        if self.prec <= prec:
            return self
        return ExtScalar._normal(self.modulus, self.shift, self.ints, prec)

    def same_at_working_precision(self, other) -> bool:
        b = self._coerce(other)
        return (self - b).is_zero

    def __eq__(self, other):
        if isinstance(other, ExtScalar):
            return self.modulus.same_as(other.modulus) and \
                (self.prec, self.shift, self.ints) == \
                (other.prec, other.shift, other.ints)
        if isinstance(other, (int, Fraction, PadicScalar)):
            return self.same_at_working_precision(other)
        return NotImplemented

    # unhashable for the reason PadicScalar is
    __hash__ = None

    def __repr__(self):
        terms = " + ".join(f"{a}*t^{i}" for i, a in enumerate(self.ints) if a)
        head = f"{self.ctx.p}^{self.shift}*({terms}) + " if terms else ""
        return f"{head}O(pi^{self.prec})"


def _t_inverse(modulus: ExtensionModulus) -> ExtScalar:
    """t^(-1) = -(c_1 + c_2 t + ... + t^(d-1)) / c_0, as e(t) = 0."""
    body = ExtScalar.from_poly(modulus, modulus.coeffs[1:])
    return body * (-modulus.coeffs[0].inverse())


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
        return min(c.valuation() for c in self.coords)

    def valuation_lower_bound(self):
        return min(c.valuation_lower_bound() for c in self.coords)

    def same_at_working_precision(self, other: "PointTuple") -> bool:
        if len(self) != len(other):
            return False
        return all(a.same_at_working_precision(b)
                   for a, b in zip(self.coords, other.coords))

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"
