"""Truncated multivariate power series over p-adic scalars.

A series is a sparse map from exponent vectors to coefficients, truncated
beyond a global total degree cap D.  Internally the exponent vector and its
total degree are packed into a single integer key (degree in the top bits,
so ascending key order is the canonical degree-then-lex order), and the
coefficient is held as a p-shifted integer:

    stored value c  represents  c * p^(-shift).

Certified precision is tracked per series as a degree-weighted profile

    prof(d) = max(flat, p0 + floor(slope * d)),   slope <= 0:

the coefficient of any total-degree-d monomial is certified to absolute
precision prof(d).  The sloped line absorbs denominators that ride on
high-degree terms (a Lubin-Tate logarithm has 1/p^k only at degree p^k),
while the flat floor keeps follow-up compositions from compounding the
slope.  Every profile update below is conservative: a bound is never
reported higher than what the contributing scalars justify.  Scalar-level
arithmetic keeps sharper per-element tracking; this layer trades that for
a multiplication loop on plain machine integers.

Slopes are exact rationals, held as reduced integer pairs n/d with d > 0:
floor(slope * x) is n * x // d, and two slopes compare by cross
multiplication.  The same holds for each series' summary (smallest
valuation, rho, smallest degree), which one pass over the coefficients
computes and caches; the profile bookkeeping never builds a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    BadArgument,
    DivergentPoint,
    MixedContext,
    NonzeroConstantTerm,
    NotInvertible,
    PrecisionExhausted,
)
from .padic import (
    INFINITE,
    ExtScalar,
    PadicScalar,
    PointTuple,
    _split,
    _vp,
)

class Profile:
    """Concave two-line certified-precision profile over total degree.

    The slope is the rational sn/sd in lowest terms with sd > 0.
    """

    __slots__ = ("p0", "sn", "sd", "flat")

    def __init__(self, p0: int, sn: int, sd: int, flat: int):
        self.p0 = p0
        self.sn = sn
        self.sd = sd
        self.flat = flat

    @classmethod
    def const(cls, value: int) -> "Profile":
        return cls(value, 0, 1, value)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.sn, self.sd)

    def at(self, d: int) -> int:
        return max(self.flat, self.p0 + self.sn * d // self.sd)

    def min_with(self, other: "Profile") -> "Profile":
        sn, sd = _slope_min(self.sn, self.sd, other.sn, other.sd)
        return Profile(min(self.p0, other.p0), sn, sd,
                       min(self.flat, other.flat))

    def __repr__(self):
        return f"Profile(p0={self.p0}, slope={self.slope}, flat={self.flat})"


def _certifying(profile: Profile) -> Profile:
    """``profile``, or PrecisionExhausted when it certifies no digit at any
    degree: ``Profile.at`` is nonincreasing, so degree 0 decides."""
    if profile.at(0) < 1:
        raise PrecisionExhausted(
            f"certified only to p^{profile.at(0)} at every degree")
    return profile


def _slope_min(an: int, ad: int, bn: int, bd: int):
    """The smaller of the slopes an/ad and bn/bd (denominators positive)."""
    return (bn, bd) if bn * ad < an * bd else (an, ad)


def _reduced(n: int, d: int):
    g = math.gcd(n, d)
    return n // g, d // g


class MultiSeries:
    """Sparse truncated power series in ``num_vars`` variables."""

    __slots__ = ("ctx", "num_vars", "shift", "profile", "coeffs", "_summ")

    def __init__(self, ctx, num_vars, shift, profile, coeffs):
        self.ctx = ctx
        self.num_vars = num_vars
        self.shift = shift
        self.profile = profile    # Profile, or None for an exact series
        self.coeffs = coeffs      # dict[packed key, scaled int]
        self._summ = None         # cached _summary(); reset on any rewrite

    # -- packing helpers -----------------------------------------------------

    @property
    def kbits(self) -> int:
        return self.ctx.degree_cap.bit_length()

    @property
    def degshift(self) -> int:
        return self.kbits * self.num_vars

    def pack(self, exps) -> int:
        k = self.kbits
        key = sum(exps)
        for e in exps:
            key = (key << k) | e
        return key

    def unpack(self, key) -> tuple:
        k, m = self.kbits, self.num_vars
        mask = (1 << k) - 1
        out = [0] * m
        for i in range(m - 1, -1, -1):
            out[i] = key & mask
            key >>= k
        return tuple(out)

    def prof(self, d: int):
        """Certified absolute precision for degree-d coefficients."""
        if self.profile is None:
            return INFINITE
        return self.profile.at(d)

    @property
    def floor(self):
        """Weakest certified precision over the whole degree range."""
        return self.prof(self.ctx.degree_cap)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, ctx, num_vars) -> "MultiSeries":
        return cls(ctx, num_vars, 0, None, {})

    @classmethod
    def from_terms(cls, ctx, num_vars, terms) -> "MultiSeries":
        """Series from {exponent tuple: coefficient}.

        Coefficients may be ints, Fractions, or PadicScalars; the certified
        profile is the steepest line needed so that every entry's absolute
        precision is honored.
        """
        D = ctx.degree_cap
        entries = []
        anchor = None     # precision available at degree 0
        vmin = 0
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError("exponent arity mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if sum(exps) > D:
                continue
            c = PadicScalar.exact(ctx, c)
            if c.is_exact_zero:
                continue
            if c.v is None:
                anchor = c.rel if anchor is None else min(anchor, c.rel)
                continue
            absprec = c.known_precision
            entries.append((exps, c, absprec))
            vmin = min(vmin, c.v)
            if sum(exps) == 0:
                anchor = absprec if anchor is None else min(anchor, absprec)
        if not entries:
            if anchor is None:
                return cls(ctx, num_vars, 0, None, {})
            return cls(ctx, num_vars, 0, Profile.const(anchor), {})
        N = ctx.abs_precision
        p0 = N if anchor is None else min(N, anchor)
        sn, sd = 0, 1
        flat = p0 if anchor is not None else None
        for exps, _, absprec in entries:
            d = sum(exps)
            if d:
                sn, sd = _slope_min(sn, sd, absprec - p0, d)
            flat = absprec if flat is None else min(flat, absprec)
        profile = Profile(p0, *_reduced(sn, sd), flat)
        shift = max(0, -vmin)
        out = cls(ctx, num_vars, shift, profile, {})
        p = ctx.p
        out.coeffs = {out.pack(exps): c.unit * p ** (c.v + shift)
                      for exps, c, _ in entries}
        return out._normalized()

    @classmethod
    def from_exact_terms(cls, ctx, num_vars, terms) -> "MultiSeries":
        """Exact series (profile None) from {exponent tuple: coefficient}.

        Coefficients are ints or Fractions in Z[1/p], stored as integers
        over one common power of p; any other denominator raises
        BadArgument.  Exact series stay exact under ``+``, ``-``, ``mul``
        and ``tuple_compose`` with exact inner series.  Terms past the
        degree cap are dropped.
        """
        p = ctx.p
        shift = 0
        entries = []
        for exps, c in terms.items():
            exps, q = tuple(exps), Fraction(c)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent {exps} for {num_vars} "
                                 "variables")
            k = _vp(q.denominator, p)
            if q.denominator != p ** k:
                raise BadArgument(f"coefficient {q} is not in Z[1/{p}]")
            if q and sum(exps) <= ctx.degree_cap:
                entries.append((exps, q))
                shift = max(shift, k)
        out = cls(ctx, num_vars, shift, None, {})
        out.coeffs = {out.pack(exps): q.numerator * p ** shift // q.denominator
                      for exps, q in entries}
        return out

    @classmethod
    def variable(cls, ctx, num_vars, index) -> "MultiSeries":
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls.from_terms(ctx, num_vars, {exps: 1})

    def _normalized(self) -> "MultiSeries":
        """Reduce per-degree, drop certified zeros, minimize the shift."""
        if not self.coeffs:
            return MultiSeries(self.ctx, self.num_vars, 0, self.profile, {})
        p = self.ctx.p
        ds = self.degshift
        if self.profile is not None:
            mods = {}
            out = {}
            for k, c in self.coeffs.items():
                d = k >> ds
                m = mods.get(d)
                if m is None:
                    pf = self.profile.at(d)
                    if pf < 1:
                        raise PrecisionExhausted(
                            f"degree-{d} coefficients certified only to p^{pf}")
                    m = p ** (pf + self.shift)
                    mods[d] = m
                c %= m
                if c:
                    out[k] = c
            self.coeffs = out
            self._summ = None
            if not out:
                return MultiSeries(self.ctx, self.num_vars, 0, self.profile,
                                   {})
        if self.shift > 0:
            # the summary's valuation pass also gives the smallest valuation
            # of the stored integers; its v = w - shift survives the rescale
            j = min(self.shift, self._summary()[0] + self.shift)
            if j > 0:
                pj = p ** j
                self.coeffs = {k: c // pj for k, c in self.coeffs.items()}
                self.shift -= j
        return self

    # -- inspection -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Zero at the certified profile (empty support)."""
        return not self.coeffs

    def _summary(self):
        """(vmin, vhat, rho numerator, rho denominator, mindeg), cached.

        One pass takes one valuation per coefficient.  vmin is the smallest
        coefficient valuation, vhat = min(0, valuation of the constant
        term), rho = min(0, v(coeff)/degree over positive-degree terms) in
        lowest terms, mindeg the smallest degree in the support; each is 0
        for the empty series (and vhat when there is no constant term).
        """
        summ = self._summ
        if summ is not None:
            return summ
        coeffs = self.coeffs
        if not coeffs:
            summ = self._summ = (0, 0, 0, 1, 0)
            return summ
        p = self.ctx.p
        ds = self.degshift
        shift = self.shift
        vmin = mindeg = None
        vhat, rn, rd = 0, 0, 1
        for key, c in coeffs.items():
            v = _vp(c, p) - shift
            d = key >> ds
            if vmin is None or v < vmin:
                vmin = v
            if mindeg is None or d < mindeg:
                mindeg = d
            if v < 0:
                if not d:
                    vhat = v
                elif v * rd < rn * d:
                    rn, rd = v, d
        summ = self._summ = (vmin, vhat, *_reduced(rn, rd), mindeg)
        return summ

    @property
    def vmin(self) -> int:
        """Smallest coefficient valuation (0 for empty series)."""
        return self._summary()[0]

    @property
    def rho(self) -> Fraction:
        """min over positive-degree terms of v(coeff)/degree, capped at 0."""
        _, _, rn, rd, _ = self._summary()
        return Fraction(rn, rd)

    @property
    def mindeg(self) -> int:
        """Smallest total degree in the support (0 for the empty series)."""
        return self._summary()[4]

    def support(self) -> list:
        """Exponent tuples in canonical (degree, lex) order."""
        return [self.unpack(k) for k in sorted(self.coeffs)]

    def coefficient(self, exps) -> PadicScalar:
        """Materialize one coefficient; absent means zero at the profile."""
        exps = tuple(exps)
        d = sum(exps)
        if d > self.ctx.degree_cap:
            raise ValueError("exponent beyond degree cap")
        key = self.pack(exps)
        c = self.coeffs.get(key)
        pf = self.prof(d)
        if c is None:
            if pf is INFINITE:
                return PadicScalar.zero(self.ctx)
            return PadicScalar.zero_at(self.ctx, pf)
        p = self.ctx.p
        w = _vp(c, p)
        v = w - self.shift
        rel = min(pf - v, self.ctx.abs_precision)
        return PadicScalar._build(self.ctx, v, c // p ** w, rel)

    def terms(self):
        """(exponent tuple, PadicScalar) pairs in canonical order."""
        return [(self.unpack(k), self.coefficient(self.unpack(k)))
                for k in sorted(self.coeffs)]

    def degree(self) -> int:
        ds = self.degshift
        return max((k >> ds for k in self.coeffs), default=0)

    def constant_term(self) -> PadicScalar:
        return self.coefficient((0,) * self.num_vars)

    # -- ring operations ---------------------------------------------------------

    def _require_compatible(self, other: "MultiSeries"):
        if self.ctx != other.ctx:
            raise MixedContext("series contexts differ")
        if self.num_vars != other.num_vars:
            raise MixedContext("variable counts differ")

    def _with_profile(self, extra: Profile) -> "MultiSeries":
        """Weaken to the min with ``extra``: add a zero certified to it."""
        return _sum((self, MultiSeries(self.ctx, self.num_vars, 0, extra, {})))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar)):
            other = MultiSeries.from_terms(
                self.ctx, self.num_vars, {(0,) * self.num_vars: other})
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._require_compatible(other)
        return _sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        if not self.coeffs:
            return self
        return MultiSeries(self.ctx, self.num_vars, self.shift, self.profile,
                           {k: -c for k, c in self.coeffs.items()})._normalized()

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar)):
            other = MultiSeries.from_terms(
                self.ctx, self.num_vars, {(0,) * self.num_vars: other})
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar)):
            return self.scale(other)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "MultiSeries", cap=None) -> "MultiSeries":
        """Product truncated at total degree ``cap`` (default: the ctx cap).

        With cap below the context cap, the certified claims of the result
        are meaningful through degree cap only; internal degree-by-degree
        recursions use this and never read beyond their cap.
        """
        self._require_compatible(other)
        D = self.ctx.degree_cap if cap is None else min(cap,
                                                        self.ctx.degree_cap)
        return _sum_of_products(((self, other),), D)

    def scale(self, s) -> "MultiSeries":
        """Multiply by a scalar (int, Fraction, or PadicScalar).

        An exact series times an int or a Fraction in Z[1/p] stays exact,
        as under ``+``, ``-`` and ``mul``; any other product is certified.
        """
        if self.profile is None and not self.coeffs:
            return self
        N = self.ctx.abs_precision
        D = self.ctx.degree_cap
        p = self.ctx.p
        vmin, vhat, rn, rd, _ = self._summary()
        if isinstance(s, PadicScalar):
            self.ctx.require_same(s.ctx)
            if s.is_exact_zero:
                return MultiSeries.zero(self.ctx, self.num_vars)
            if s.v is None:
                lbD = min(vhat, rn * D // rd)
                prof = _certifying(Profile(s.rel + vhat, rn, rd, s.rel + lbD))
                return MultiSeries(self.ctx, self.num_vars, 0, prof, {})
            vq, u, s_abs = s.v, s.unit, s.known_precision
        else:
            q = Fraction(s)
            if q == 0:
                return MultiSeries.zero(self.ctx, self.num_vars)
            k = _vp(q.denominator, p)
            if self.profile is None and q.denominator == p ** k:
                return MultiSeries(self.ctx, self.num_vars, self.shift + k,
                                   None, {key: c * q.numerator for key, c
                                          in self.coeffs.items()}
                                   )._normalized()
            # a rational is its unit to N digits at any valuation, even
            # one that leaves PadicScalar.exact no digit at p^1 or above
            vq, u = _split(q, p, N)
            s_abs = vq + N
        # Three channels, each the max of its lower-bound lines, combined by
        # min at degree 0 and at D: (1) the series' own profile, shifted by
        # v(s); (2) s's uncertainty on the data and (3) the relative-digit
        # cap N, both the lines (vhat, rho) and (vmin, 0), offset by s_abs
        # and by v(s) + N.
        # An exact series (profile None, as a parsed ``profile exact``
        # document gives) has no channel (1), as in ``add``.
        pr = self.profile
        offset = min(s_abs, vq + N)
        p0 = offset + max(vhat, vmin)
        sn, sd = rn, rd
        flat = offset + max(vhat + rn * D // rd, vmin)
        if pr is not None:
            p0 = min(pr.at(0) + vq, p0)
            sn, sd = _slope_min(pr.sn, pr.sd, rn, rd)
            flat = min(pr.at(D) + vq, flat)
        profile = _certifying(Profile(p0, sn, sd, flat))
        target_shift = max(0, -(vmin + vq))
        # headroom covers every per-degree modulus (flat may exceed p0)
        mod = p ** max(1, profile.p0 + target_shift,
                       profile.flat + target_shift)
        a = vq + target_shift - self.shift
        out = {}
        if a >= 0:
            pa = p ** a
            for k, c in self.coeffs.items():
                r = c * u * pa % mod
                if r:
                    out[k] = r
        else:
            pa = p ** (-a)
            for k, c in self.coeffs.items():
                r = (c // pa) * u % mod
                if r:
                    out[k] = r
        return MultiSeries(self.ctx, self.num_vars, target_shift, profile,
                           out)._normalized()

    def truncate(self, cap: int) -> "MultiSeries":
        """Drop terms of total degree above cap."""
        ds = self.degshift
        out = {k: c for k, c in self.coeffs.items() if (k >> ds) <= cap}
        return MultiSeries(self.ctx, self.num_vars, self.shift, self.profile,
                           out)._normalized()

    def homogeneous_part(self, d: int) -> "MultiSeries":
        ds = self.degshift
        out = {k: c for k, c in self.coeffs.items() if (k >> ds) == d}
        return MultiSeries(self.ctx, self.num_vars, self.shift, self.profile,
                           out)._normalized()

    def derivative(self, var: int) -> "MultiSeries":
        """Partial derivative with respect to variable ``var``.

        A degree-d output coefficient comes from degree d+1, so the line is
        re-anchored one step down while the flat floor carries over.
        """
        k = self.kbits
        m = self.num_vars
        pos = k * (m - 1 - var)
        mask = (1 << k) - 1
        dec = (1 << pos) + (1 << (k * m))
        out = {}
        for key, c in self.coeffs.items():
            e = (key >> pos) & mask
            if e == 0:
                continue
            out[key - dec] = c * e
        profile = self.profile
        if profile is not None and profile.sn:
            profile = Profile(profile.p0 + profile.sn // profile.sd,
                              profile.sn, profile.sd, profile.flat)
        return MultiSeries(self.ctx, self.num_vars, self.shift, profile,
                           out)._normalized()

    def map_variables(self, new_num_vars: int, positions) -> "MultiSeries":
        """Re-embed into ``new_num_vars`` variables, variable i -> positions[i]."""
        if len(positions) != self.num_vars:
            raise ValueError("positions arity mismatch")
        out = {}
        tmp = MultiSeries(self.ctx, new_num_vars, 0, None, {})
        for key, c in self.coeffs.items():
            exps = self.unpack(key)
            nexps = [0] * new_num_vars
            for i, e in enumerate(exps):
                nexps[positions[i]] += e
            nk = tmp.pack(nexps)
            out[nk] = out.get(nk, 0) + c
        return MultiSeries(self.ctx, new_num_vars, self.shift, self.profile,
                           out)._normalized()

    def substitute_zero(self, positions) -> "MultiSeries":
        """Set the listed variables to zero (same ambient variable count)."""
        pos = set(positions)
        out = {}
        for key, c in self.coeffs.items():
            exps = self.unpack(key)
            if all(exps[i] == 0 for i in pos):
                out[key] = c
        return MultiSeries(self.ctx, self.num_vars, self.shift, self.profile,
                           out)._normalized()

    # -- comparisons ------------------------------------------------------------

    def same_at_working_precision(self, other: "MultiSeries") -> bool:
        return (self - other).is_zero

    def identical(self, other: "MultiSeries") -> bool:
        pa, pb = self.profile, other.profile
        prof_same = (pa is None and pb is None) or (
            pa is not None and pb is not None and pa.p0 == pb.p0
            and pa.sn == pb.sn and pa.sd == pb.sd and pa.flat == pb.flat)
        return (self.ctx == other.ctx and self.num_vars == other.num_vars
                and self.shift == other.shift and prof_same
                and self.coeffs == other.coeffs)

    def __repr__(self):
        parts = []
        for exps, c in self.terms()[:8]:
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e) or "1"
            parts.append(f"({c!r})*{mono}")
        more = "" if len(self.coeffs) <= 8 else f" + ... ({len(self.coeffs)} terms)"
        body = " + ".join(parts) if parts else "0"
        return f"MultiSeries[{body}{more}]"


def _sum(addends):
    """Sum of compatible series (at least one): the no-product case of
    ``_sum_of_products``."""
    return _sum_of_products(((s, None) for s in addends), None)


def _sum_of_products(terms, cap):
    """Sum of compatible addends and products truncated at total degree
    ``cap``, accumulated in one dict at one shift and normalized once.

    Each term is a pair (a, b): the product a*b, or the addend a when b is
    None (``cap`` is unused when no term is a product).  The profile is the
    ``Profile.min_with`` of every addend's profile and every product's
    ``_mul_profile``.  It lies at or below each term's own profile at every
    degree, so reducing the sum once leaves the residues that reducing each
    product first would: the result is the ``_sum`` of the ``mul`` of each
    product.  Only where the sum certifies below p^1 at some degree through
    ``cap`` can the two differ, in whether a coefficient there is nonzero
    and so raises PrecisionExhausted; there each product is formed and
    normalized on its own first.  ``Profile.at`` is nonincreasing in the
    degree, so the degree ``cap`` alone decides.  Terms with an exact-zero
    factor are skipped; a lone remaining addend comes back as it is.
    """
    live = []
    first = profile = None
    for a, b in terms:
        if first is None:
            first = a
        if a.profile is None and not a.coeffs:
            continue
        if b is None:
            pr = a.profile
        elif b.profile is None and not b.coeffs:
            continue
        else:
            pr = _mul_profile(a, b, cap)
        if pr is not None:
            profile = pr if profile is None else profile.min_with(pr)
        live.append((a, b))
    if not live:
        return MultiSeries.zero(first.ctx, first.num_vars)
    if len(live) == 1 and live[0][1] is None:
        return live[0][0]
    if cap is not None and len(live) > 1 and profile is not None \
            and profile.at(cap) < 1:
        live = [(a if b is None else _sum_of_products(((a, b),), cap), None)
                for a, b in live]
    p = first.ctx.p
    shift = max(a.shift + (0 if b is None else b.shift) for a, b in live)
    out = {}
    get = out.get
    for a, b in live:
        if b is None:
            f = p ** (shift - a.shift)
            for k, c in a.coeffs.items():
                out[k] = get(k, 0) + c * f
            continue
        if len(a.coeffs) < len(b.coeffs):
            a, b = b, a
        if not b.coeffs:
            continue
        # the shift factor rides on the smaller factor's integers
        f = p ** (shift - a.shift - b.shift)
        ds = b.degshift
        bterms = [(k >> ds, k, c * f) for k, c in sorted(b.coeffs.items())]
        for ea, ca in a.coeffs.items():
            limit = cap - (ea >> ds)
            for db, kb, cb in bterms:
                if db > limit:
                    break
                e = ea + kb
                out[e] = get(e, 0) + ca * cb
    return MultiSeries(first.ctx, first.num_vars, shift, profile,
                       {k: c for k, c in out.items() if c})._normalized()


def _mul_profile(a: MultiSeries, b: MultiSeries, cap: int) -> Profile:
    """Profile of a truncated product from three uncertainty channels.

    Channel 1: a's uncertainty times b's data; channel 2 symmetric;
    channel 3: the relative-digit cap N on top of the data valuations.
    Each channel is a few lower-bound lines (offset, slope); within a
    channel their pointwise max is sound, across channels (independent
    error sources) the min.  The result keeps the exact combined values at
    degree 0 (p0) and at the cap (flat), and the smallest slope of any line.
    A factor's uncertainty sits at every degree from 0, so against it the
    other factor's terms reach the cap; only against its stored terms does
    its minimum degree bound their room.
    """
    pa, pb = a.profile, b.profile
    if pa is None and pb is None:
        return None
    N = a.ctx.abs_precision
    vma, vha, ran, rad, mda = a._summary()
    vmb, vhb, rbn, rbd, mdb = b._summary()
    # data against data: the other factor's minimum degree caps how much
    # room denominators have
    fa = ran * max(0, cap - mdb) // rad     # floor(room_a * rho_a)
    fb = rbn * max(0, cap - mda) // rbd
    # channel 3: lines (vha + vhb, min(ra, rb)), (vma + vmb, 0), (joint, 0)
    sn, sd = _slope_min(ran, rad, rbn, rbd)
    joint = min(vha + vhb, vha + fb, vhb + fa, sn * cap // sd)
    p0 = N + max(vha + vhb, vma + vmb, joint)
    flat = N + max(vha + vhb + sn * cap // sd, vma + vmb, joint)
    if pa is not None:
        # lines (pa.p0 + vhb, min(pa, rb)), (pa.p0 + vmb, pa), (edge, 0)
        edge = pa.flat + max(vmb, min(vhb, rbn * cap // rbd))
        mn, md = _slope_min(pa.sn, pa.sd, rbn, rbd)
        p0 = min(p0, max(pa.p0 + vhb, pa.p0 + vmb, edge))
        flat = min(flat, max(pa.p0 + vhb + mn * cap // md,
                             pa.p0 + vmb + pa.sn * cap // pa.sd, edge))
        sn, sd = _slope_min(sn, sd, pa.sn, pa.sd)
    if pb is not None:
        # lines (pb.p0 + vha, min(pb, ra)), (pb.p0 + vma, pb), (edge, 0)
        edge = pb.flat + max(vma, min(vha, ran * cap // rad))
        mn, md = _slope_min(pb.sn, pb.sd, ran, rad)
        p0 = min(p0, max(pb.p0 + vha, pb.p0 + vma, edge))
        flat = min(flat, max(pb.p0 + vha + mn * cap // md,
                             pb.p0 + vma + pb.sn * cap // pb.sd, edge))
        sn, sd = _slope_min(sn, sd, pb.sn, pb.sd)
    return Profile(p0, sn, sd, flat)


class TupleSeries:
    """An n-tuple of series sharing variables, context, and cap."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("empty tuple series")
        for c in components[1:]:
            components[0]._require_compatible(c)
        self.components = components

    @property
    def ctx(self):
        return self.components[0].ctx

    @property
    def num_vars(self):
        return self.components[0].num_vars

    @property
    def dim(self):
        return len(self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    @classmethod
    def identity(cls, ctx, d, num_vars=None, offset=0) -> "TupleSeries":
        m = num_vars if num_vars is not None else d
        return cls([MultiSeries.variable(ctx, m, offset + i)
                    for i in range(d)])

    @classmethod
    def zero(cls, ctx, d, num_vars) -> "TupleSeries":
        return cls([MultiSeries.zero(ctx, num_vars) for _ in range(d)])

    def __add__(self, other):
        if not isinstance(other, TupleSeries):
            return NotImplemented
        if self.dim != other.dim:
            raise MixedContext("tuple dimensions differ")
        return TupleSeries([a + b for a, b in
                            zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, TupleSeries):
            return NotImplemented
        if self.dim != other.dim:
            raise MixedContext("tuple dimensions differ")
        return TupleSeries([a - b for a, b in
                            zip(self.components, other.components)])

    def __neg__(self):
        return TupleSeries([-a for a in self.components])

    def scale(self, s) -> "TupleSeries":
        return TupleSeries([a.scale(s) for a in self.components])

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def constant_is_zero(self) -> bool:
        return all(0 not in c.coeffs for c in self.components)

    def map_variables(self, new_num_vars, positions) -> "TupleSeries":
        return TupleSeries([c.map_variables(new_num_vars, positions)
                            for c in self.components])

    def truncate(self, cap) -> "TupleSeries":
        return TupleSeries([c.truncate(cap) for c in self.components])

    def same_at_working_precision(self, other: "TupleSeries") -> bool:
        return self.dim == other.dim and all(
            a.same_at_working_precision(b)
            for a, b in zip(self.components, other.components))

    def identical(self, other: "TupleSeries") -> bool:
        return self.dim == other.dim and all(
            a.identical(b) for a, b in zip(self.components, other.components))

    def __repr__(self):
        return "TupleSeries(" + ", ".join(repr(c) for c in self.components) + ")"


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

class _PowerCache:
    """Cached powers base^e, e >= 1, of one inner series, truncated at the
    composition cap."""

    __slots__ = ("base", "cap", "powers")

    def __init__(self, base: MultiSeries, cap: int):
        self.base = base
        self.cap = cap
        self.powers = [base.truncate(cap)]     # powers[e - 1] = base^e

    def get(self, e: int) -> MultiSeries:
        while len(self.powers) < e:
            self.powers.append(
                self.powers[-1].mul(self.powers[0], cap=self.cap))
        return self.powers[e - 1]


def tuple_compose(f, g, cap=None):
    """Composition f(g_1, ..., g_m), truncated at the degree cap.

    ``f`` is a TupleSeries (or a single MultiSeries) in m variables, ``g``
    a TupleSeries with m components over some other variable set; every
    component of g must have certified-zero constant term.

    Each component of f is evaluated by a multivariate Horner scheme that
    nests f's variables by the density of their inner components: the g_i
    with the most stored terms is outermost, the sparsest innermost (a
    stable order, so ties keep index order).  The innermost level is paid
    once per monomial of f, the outermost once per distinct exponent, so
    the dense products run a few times instead of once per exponent
    prefix.  Each level is one ``_sum_of_products`` of the inner levels
    times cached powers of its g_i, normalized once and certified to the
    min of each product's own profile.  The order only changes how the
    same terms are grouped: each level is sound on its own, so any order
    certifies only true digits; the profiles it reaches can differ
    slightly from those of another order.
    """
    single = isinstance(f, MultiSeries)
    fs = [f] if single else list(f.components)
    gs = list(g.components) if isinstance(g, TupleSeries) else list(g)
    ctx = fs[0].ctx
    if any(c.ctx != ctx for c in gs):
        raise MixedContext("composition contexts differ")
    m = fs[0].num_vars
    if len(gs) != m:
        raise MixedContext(
            f"outer series in {m} variables, {len(gs)} inner components")
    for comp in gs:
        if 0 in comp.coeffs:
            raise NonzeroConstantTerm(
                "inner component has nonzero constant term")
    D = ctx.degree_cap if cap is None else min(cap, ctx.degree_cap)
    target_vars = gs[0].num_vars
    caches = [_PowerCache(comp, D) for comp in gs]
    out = []
    for ft in fs:
        res = _compose_one(ft, caches, D, target_vars)
        if ft.profile is not None:
            res = res._with_profile(_tail_profile(ft.profile, gs, D))
        out.append(res)
    return out[0] if single else TupleSeries(out)


def _tail_profile(pf: Profile, inner, cap: int) -> Profile:
    """Bound on what an outer series' unstored tail, certified to ``pf``,
    adds through degree ``cap`` once composed with the ``inner`` series.

    An absent degree-d monomial of the outer series is O(p^pf(d)); a
    product of d inner terms lowers that by at most d * rho_g, rho_g the
    smallest inner rho, so the slope is pf's plus rho_g.  The flat floor
    moves by max(rho_g, vmin_g) * cap, vmin_g the smallest inner
    valuation; both are capped at 0.
    """
    rn, rd, vmin = 0, 1, 0
    for s in inner:
        sv, _, n, d, _ = s._summary()
        rn, rd = _slope_min(rn, rd, n, d)
        vmin = min(vmin, sv)
    amp = max(rn * cap // rd, cap * vmin)
    return Profile(pf.p0, *_reduced(pf.sn * rd + rn * pf.sd, pf.sd * rd),
                   pf.flat + amp)


def _constant(f: MultiSeries, degree: int, c: int, target_vars: int):
    """f's stored integer c of one degree-``degree`` monomial as a constant
    in ``target_vars`` variables, certified at f's precision for that
    degree, or exact when f is."""
    prof = None if f.profile is None else Profile.const(f.prof(degree))
    return MultiSeries(f.ctx, target_vars, f.shift, prof, {0: c})._normalized()


def _compose_one(f: MultiSeries, caches, cap, target_vars) -> MultiSeries:
    ctx = f.ctx
    if not f.coeffs:
        return MultiSeries(ctx, target_vars, 0, f.profile, {})
    items = [(f.unpack(k), c) for k, c in f.coeffs.items()]
    m = f.num_vars
    # densest inner component outermost (stable: ties keep index order)
    order = sorted(range(m), key=lambda i: -len(caches[i].base.coeffs))

    def rec(entries, level):
        if level == m:
            # all exponents consumed: one monomial of f
            (exps, c), = entries
            return _constant(f, sum(exps), c, target_vars)
        var = order[level]
        groups = {}
        for exps, c in entries:
            groups.setdefault(exps[var], []).append((exps, c))

        terms = []
        for e in sorted(groups, reverse=True):
            part = rec(groups[e], level + 1)
            terms.append((part, caches[var].get(e)
                          if e and not part.is_zero else None))
        return _sum_of_products(terms, cap)

    return rec(items, 0)


class _RelaxedCompose:
    """f o h one homogeneous degree at a time while h is still being built
    (relaxed evaluation: van der Hoeven, "Relax, but don't be too lazy",
    J. Symbolic Comput. 34 (2002)).  ``lift_by_degree`` owns one per lift,
    so the compositional inverse, the negation, the inverse logarithm and
    the commutant all evaluate their residual here.

    h is known by its homogeneous parts, pushed in degree order from the
    linear one: ``push(part)`` appends [h]_j, a TupleSeries whose
    components are exactly homogeneous of degree j (an exact zero for a
    component that is complete already).  With parts 1..k-1 in, ``at(k)``
    is the degree-k part of f o h_(<k), h_(<k) the sum of those parts, for
    k >= 2: what tuple_compose(f, h_(<k), cap=k) gives at degree k.  f's
    linear monomials add nothing there, since [h_(<k)]_k = 0.

    The parts of every power h^I that f's monomials need are kept across
    calls.  For |I| >= 2, [h^I]_k = sum_j [h^A]_j [h^B]_(k-j) over a split
    I = A + B into nonzero exponents, so it needs only parts of degree
    below k, which are final.  That sum, and the degree-k part of f o h
    with f's tail bound as one more addend, are each one
    ``_sum_of_products`` with cap k, certified to the min of its products'
    own profiles; so each part keeps its own profile instead of the min
    over all of h.
    """

    def __init__(self, f: TupleSeries, start: TupleSeries):
        self.f = f
        n = start.num_vars
        self.zero = MultiSeries.zero(f.ctx, n)
        m = f.num_vars
        self._units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
        self._parts = {e: [self.zero] for e in self._units}   # I -> by degree
        self._inner = []            # every pushed part, for the tail profile
        self._leaves = []           # per component: (I, its coefficient)
        for fc in f:
            leaves = []
            for key, c in fc.coeffs.items():
                exps = fc.unpack(key)
                if sum(exps) >= 2:
                    leaves.append((exps, _constant(fc, sum(exps), c, n)))
            self._leaves.append(leaves)
        self.push(start)

    def push(self, part: TupleSeries):
        for unit, comp in zip(self._units, part):
            self._parts[unit].append(comp)
        self._inner.extend(part)

    def _power(self, exps, k: int) -> MultiSeries:
        """[h^exps]_k, kept for later degrees."""
        parts = self._parts.get(exps)
        if parts is None:
            parts = self._parts[exps] = [self.zero] * sum(exps)
        while len(parts) <= k:
            parts.append(self._product(exps, len(parts)))
        return parts[k]

    def _product(self, exps, k: int) -> MultiSeries:
        """[h^exps]_k, |exps| >= 2, from the parts of two kept factors: h_i
        times h_i^(e-1) for a power of one component h_i, else the other
        components' power times h_i^e, i the last variable in exps."""
        i = max(j for j, e in enumerate(exps) if e)
        e = exps[i]
        if sum(exps) == e:
            a, b = self._units[i], exps[:i] + (e - 1,) + exps[i + 1:]
        else:
            a, b = exps[:i] + (0,) + exps[i + 1:], tuple(
                e * x for x in self._units[i])
        terms = [(self.zero, None)]
        for j in range(sum(a), k - sum(b) + 1):
            pa = self._power(a, j)
            if pa.profile is not None or pa.coeffs:
                terms.append((pa, self._power(b, k - j)))
        return _sum_of_products(terms, k)

    def at(self, k: int) -> TupleSeries:
        out = []
        for fc, leaves in zip(self.f, self._leaves):
            terms = [(self.zero, None)]
            terms += [(leaf, self._power(exps, k))
                      for exps, leaf in leaves if sum(exps) <= k]
            if fc.profile is not None:
                terms.append((MultiSeries(
                    fc.ctx, self.zero.num_vars, 0,
                    _tail_profile(fc.profile, self._inner, k), {}), None))
            out.append(_sum_of_products(terms, k))
        return TupleSeries(out)


# ---------------------------------------------------------------------------
# Jacobians and linear algebra over scalars
# ---------------------------------------------------------------------------

class JacobianMatrix:
    """d1 x d2 matrix of partials; entries are scalars (at 0) or series."""

    __slots__ = ("entries", "at_zero")

    def __init__(self, entries, at_zero):
        self.entries = [list(row) for row in entries]
        self.at_zero = at_zero

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    def block(self, col_start, col_stop) -> "JacobianMatrix":
        return JacobianMatrix(
            [row[col_start:col_stop] for row in self.entries], self.at_zero)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def to_rows(self):
        return [list(row) for row in self.entries]


def jacobian(h: TupleSeries, at_zero: bool = True) -> JacobianMatrix:
    """J(h) = [d h_i / d x_j], symbolic or evaluated at the origin."""
    rows = []
    for comp in h.components:
        row = []
        for j in range(h.num_vars):
            d = comp.derivative(j)
            row.append(d.constant_term() if at_zero else d)
        rows.append(row)
    return JacobianMatrix(rows, at_zero)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_det(rows) -> PadicScalar:
    """Determinant by Gaussian elimination with min-valuation pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    ctx = m[0][0].ctx
    det = PadicScalar.exact(ctx, 1)
    for col in range(n):
        piv, pivval = None, None
        for r in range(col, n):
            x = m[r][col]
            if x.is_zero:
                continue
            v = x.valuation()
            if pivval is None or v < pivval:
                piv, pivval = r, v
        if piv is None:
            # each term of the remaining minor takes one entry from every
            # column, so its valuation is at least the sum of the columns'
            # least valuation bounds
            bound = det.valuation() + sum(
                min(m[r][c].valuation_lower_bound() for r in range(col, n))
                for c in range(col, n))
            if bound == INFINITE:
                return PadicScalar.zero(ctx)
            return PadicScalar.zero_at(ctx, bound)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pivot = m[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f.is_exact_zero:
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return det


def mat_inverse(rows):
    """Gauss-Jordan inverse; raises NotInvertible on certified singularity."""
    n = len(rows)
    m = [list(r) for r in rows]
    ctx = m[0][0].ctx
    aug = [row + [PadicScalar.exact(ctx, 1) if i == j else
                  PadicScalar.zero(ctx) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv, pivval = None, None
        for r in range(col, n):
            x = aug[r][col]
            if x.is_zero:
                continue
            v = x.valuation()
            if pivval is None or v < pivval:
                piv, pivval = r, v
        if piv is None:
            raise NotInvertible(f"no usable pivot in column {col}")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if f.is_exact_zero:
                continue
            aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def apply_matrix(mat, t: TupleSeries) -> TupleSeries:
    """Matrix (scalars) times tuple-of-series, componentwise linear combo."""
    return TupleSeries([_sum(comp.scale(coeff)
                             for coeff, comp in zip(row, t.components))
                        for row in mat])


def linear_part_matrix(h: TupleSeries):
    """J_0(h) as a plain list-of-lists of scalars."""
    return jacobian(h, at_zero=True).to_rows()


# ---------------------------------------------------------------------------
# degree-by-degree lifts and the compositional inverse
# ---------------------------------------------------------------------------

def lift_by_degree(f: TupleSeries, start: TupleSeries, correct) -> TupleSeries:
    """Lift the inner series x of f from the linear ``start``, one
    homogeneous degree at a time, k = 2..D (D the degree cap), on one
    relaxed evaluation of f o x.

    At each k, r = [f o x]_k is read off a ``_RelaxedCompose`` while x holds
    the degrees below k; f's linear monomials add nothing there.  Then
    delta_k = correct(k, r), exactly homogeneous of degree k (an exact zero
    in a component that is complete already), is pushed into the evaluator
    and added to x.  Every degree is lifted, even one whose r is zero: an
    r that is zero only at its certified precision still carries that
    precision into x.
    """
    relaxed = _RelaxedCompose(f, start)
    x = start
    for k in range(2, f.ctx.degree_cap + 1):
        delta = correct(k, relaxed.at(k))
        relaxed.push(delta)
        x = x + delta
    return x


def compositional_inverse(h: TupleSeries) -> TupleSeries:
    """Inverse under composition, built degree-by-degree.

    Starts from J0^-1 X, J0 the linear part of h, and at each degree k adds
    J0^-1(-[h o f]_k), so that h(f(X)) matches X one degree further; the
    lift evaluates h o f relaxed (``lift_by_degree``).  Requires J0 to be
    invertible over Z_p (unit determinant).
    """
    d = h.dim
    if h.num_vars != d:
        raise MixedContext("compositional inverse needs a d-in-d tuple")
    if not h.constant_is_zero():
        raise NonzeroConstantTerm("h(0) != 0")
    j0 = linear_part_matrix(h)
    det = mat_det(j0)
    if det.is_zero:
        raise NotInvertible("linear part has zero determinant at precision")
    if det.valuation() > 0:
        raise NotInvertible(
            f"det J0 has valuation {det.valuation()} > 0: not a unit")
    j0inv = mat_inverse(j0)
    return lift_by_degree(
        h, apply_matrix(j0inv, TupleSeries.identity(h.ctx, d)),
        lambda k, r: apply_matrix(j0inv, -r))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class EvalResult:
    """Evaluation value(s) plus the certified truncation-tail valuation."""

    __slots__ = ("values", "tail_valuation")

    def __init__(self, values, tail_valuation):
        self.values = values
        self.tail_valuation = tail_valuation

    @property
    def value(self):
        return self.values[0]

    def point(self) -> PointTuple:
        return PointTuple(self.values)


def ms_eval(f, theta: PointTuple, polynomial=False) -> EvalResult:
    """Evaluate a series (or tuple) at a point with positive-valuation coords.

    The returned elements are capped at the certified precision
    min(series floor, (D+1) * min v(theta_i)), which bounds both the
    truncated tail and the unstored-coefficient uncertainty.  With
    ``polynomial=True`` the caller asserts the input is the exact, complete
    polynomial (no truncated tail), waiving the (D+1)-tail cap.
    """
    single = isinstance(f, MultiSeries)
    fs = [f] if single else list(f.components)
    m = fs[0].num_vars
    if len(theta) != m:
        raise MixedContext("point arity does not match variable count")
    minv = theta.valuation_lower_bound()
    if not minv > 0:
        raise DivergentPoint(f"coordinate valuation {minv} not > 0")
    D = fs[0].ctx.degree_cap
    tail = INFINITE if (minv is INFINITE or polynomial) \
        else Fraction(D + 1) * Fraction(minv)
    caches = [[ExtScalar.one(theta.modulus), theta[i]] for i in range(m)]

    def power(i, e):
        cache = caches[i]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    values = []
    for ft in fs:
        acc = ExtScalar.zero(theta.modulus)
        for exps, coeff in ft.terms():
            term = ExtScalar.from_base(theta.modulus, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            acc = acc + term
        cap = tail
        fl = ft.floor
        if fl is not INFINITE:
            cap = fl if cap is INFINITE else min(cap, Fraction(fl))
        if cap is not INFINITE:
            acc = acc.cap_precision(cap)
        values.append(acc)
    return EvalResult(values, tail)


def coeff_extract(f: TupleSeries, exps, component: int = 0) -> PadicScalar:
    """Coefficient of the monomial ``exps`` in the chosen component."""
    return f.components[component].coefficient(exps)
