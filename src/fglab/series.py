"""Truncated multivariate power series over p-adic scalars.

A series is a sparse map from exponent vectors to coefficients, truncated
beyond a global total degree cap D.  Internally the exponent vector and its
total degree are packed into a single integer key (degree in the top bits,
so ascending key order is the canonical degree-then-lex order), and the
coefficient is held as a p-shifted integer:

    stored value c  represents  c * p^(-shift).

Certified precision is one vector per series, prec[d] for d = 0..D: every
coefficient of total degree d, stored or absent, is known modulo
p^prec[d].  An INFINITE entry, and every degree past the vector's end, is
exact: a product truncated at a cap, a homogeneous part and a truncation
are exactly zero at the degrees they drop.  An exact series has no vector
(None).  This is the "jagged" precision of Caruso, "Computations with
p-adic numbers" (arXiv:1701.06794): a Lubin-Tate logarithm's 1/p^k at
degree p^k lowers that degree only.  Every update below is conservative:
a sum takes the pointwise min of its terms' vectors, and a product the
min-plus convolution of each factor's precision against the other
factor's per-degree valuations.  Scalar-level arithmetic keeps sharper
per-element tracking; this layer trades that for a multiplication loop on
plain machine integers.

One pass over the coefficients caches each degree's smallest valuation;
the bookkeeping never builds a Fraction.  A document writes the vector as
its lower envelope ``p0 slope flat`` (``Envelope``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, zip_longest
from typing import NamedTuple

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


class Envelope(NamedTuple):
    """A precision vector's document form, the line max(flat, p0 +
    floor(slope * d)) at or below it at every degree 0..D: p0 is the
    degree-0 entry, flat the least entry, and slope <= 0 the largest n/q,
    q <= D, that keeps p0 + floor(slope * d) at or below every entry.
    Exact entries count as the largest finite one (N if none)."""

    p0: int
    slope: Fraction
    flat: int

    @classmethod
    def of(cls, prec, ctx) -> "Envelope":
        D = ctx.degree_cap
        top = max((x for x in prec if x != INFINITE),
                  default=ctx.abs_precision)
        vec = [min(x, top) for x in prec] + [top] * (D + 1 - len(prec))
        p0 = vec[0]
        # p0 + floor(s * d) <= vec[d]  iff  s < (vec[d] - p0 + 1) / d
        bound = min((Fraction(x - p0 + 1, d) for d, x in enumerate(vec) if d),
                    default=1)
        slope = Fraction(0) if bound > 0 else max(
            Fraction(math.ceil(bound * q) - 1, q) for q in range(1, D + 1))
        return cls(p0, slope, min(vec))

    def vector(self, D: int) -> tuple:
        return tuple(max(self.flat, self.p0 + math.floor(self.slope * d))
                     for d in range(D + 1))


class MultiSeries:
    """Sparse truncated power series in ``num_vars`` variables."""

    __slots__ = ("ctx", "num_vars", "shift", "prec", "coeffs", "_summ",
                 "_views_c")

    def __init__(self, ctx, num_vars, shift, prec, coeffs):
        self.ctx = ctx
        self.num_vars = num_vars
        self.shift = shift
        self.prec = prec          # precision vector (tuple), None when exact
        self.coeffs = coeffs      # dict[packed key, scaled int]
        # caches of _summary() and _views(); reset on any rewrite
        self._summ = self._views_c = None

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
        prec = self.prec
        return INFINITE if prec is None or d >= len(prec) else prec[d]

    @property
    def floor(self):
        """Weakest certified precision over the whole degree range."""
        return min(self.prec or (), default=INFINITE)

    @property
    def profile(self):
        """The precision vector's ``Envelope``, None for an exact series."""
        return None if self.prec is None else Envelope.of(self.prec, self.ctx)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, ctx, num_vars) -> "MultiSeries":
        return cls(ctx, num_vars, 0, None, {})

    @classmethod
    def from_terms(cls, ctx, num_vars, terms) -> "MultiSeries":
        """Series from {exponent tuple: coefficient}.

        Coefficients may be ints, Fractions, or PadicScalars.  Each degree
        is certified to its entries' least absolute precision, capped at
        the larger of the least one overall and of N (or the degree-0
        entries' precision, if less); a degree without entries gets that.
        """
        D = ctx.degree_cap
        least = [INFINITE] * (D + 1)
        entries = []
        vmin = 0
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError("exponent arity mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            d = sum(exps)
            if d > D:
                continue
            c = PadicScalar.exact(ctx, c)
            least[d] = min(least[d], c.prec)
            if c.v is not None:
                entries.append((exps, c))
                vmin = min(vmin, c.v)
        if min(least) == INFINITE:
            return cls(ctx, num_vars, 0, None, {})
        fill = max(min(ctx.abs_precision, least[0]), min(least))
        shift = max(0, -vmin)
        out = cls(ctx, num_vars, shift, tuple(min(fill, x) for x in least),
                  {})
        p = ctx.p
        out.coeffs = {out.pack(exps): c.unit * p ** (c.v + shift)
                      for exps, c in entries}
        return out._normalized()

    @classmethod
    def from_exact_terms(cls, ctx, num_vars, terms) -> "MultiSeries":
        """Exact series (no precision vector) from {exponent tuple:
        coefficient}.

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
        """Reduce per-degree, drop zeros, minimize the shift."""
        p = self.ctx.p
        prec = self.prec
        if prec is None:
            # an exact series keeps its integers whole, less those that cancel
            self.coeffs = {k: c for k, c in self.coeffs.items() if c}
            self._summ = self._views_c = None
        else:
            ds = self.degshift
            mods = {}
            out = {}
            for k, c in self.coeffs.items():
                d = k >> ds
                m = mods.get(d)
                if m is None:
                    pf = INFINITE if d >= len(prec) else prec[d]
                    if pf < 1:
                        raise PrecisionExhausted(
                            f"degree-{d} coefficients certified only to p^{pf}")
                    # 0: an exact degree keeps its integers whole
                    m = mods[d] = 0 if pf == INFINITE else \
                        p ** (pf + self.shift)
                if m:
                    c %= m
                if c:
                    out[k] = c
            self.coeffs = out
            self._summ = self._views_c = None
        if not self.coeffs:
            return MultiSeries(self.ctx, self.num_vars, 0, prec, {})
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
        """Zero at the certified precision (empty support)."""
        return not self.coeffs

    def _summary(self):
        """(vmin, vals), cached: vals is a tuple of (degree, least
        valuation) for each stored degree in degree order, the valuation of
        the gcd of the degree's integers, and vmin is the least (0 for the
        empty series)."""
        summ = self._summ
        if summ is None:
            ds = self.degshift
            gcds = {}
            get = gcds.get
            for key, c in self.coeffs.items():
                d = key >> ds
                gcds[d] = math.gcd(get(d, 0), c)
            p, shift = self.ctx.p, self.shift
            vals = tuple([(d, _vp(g, p) - shift)
                          for d, g in sorted(gcds.items())])
            summ = self._summ = (min([v for _, v in vals], default=0), vals)
        return summ

    def _views(self):
        """``_product_views`` of this series, cached."""
        if self._views_c is None:
            self._views_c = _product_views(
                self.prec, self._summary()[1], self.ctx.abs_precision,
                self.ctx.degree_cap)
        return self._views_c

    @property
    def vmin(self) -> int:
        """Smallest coefficient valuation (0 for empty series)."""
        return self._summary()[0]

    @property
    def rho(self) -> Fraction:
        """min over positive-degree terms of v(coeff)/degree, capped at 0."""
        vals = self._summary()[1]
        return min([Fraction(0)] + [Fraction(v, d) for d, v in vals if d])

    def support(self) -> list:
        """Exponent tuples in canonical (degree, lex) order."""
        return [self.unpack(k) for k in sorted(self.coeffs)]

    def coefficient(self, exps) -> PadicScalar:
        """Materialize one coefficient; absent means zero at its degree's
        precision."""
        exps = tuple(exps)
        d = sum(exps)
        if d > self.ctx.degree_cap:
            raise ValueError("exponent beyond degree cap")
        key = self.pack(exps)
        c = self.coeffs.get(key)
        if c is None:
            return PadicScalar.zero_at(self.ctx, self.prof(d))
        p = self.ctx.p
        w = _vp(c, p)
        return PadicScalar._build(self.ctx, w - self.shift, c // p ** w,
                                  self.prof(d))

    def terms(self):
        """(exponent tuple, PadicScalar) pairs in canonical order."""
        return [(self.unpack(k), self.coefficient(self.unpack(k)))
                for k in sorted(self.coeffs)]

    def ext_terms(self, modulus) -> list:
        """(exponent tuple, ExtScalar) pairs in canonical order: a stored c
        at degree d is c p^-shift + O(pi^(e prec[d])), capped by ``_normal``
        at e N powers of pi past its valuation, as ``coefficient`` caps it."""
        self.ctx.require_same(modulus.ctx)
        e, ds = modulus.ram_index, self.degshift
        pad = [0] * (modulus.degree - 1)
        return [(self.unpack(k), ExtScalar._normal(
            modulus, -self.shift, [c, *pad], e * self.prof(k >> ds)))
            for k, c in sorted(self.coeffs.items())]

    def degree(self) -> int:
        ds = self.degshift
        return max((k >> ds for k in self.coeffs), default=0)

    # -- ring operations ---------------------------------------------------------

    def _require_compatible(self, other: "MultiSeries"):
        if self.ctx != other.ctx:
            raise MixedContext("series contexts differ")
        if self.num_vars != other.num_vars:
            raise MixedContext("variable counts differ")

    def _with_precision(self, prec) -> "MultiSeries":
        """Weaken to the pointwise min with ``prec``: add a zero certified
        to it."""
        return _sum((self, MultiSeries(self.ctx, self.num_vars, 0, prec, {})))

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
        return MultiSeries(self.ctx, self.num_vars, self.shift, self.prec,
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

        Below the context cap the result is the truncation of the product:
        exactly zero past ``cap``.  Internal degree-by-degree recursions use
        this and never read beyond their cap.
        """
        self._require_compatible(other)
        D = self.ctx.degree_cap if cap is None else min(cap,
                                                        self.ctx.degree_cap)
        return _sum_of_products(((self, other),), D)

    def scale(self, s) -> "MultiSeries":
        """Multiply by a scalar (int, Fraction, or PadicScalar): the product
        with s as a constant series.  An exact series times an int or a
        Fraction in Z[1/p] stays exact, as under ``+``, ``-`` and ``mul``;
        a product certified to no digit at any degree raises
        PrecisionExhausted.
        """
        if self.prec is None and not self.coeffs:
            return self
        ctx, n = self.ctx, self.num_vars
        p, N = ctx.p, ctx.abs_precision
        if isinstance(s, PadicScalar):
            ctx.require_same(s.ctx)
            if s.is_exact_zero:
                return MultiSeries.zero(ctx, n)
            v, u = (0, 0) if s.v is None else (s.v, s.unit)
            prec = (s.prec,)
        else:
            q = Fraction(s)
            if q == 0:
                return MultiSeries.zero(ctx, n)
            v = -_vp(q.denominator, p)
            if q.denominator == p ** -v:
                u, prec = q.numerator, None
            else:
                # a rational is its unit to N digits at any valuation, even
                # one that leaves PadicScalar.exact no digit at p^1 or above
                v, u = _split(q, p, N)
                prec = (v + N,)
        shift = max(0, -v)
        out = self.mul(MultiSeries(ctx, n, shift, prec,
                                   {0: u * p ** (v + shift)} if u else {}))
        if out.prec is not None and max(out.prec, default=INFINITE) < 1:
            raise PrecisionExhausted(
                f"certified only to p^{max(out.prec)} at every degree")
        return out

    def truncate(self, cap: int) -> "MultiSeries":
        """The terms of total degree up to cap: exactly zero above it."""
        ds = self.degshift
        out = {k: c for k, c in self.coeffs.items() if (k >> ds) <= cap}
        prec = None if self.prec is None else self.prec[:cap + 1]
        return MultiSeries(self.ctx, self.num_vars, self.shift, prec,
                           out)._normalized()

    def homogeneous_part(self, d: int) -> "MultiSeries":
        """The degree-d part: exactly zero at every other degree."""
        ds = self.degshift
        out = {k: c for k, c in self.coeffs.items() if (k >> ds) == d}
        return MultiSeries(self.ctx, self.num_vars, self.shift, self.prec,
                           out)._normalized()._only_at(d)

    def _only_at(self, d: int) -> "MultiSeries":
        """This series, stored at degree d only, exact at other degrees."""
        if self.prec is None:
            return self
        out = MultiSeries(self.ctx, self.num_vars, self.shift,
                          (INFINITE,) * d + (self.prof(d),), self.coeffs)
        out._summ = self._summ
        return out

    def derivative(self, var: int) -> "MultiSeries":
        """Partial derivative with respect to variable ``var``: a degree-d
        coefficient comes from degree d+1, so the vector moves down one."""
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
        prec = None if self.prec is None else self.prec[1:]
        return MultiSeries(self.ctx, self.num_vars, self.shift, prec,
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
        return MultiSeries(self.ctx, new_num_vars, self.shift, self.prec,
                           out)._normalized()

    def substitute_zero(self, positions) -> "MultiSeries":
        """Set the listed variables to zero (same ambient variable count)."""
        pos = set(positions)
        out = {}
        for key, c in self.coeffs.items():
            exps = self.unpack(key)
            if all(exps[i] == 0 for i in pos):
                out[key] = c
        return MultiSeries(self.ctx, self.num_vars, self.shift, self.prec,
                           out)._normalized()

    # -- comparisons ------------------------------------------------------------

    def same_at_working_precision(self, other: "MultiSeries") -> bool:
        return (self - other).is_zero

    def identical(self, other: "MultiSeries") -> bool:
        return (self.ctx == other.ctx and self.num_vars == other.num_vars
                and self.shift == other.shift and self.prec == other.prec
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
    None.  The precision is the pointwise min of the terms' (None when all
    are exact).  A product is exact past ``cap``; through it, a*b - A*B =
    ea*b + A*eb (A, B the stored parts, ea, eb the uncertainties), so
    degree k is known to the least w_a[i] + pe_b[j] and pe_a[i] + v_b[j]
    over i + j = k (``_product_views``; v_b for w_b drops only pe_a[i] +
    prec_b[j], which the first bounds).  Where it returns, reducing the sum
    once so leaves the residues of the ``_sum`` of each product's ``mul``.
    The one pass keeps every raw key, even one that cancels or that its
    product alone would drop as zero at its own precision, so it raises
    PrecisionExhausted at every degree certified below p^1 where a term
    stores one.  Terms with an exact-zero factor are skipped; a lone addend
    comes back as it is.
    """
    live = []
    first = prec = None
    for a, b in terms:
        if first is None:
            first = a
        if a.prec is None and not a.coeffs:
            continue
        if b is None:
            if a.prec is not None:
                prec = _lowered(prec, a.prec)
        elif b.prec is None and not b.coeffs:
            continue
        elif a.prec is not None or b.prec is not None:
            if prec is None:
                prec = [INFINITE] * (cap + 1)
            elif len(prec) <= cap:
                prec += [INFINITE] * (cap + 1 - len(prec))
            pe_a, w_a, _ = a._views()
            pe_b, _, v_b = b._views()
            if pe_b is not None:
                _min_plus(prec, pe_b, w_a, cap)
            if pe_a is not None:
                _min_plus(prec, pe_a, v_b, cap)
        live.append((a, b))
    if not live:
        return MultiSeries.zero(first.ctx, first.num_vars)
    if len(live) == 1 and live[0][1] is None:
        return live[0][0]
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
    return MultiSeries(first.ctx, first.num_vars, shift,
                       None if prec is None else tuple(prec), out)._normalized()


def _lowered(acc, prec) -> list:
    """The pointwise min of the list ``acc`` (None: no vector yet) and the
    vector ``prec``."""
    return list(prec) if acc is None else [x if x < y else y for x, y in
                                           zip_longest(acc, prec,
                                                       fillvalue=INFINITE)]


@lru_cache(maxsize=64)
def _product_views(prec, vals, N: int, D: int):
    """A factor's views for ``_min_plus``: (pe, w, v), from its precision
    vector and its (degree, least stored valuation) pairs ``vals``.

    w[d] = min(vals[d], prec[d]) bounds the whole degree-d part and
    pe[d] = min(prec[d], N + vals[d]) caps the precision at N digits past
    the data.  pe is split as (top, first, below): top[d] is the largest pe
    entry at degree d or above (through D), finite from ``first``, and
    below lists the (degree, value) entries under top; pe is None for an
    exact series.  w and v are ``_with_low`` of their finite entries.
    Memoized by value: many series share a vector and a valuation pattern.
    """
    v = _with_low(vals)
    if prec is None:
        return None, v, v
    pe = list(prec) + [INFINITE] * (D + 1 - len(prec))
    w = pe[:]
    for d, x in vals:
        if x < w[d]:
            w[d] = x
        if x + N < pe[d]:
            pe[d] = x + N
    top = tuple(accumulate(reversed(pe), max))[::-1]
    return (top, top.count(INFINITE),
            [(d, x) for d, x, t in zip(count(), pe, top) if x < t]), \
        _with_low([(d, x) for d, x in enumerate(w) if x != INFINITE]), v


def _with_low(entries):
    """(entries, those below every earlier one), for (degree, value) pairs
    in degree order."""
    low = []
    least = INFINITE
    for d, x in entries:
        if x < least:
            low.append((d, x))
            least = x
    return entries, entries if len(low) == len(entries) else low


def _min_plus(acc, pe, entries, cap: int):
    """Lower acc[k], k <= cap, to the least pe[i] + y[j] over i + j = k:
    pe split as ``_product_views`` gives, entries = (y, low) as
    ``_with_low`` gives.  top is nonincreasing, so against it y[j] loses to
    any earlier y[j'] <= y[j] (top[k - j'] <= top[k - j]): only low is
    read."""
    (top, first, below), (y, low) = pe, entries
    for j, v in low:
        if j > cap - first:
            break
        for k, t in enumerate(top[first:cap + 1 - j], first + j):
            s = t + v
            if s < acc[k]:
                acc[k] = s
    for i, u in below:
        if i > cap:
            break
        room = cap - i
        for j, v in y:
            if j > room:
                break
            s = u + v
            if s < acc[i + j]:
                acc[i + j] = s


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
    composition cap.  The base's constant term is exactly zero, as
    composition requires, so base^e is exactly zero below degree e."""

    __slots__ = ("base", "cap", "powers")

    def __init__(self, base: MultiSeries, cap: int):
        self.base = base
        self.cap = cap
        first = base.truncate(cap)              # powers[e - 1] = base^e
        if first.prec is not None:
            first.prec = (INFINITE,) + first.prec[1:]
        self.powers = [first]

    def get(self, e: int) -> MultiSeries:
        while len(self.powers) < e:
            self.powers.append(
                self.powers[-1].mul(self.powers[0], cap=self.cap))
        return self.powers[e - 1]


def tuple_compose(f, g, cap=None):
    """Composition f(g_1, ..., g_m), truncated at the degree cap.

    ``f`` is a TupleSeries (or a single MultiSeries) in m variables, ``g``
    a TupleSeries with m components over some other variable set; every
    component of g must have certified-zero constant term, which is then
    taken as exactly zero.

    Each component of f is evaluated by a multivariate Horner scheme that
    nests f's variables by the density of their inner components: the g_i
    with the most stored terms is outermost, the sparsest innermost (a
    stable order, so ties keep index order).  The innermost level is paid
    once per monomial of f, the outermost once per distinct exponent, so
    the dense products run a few times instead of once per exponent
    prefix.  Each level is one ``_sum_of_products`` of the inner levels
    times cached powers of its g_i, normalized once.

    A certified f adds the bound of its unstored monomials (``_tail``).
    Where that tail decides the precision (``_tail_decides``), f's stored
    integers are composed exactly, through exact powers, and certified
    once, at the tail; this gives the same series as the certified path.
    Elsewhere each level is certified to the pointwise min of each
    product's own precision.  The order only changes how the same terms
    are grouped: each level is sound on its own, so any order certifies
    only true digits; the precision it reaches can differ slightly from
    that of another order.
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
    exact_caches = None
    slope = _slope(gs, D)
    out = []
    for ft in fs:
        if ft.prec is None:
            out.append(_compose_one(ft, caches, D, target_vars))
            continue
        tail = _tail(ft, slope, D)
        if _tail_decides(ft, gs, slope, tail):
            if exact_caches is None:
                exact_caches = [_PowerCache(_exact_view(c), D) for c in gs]
            res = _compose_one(_exact_view(ft), exact_caches, D, target_vars)
        else:
            res = _compose_one(ft, caches, D, target_vars)
        out.append(res._with_precision(tail))
    return out[0] if single else TupleSeries(out)


def _slope(inner, cap):
    """(gn, gd) with g = gn/gd the least w[j]/j over the ``inner`` series'
    degrees j = 1..cap (w as ``_product_views`` gives), so every inner
    series is known to valuation >= g*j at degree j; None when no inner
    series has a finite entry there."""
    gn = gd = None
    for s in inner:
        for j, x in s._views()[1][0]:
            if 0 < j <= cap and (gn is None or x * gd < gn * j):
                gn, gd = x, j
    return None if gn is None else (gn, gd)


def _tail(f: MultiSeries, slope, cap: int) -> tuple:
    """Precision through ``cap`` of f's unstored monomials composed with
    inner series of ``_slope`` g: one of degree d >= 1 lands at degrees
    k >= d, where inner products have valuation >= g*k; so degree k reads
    the least prec(d), 1 <= d <= k, plus floor(g*k) (exact if the inner
    series are)."""
    out = [f.prof(0)]
    least = INFINITE
    for k in range(1, cap + 1):
        least = min(least, f.prof(k))
        out.append(INFINITE if slope is None
                   else least + slope[0] * k // slope[1])
    return tuple(out)


def _tail_decides(f: MultiSeries, inner, slope, tail) -> bool:
    """True when composing f with ``inner`` level by level
    (``_compose_one``) would certify exactly ``tail`` and raise nowhere, so
    that composing the exact stored parts and reducing once at the tail
    gives the same series.

    Let g be the slope and delta the least pe[j] - g*j over the certified
    inner series and j = 1..cap, capped at N (pe = min(prec, N + vals) as
    in ``_product_views``).  Every power of an inner series is then stored
    at valuation >= g*k and certified to delta + g*k at degree k, and a
    level holding c x^I is certified at degree k to at least min(v(c) +
    delta + g*k, prec_f(|I|) + g*k): the inner uncertainty acting on c, or
    the N-digit cap on c's data, and c's own precision, which the tail
    already bounds.  So the top level reaches the tail where v(c) + delta +
    g*k does, v(c) the least valuation f stores at degrees 1..k.  A level
    below the top, or a power, raises PrecisionExhausted where it stores a
    term certified below p^1, which the one pass would not: its bounds,
    taken over every stored monomial, must be >= 1 at degrees 1 and cap
    (they are linear in k), as must the tail.
    """
    if slope is None or min(tail) < 1:
        return False
    vals = [(d, v) for d, v in f._summary()[1] if d]
    if not vals:
        return True
    (gn, gd), cap = slope, len(tail) - 1
    N = f.ctx.abs_precision
    dn = N * gd                                      # delta * gd
    for s in inner:
        if s.prec is not None:
            sv = dict(s._summary()[1])
            for j in range(1, cap + 1):
                pe = min(s.prof(j), N + sv.get(j, INFINITE))
                dn = min(dn, pe * gd - gn * j)
    lo = min(min(v for _, v in vals) * gd + dn, dn,
             min(f.prof(d) for d, _ in vals) * gd)
    if min(lo + gn, lo + gn * cap) < gd:
        return False
    least = INFINITE
    stored = dict(vals)
    for k in range(1, cap + 1):
        least = min(least, stored.get(k, INFINITE))
        if least * gd + dn + gn * k < tail[k] * gd:
            return False
    return True


def _exact_view(s: MultiSeries) -> MultiSeries:
    """s's stored integers as an exact series."""
    return MultiSeries(s.ctx, s.num_vars, s.shift, None, s.coeffs)


def _constant(f: MultiSeries, degree: int, c: int, target_vars: int):
    """f's stored integer c of one degree-``degree`` monomial as a constant
    in ``target_vars`` variables, certified at f's precision for that
    degree and exactly zero at every other degree, or exact when f is."""
    prec = None if f.prec is None else (f.prof(degree),)
    return MultiSeries(f.ctx, target_vars, f.shift, prec, {0: c})._normalized()


def _compose_one(f: MultiSeries, caches, cap, target_vars) -> MultiSeries:
    ctx = f.ctx
    if not f.coeffs:
        return MultiSeries.zero(ctx, target_vars)
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

        # a part that is zero at its precision is still multiplied: its
        # uncertainty reaches f o g only through the power
        return _sum_of_products(
            [(rec(groups[e], level + 1), caches[var].get(e) if e else None)
             for e in sorted(groups, reverse=True)], cap)

    out = rec(items, 0)
    del rec     # its closure refers to it: free the power caches now
    return out


class _RelaxedCompose:
    """f o h one homogeneous degree at a time while h is still being built
    (relaxed evaluation: van der Hoeven, "Relax, but don't be too lazy",
    J. Symbolic Comput. 34 (2002)).  ``lift_by_degree`` owns one per lift,
    so the compositional inverse, the negation, the inverse logarithm and
    the commutant all evaluate their residual here.

    h is known by its homogeneous parts, pushed in degree order from the
    linear one: ``push(part)`` appends [h]_j, a TupleSeries whose
    components are exactly homogeneous of degree j (an exact zero for a
    component that is complete already), each kept as certified at degree
    j and exactly zero at every other degree.  With parts 1..k-1 in,
    ``at(k)`` is the degree-k part of f o h_(<k), h_(<k) the sum of those
    parts, for k >= 2: what tuple_compose(f, h_(<k), cap=k) gives at degree
    k, exactly zero at every other degree.  f's linear monomials add
    nothing there, since [h_(<k)]_k = 0.

    The parts of every power h^I that f's monomials need are kept across
    calls.  For |I| >= 2, [h^I]_k = sum_j [h^A]_j [h^B]_(k-j) over a split
    I = A + B into nonzero exponents, so it needs only parts of degree
    below k, which are final.  That sum, and the degree-k part of f o h
    with f's tail bound as one more addend, are each one
    ``_sum_of_products`` with cap k, certified to the pointwise min of its
    products' own precision; so each part keeps its own precision instead
    of the min over all of h.
    """

    def __init__(self, f: TupleSeries, start: TupleSeries):
        self.f = f
        n = start.num_vars
        self.zero = MultiSeries.zero(f.ctx, n)
        m = f.num_vars
        self._units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
        self._parts = {e: [self.zero] for e in self._units}   # I -> by degree
        self._inner = []            # every pushed part, for the tail bound
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
        j = len(self._parts[self._units[0]])
        part = [c._only_at(j) for c in part]
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
            if pa.prec is not None or pa.coeffs:
                terms.append((pa, self._power(b, k - j)))
        return _sum_of_products(terms, k)

    def at(self, k: int) -> TupleSeries:
        slope = _slope(self._inner, k)
        out = []
        for fc, leaves in zip(self.f, self._leaves):
            terms = [(self.zero, None)]
            terms += [(leaf, self._power(exps, k))
                      for exps, leaf in leaves if sum(exps) <= k]
            if fc.prec is not None:
                terms.append((MultiSeries(
                    fc.ctx, self.zero.num_vars, 0,
                    _tail(fc, slope, k), {}), None))
            out.append(_sum_of_products(terms, k)._only_at(k))
        return TupleSeries(out)


# ---------------------------------------------------------------------------
# Jacobians and linear algebra over scalars
# ---------------------------------------------------------------------------

def jacobian(h: TupleSeries) -> list:
    """J(h) = [d h_i / d x_j] at the origin, as rows: the coefficient of x_j
    in h_i, which is what ``derivative(j)`` keeps as its constant term (the
    linear integer, certified to prec[1])."""
    n = h.num_vars
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return [[comp.coefficient(e) for e in units] for comp in h.components]


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


def _pivot(m, col):
    """The row, from ``col`` down, whose entry in column ``col`` has the
    least valuation, or None when every such entry is zero at its
    precision."""
    piv, pivval = None, None
    for r in range(col, len(m)):
        x = m[r][col]
        if x.is_zero:
            continue
        v = x.valuation()
        if pivval is None or v < pivval:
            piv, pivval = r, v
    return piv


def mat_det(rows):
    """Determinant by Gaussian elimination with min-valuation pivoting,
    in the entries' own scalar type."""
    m = [list(r) for r in rows]
    n = len(m)
    det = m[0][0] ** 0
    for col in range(n):
        piv = _pivot(m, col)
        if piv is None:
            # each term of the remaining minor takes one entry from every
            # column, so its valuation is at least the sum of the columns'
            # least valuation bounds
            bound = det.valuation() + sum(
                min(m[r][c].valuation_lower_bound() for r in range(col, n))
                for c in range(col, n))
            return (det * 0).cap_precision(bound)
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
    """Gauss-Jordan inverse in the entries' own scalar type; raises
    NotInvertible on certified singularity."""
    n = len(rows)
    one, zero = rows[0][0] ** 0, rows[0][0] * 0
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = _pivot(aug, col)
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
    j0 = jacobian(h)
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
    tail = INFINITE if (minv == INFINITE or polynomial) \
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
        for exps, term in ft.ext_terms(theta.modulus):
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            acc = acc + term
        values.append(acc.cap_precision(min(tail, ft.floor)))
    return EvalResult(values, tail)


def coeff_extract(f: TupleSeries, exps, component: int = 0) -> PadicScalar:
    """Coefficient of the monomial ``exps`` in the chosen component."""
    return f.components[component].coefficient(exps)
