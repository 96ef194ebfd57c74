"""Canonical text documents for series, group laws, and extensions.

Documents are plain text with base-p digit strings, no floating point
anywhere.  Entries are emitted in (total degree, lexicographic exponent)
order and every field is rendered deterministically, so two equal series
serialize to identical bytes and a parse/serialize round trip is stable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadArgument, ParseError, VersionMismatch
from .formal_group import FormalGroupLaw, fg_validate
from .padic import ExtensionModulus, PrecisionContext, _vp
from .series import Envelope, MultiSeries, TupleSeries

FORMAT_VERSION = "v1"
SERIES_MAGIC = "fglab-series"
EXTENSION_MAGIC = "fglab-extension"

_KINDS = ("series", "tuple", "group-law", "endo")


def _fmt_fraction(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def serialize(obj, kind: str | None = None) -> str:
    """Render a series, tuple, or group law as a canonical document."""
    if isinstance(obj, FormalGroupLaw):
        kind = kind or "group-law"
        tup = obj.law
    elif isinstance(obj, TupleSeries):
        kind = kind or "tuple"
        tup = obj
    elif isinstance(obj, MultiSeries):
        kind = kind or "series"
        tup = TupleSeries([obj])
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if kind not in _KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    ctx = tup.ctx
    lines = [f"{SERIES_MAGIC} {FORMAT_VERSION}",
             f"kind: {kind}",
             f"p: {ctx.p}",
             f"abs-precision: {ctx.abs_precision}",
             f"degree-cap: {ctx.degree_cap}",
             f"num-vars: {tup.num_vars}",
             f"components: {tup.dim}"]
    if isinstance(obj, FormalGroupLaw):
        cert = obj.certificate
        lines.append(f"dimension: {obj.dimension}")
        lines.append(f"certified-degree: {cert.degree}")
        lines.append(f"axioms: {' '.join(cert.axioms)}")
        if cert.commutative is not None:
            lines.append(f"commutative: {'yes' if cert.commutative else 'no'}")
    for idx, comp in enumerate(tup.components):
        # a certified component is written at its Envelope: the header, and
        # each entry with the digits the header certifies at its degree
        env = comp.profile
        if env is None:
            # an exact entry is written as its unit's N digits, so the unit
            # must be one of 1 .. p^N - 1 to read back as itself
            top = ctx.p ** ctx.abs_precision
            if any(not 0 < c // ctx.p ** _vp(c, ctx.p) < top
                   for c in comp.coeffs.values()):
                raise BadArgument(
                    f"component {idx} has an exact coefficient with no "
                    f"{ctx.abs_precision}-digit exact form")
            lines.append(f"component {idx} profile exact")
        else:
            lines.append(f"component {idx} profile {env.p0} "
                         f"{_fmt_fraction(env.slope)} {env.flat}")
            comp = comp._with_precision(env.vector(ctx.degree_cap))
        for exps, coeff in comp.terms():
            digits = " ".join(str(d) for d in coeff.digits())
            expstr = " ".join(str(e) for e in exps)
            lines.append(f"{expstr} | {coeff.v} | {digits}")
        lines.append("end component")
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self):
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line, self.pos
        raise ParseError(self.pos, "unexpected end of document")


def _parse_fraction(tok: str, lineno: int) -> Fraction:
    try:
        if "/" in tok:
            a, b = tok.split("/")
            return Fraction(int(a), int(b))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad rational {tok!r}") from None


def _parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"{what} must be an integer, got {tok!r}") \
            from None


def _expect_field(line, lineno, name):
    prefix = name + ":"
    if not line.startswith(prefix):
        raise ParseError(lineno, f"expected {name!r} field, got {line!r}")
    return line[len(prefix):].strip()


def _int_field(line, lineno, name) -> int:
    return _parse_int(_expect_field(line, lineno, name), lineno, name)


def parse(text: str):
    """Parse a canonical document back into its object.

    Returns a MultiSeries, TupleSeries, or FormalGroupLaw depending on the
    document kind; parsing then serializing reproduces the bytes.  A group
    law is returned only once ``fg_validate`` confirms it and the
    certificate the document states.
    """
    r = _Reader(text)
    line, ln = r.next()
    parts = line.split()
    if len(parts) != 2 or parts[0] != SERIES_MAGIC:
        raise ParseError(ln, f"not a {SERIES_MAGIC} document")
    if parts[1] != FORMAT_VERSION:
        raise VersionMismatch(
            f"unsupported format version {parts[1]!r} (expected {FORMAT_VERSION})")
    line, ln = r.next()
    kind = _expect_field(line, ln, "kind")
    if kind not in _KINDS:
        raise ParseError(ln, f"unknown kind {kind!r}")
    line, ln = r.next()
    p = _int_field(line, ln, "p")
    line, ln = r.next()
    absprec = _int_field(line, ln, "abs-precision")
    line, ln = r.next()
    degcap = _int_field(line, ln, "degree-cap")
    line, ln = r.next()
    num_vars = _int_field(line, ln, "num-vars")
    if num_vars < 1:
        raise ParseError(ln, "a document needs at least one variable")
    line, ln = r.next()
    ncomp = _int_field(line, ln, "components")
    if ncomp < 1:
        raise ParseError(ln, "a document needs at least one component")
    try:
        ctx = PrecisionContext(p, absprec, degcap)
    except ValueError as exc:
        raise ParseError(ln, str(exc)) from None
    dimension = None
    cert_degree = None
    axioms = None
    commutative = None
    line, ln = r.next()
    while not line.startswith("component"):
        if line.startswith("dimension:"):
            dimension = _int_field(line, ln, "dimension")
        elif line.startswith("certified-degree:"):
            cert_degree = _int_field(line, ln, "certified-degree")
        elif line.startswith("axioms:"):
            axioms = tuple(_expect_field(line, ln, "axioms").split())
        elif line.startswith("commutative:"):
            commutative = _expect_field(line, ln, "commutative") == "yes"
        else:
            raise ParseError(ln, f"unexpected header line {line!r}")
        line, ln = r.next()
    comps = []
    for idx in range(ncomp):
        parts = line.split()
        if len(parts) < 4 or parts[0] != "component" \
                or _parse_int(parts[1], ln, "component index") != idx \
                or parts[2] != "profile":
            raise ParseError(ln, f"expected 'component {idx} profile ...'")
        if parts[3] == "exact":
            prec = None
        else:
            if len(parts) != 6:
                raise ParseError(ln, "profile needs p0, slope, flat")
            slope = _parse_fraction(parts[4], ln)
            if slope > 0:
                raise ParseError(ln, "profile slope must not be positive")
            prec = Envelope(_parse_int(parts[3], ln, "profile p0"), slope,
                            _parse_int(parts[5], ln, "profile flat")
                            ).vector(degcap)
        entries = {}
        vmin = 0
        while True:
            line, ln = r.next()
            if line == "end component":
                break
            fields = line.split("|")
            if len(fields) != 3:
                raise ParseError(ln, "entry needs 'exps | valuation | digits'")
            try:
                exps = tuple(int(t) for t in fields[0].split())
                v = int(fields[1].strip())
                digits = [int(t) for t in fields[2].split()]
            except ValueError:
                raise ParseError(ln, f"malformed entry {line!r}") from None
            if len(exps) != num_vars:
                raise ParseError(ln, f"expected {num_vars} exponents")
            if any(e < 0 for e in exps):
                raise ParseError(ln, "negative exponent")
            if sum(exps) > degcap:
                raise ParseError(ln, "exponent beyond degree cap")
            if not digits or any(not 0 <= d < p for d in digits):
                raise ParseError(ln, "digits out of range")
            unit = 0
            for d in reversed(digits):
                unit = unit * p + d
            if unit % p == 0:
                raise ParseError(ln, "unit part divisible by p")
            # the writer emits min(prof(d) - v, N) digits, as coefficient()
            # certifies them; any other count claims digits nobody checked
            want = absprec if prec is None \
                else min(prec[sum(exps)] - v, absprec)
            if len(digits) != want:
                raise ParseError(ln, f"{len(digits)} digits where the profile "
                                     f"certifies {want}")
            # every scalar is known modulo p^1 at least, so v > -N: this
            # also keeps the common shift below the document's digit count
            if v + len(digits) < 1:
                raise ParseError(ln, f"valuation {v} leaves no certified digit")
            # the entry is stored as unit * p^v: N * D bounds v by the
            # header, where an exact profile (or a huge p0) bounds nothing
            if v > absprec * degcap:
                raise ParseError(ln, f"valuation {v} exceeds abs-precision "
                                     f"times degree-cap, {absprec * degcap}")
            entries[exps] = (v, unit, len(digits))
            vmin = min(vmin, v)
        shift = max(0, -vmin)
        tmp = MultiSeries(ctx, num_vars, shift, prec, {})
        coeffs = {}
        for exps, (v, unit, rel) in entries.items():
            coeffs[tmp.pack(exps)] = unit * p ** (v + shift)
        comps.append(MultiSeries(ctx, num_vars, shift, prec, coeffs))
        if idx + 1 < ncomp:
            line, ln = r.next()
    line, ln = r.next()
    if line != "end":
        raise ParseError(ln, f"expected 'end', got {line!r}")
    tup = TupleSeries(comps)
    if kind == "series":
        return tup.components[0]
    if kind == "tuple" or kind == "endo":
        return tup
    if dimension is None or cert_degree is None or axioms is None:
        raise ParseError(ln, "group-law document missing certificate fields")
    # the stated certificate is not believed: the law is validated afresh
    # (AxiomViolation for a false law), and must state what that finds
    law = fg_validate(tup)
    fresh = law.certificate
    for name, a, b in (("dimension", dimension, law.dimension),
                       ("certified-degree", cert_degree, fresh.degree),
                       ("axioms", axioms, fresh.axioms),
                       ("commutative", commutative, fresh.commutative)):
        if a != b:
            raise ParseError(0, f"stored {name} disagrees with the law")
    return law


# ---------------------------------------------------------------------------
# extension documents
# ---------------------------------------------------------------------------

def serialize_extension(modulus: ExtensionModulus) -> str:
    coeffs = " ".join(_fmt_fraction(c.lift()) for c in modulus.coeffs)
    return (f"{EXTENSION_MAGIC} {FORMAT_VERSION}\n"
            f"tag: {modulus.tag}\n"
            f"coeffs: {coeffs}\n")


def parse_extension(text: str, ctx: PrecisionContext) -> ExtensionModulus:
    r = _Reader(text)
    line, ln = r.next()
    parts = line.split()
    if len(parts) != 2 or parts[0] != EXTENSION_MAGIC:
        raise ParseError(ln, f"not a {EXTENSION_MAGIC} document")
    if parts[1] != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported format version {parts[1]!r}")
    line, ln = r.next()
    tag = _expect_field(line, ln, "tag")
    line, ln = r.next()
    coeffs = [_parse_fraction(t, ln)
              for t in _expect_field(line, ln, "coeffs").split()]
    return ExtensionModulus(ctx, coeffs, tag)
