"""Newton copolygons, valuation bounds, orbits, and torsion probes.

The copolygon of a 2-variable series is the family of planes
i*xi1 + j*xi2 + v(a_ij) over its support, evaluated as a pointwise minimum;
it bounds v(f(theta)) from below for any point with positive-valuation
coordinates.  Orbit analysis iterates a tuple series at a point with
certified-equality cycle detection, and the torsion probe finds roots of
[p^n]_F in a user-declared extension by digit refinement plus Newton
lifting.  No completeness over the algebraic closure is ever claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BadArgument,
    DivergentPoint,
    DivisionByZero,
    ImpreciseValuation,
    MixedContext,
    PrecisionExhausted,
)
from .padic import INFINITE, ExtScalar, ExtensionModulus, PointTuple, _vp
from .series import MultiSeries, TupleSeries, jacobian, mat_det, ms_eval


# ---------------------------------------------------------------------------
# copolygons
# ---------------------------------------------------------------------------

class Copolygon:
    """The plane family {(i, j, v(a_ij))} of a 2-variable series."""

    __slots__ = ("planes",)

    def __init__(self, planes):
        self.planes = tuple(planes)

    @classmethod
    def from_series(cls, f: MultiSeries) -> "Copolygon":
        if f.num_vars != 2:
            raise MixedContext("copolygons are defined for 2-variable series")
        if f.is_zero:
            raise BadArgument("copolygon of the zero series")
        return cls((*f.unpack(k), _vp(c, f.ctx.p) - f.shift)
                   for k, c in sorted(f.coeffs.items()))

    def evaluate(self, xi1, xi2):
        """V_f(xi) = min over planes, plus the set of achieving planes; an
        INFINITE coordinate (an exact zero) drops the planes that carry it."""
        gone = (xi1 == INFINITE, xi2 == INFINITE)
        xi1, xi2 = (Fraction(0 if g else x) for g, x in zip(gone, (xi1, xi2)))
        best = INFINITE
        achieving = []
        for i, j, v in self.planes:
            if i and gone[0] or j and gone[1]:
                continue
            val = i * xi1 + j * xi2 + v
            if val < best:
                best = val
                achieving = [(i, j)]
            elif val == best:
                achieving.append((i, j))
        return best, achieving


def copolygon_build_eval(f: MultiSeries, xi):
    """V_f at one rational point; returns (value, achieving planes)."""
    return Copolygon.from_series(f).evaluate(*xi)


@dataclass(frozen=True)
class BoundCheckReport:
    """Both sides of the valuation bound v(f(theta)) >= V_f(v(theta))."""

    value_valuation: object        # Fraction when exact, else None
    value_floor: object            # certified lower bound (Fraction)
    copolygon_value: Fraction
    holds: bool
    strict: bool | None            # None when only the floor is known


def valuation_bound_check(f: MultiSeries, theta: PointTuple,
                          polynomial: bool = False) -> BoundCheckReport:
    """Check v(f(theta)) >= V_f(v(theta_1), v(theta_2)) with exact rationals."""
    if f.num_vars != 2:
        raise MixedContext("bound check needs a 2-variable series")
    if len(theta) != 2:
        raise MixedContext("point arity does not match variable count")
    V, _ = Copolygon.from_series(f).evaluate(theta[0].valuation(),
                                             theta[1].valuation())
    value = ms_eval(f, theta, polynomial=polynomial).value
    if value.is_exact_zero:
        return BoundCheckReport(None, INFINITE, V, True, V != INFINITE)
    try:
        vv = value.valuation()
    except ImpreciseValuation:
        floor = value.precision_floor()
        return BoundCheckReport(None, floor, V, floor >= V, None)
    return BoundCheckReport(vv, vv, V, vv >= V, vv > V)


# ---------------------------------------------------------------------------
# orbit analysis
# ---------------------------------------------------------------------------

@dataclass
class OrbitRecord:
    """Iterates, valuations, and the certified verdict for one orbit."""

    start: PointTuple
    status: str                     # periodic | preperiodic | valuation-escape | inconclusive
    iterates: list = field(default_factory=list)
    valuations: list = field(default_factory=list)   # (Fraction bound, exact?)
    period: int | None = None
    tail: int | None = None
    escape_at: int | None = None
    escape_floor: object = None
    increase_violations: list = field(default_factory=list)
    budget: int = 0

    def to_report(self) -> dict:
        start_v, start_exact = self.valuations[0] if self.valuations \
            else (None, None)
        return {
            "status": self.status,
            "start_valuation": None if start_v is None else str(start_v),
            "start_valuation_exact": start_exact,
            "period": self.period,
            "tail": self.tail,
            "escape_at": self.escape_at,
            "escape_floor": None if self.escape_floor is None
            else str(self.escape_floor),
            "valuations": [(str(v), exact) for v, exact in self.valuations],
            "increase_violations": list(self.increase_violations),
            "budget": self.budget,
        }


def _tuple_valuation_bound(theta: PointTuple):
    """(bound, exact?) for the tuple valuation at working precision."""
    try:
        v = theta.valuation()
        return v, True
    except ImpreciseValuation:
        return theta.valuation_lower_bound(), False


def orbit_analyze(mapping: TupleSeries, theta0: PointTuple,
                  budget: int = 32, polynomial: bool = False) -> OrbitRecord:
    """Iterate a zero-fixed map and classify the orbit.

    Stops at the first certified repeat (periodic/preperiodic), at a
    certified collapse to zero at working precision (valuation escape), or
    when the iteration budget runs out.  For a noninvertible stable map the
    strict valuation increase of the orbit is checked at every step.
    ``polynomial`` asserts the map is exact (see ms_eval).
    """
    if budget < 0:
        raise BadArgument("budget must be >= 0")
    if mapping.num_vars != mapping.dim:
        raise MixedContext("orbit map must be d-in-d")
    if not mapping.constant_is_zero():
        raise MixedContext("orbit map must fix the origin")
    if not theta0.valuation_lower_bound() > 0:
        raise DivergentPoint("orbit start needs positive valuation")
    lam = jacobian(mapping)
    det = mat_det(lam)
    nonzero_lam = any(not x.is_zero for row in lam for x in row)
    noninvertible = det.is_zero or det.valuation() > 0
    check_increase = nonzero_lam and noninvertible

    record = OrbitRecord(start=theta0, status="inconclusive", budget=budget)
    record.iterates.append(theta0)
    record.valuations.append(_tuple_valuation_bound(theta0))
    if all(c.is_exact_zero for c in theta0.coords):
        # the origin is structurally fixed (the map has no constant term)
        record.status = "periodic"
        record.tail = 0
        record.period = 1
        return record
    points = [theta0]
    for k in range(1, budget + 1):
        nxt = ms_eval(mapping, points[-1], polynomial=polynomial).point()
        if all(c.is_zero for c in nxt.coords):
            record.status = "valuation-escape"
            record.escape_at = k
            record.escape_floor = min(c.precision_floor() for c in nxt.coords)
            return record
        bound, exact = _tuple_valuation_bound(nxt)
        if check_increase:
            prev_bound, prev_exact = record.valuations[-1]
            if exact and prev_exact and not bound > prev_bound:
                record.increase_violations.append(k)
        record.iterates.append(nxt)
        record.valuations.append((bound, exact))
        for j, old in enumerate(points):
            if nxt.same_at_working_precision(old):
                record.status = "periodic" if j == 0 else "preperiodic"
                record.tail = j
                record.period = k - j
                return record
        points.append(nxt)
    return record


# ---------------------------------------------------------------------------
# torsion probes
# ---------------------------------------------------------------------------

@dataclass
class TorsionRoot:
    point: ExtScalar
    simple: bool
    residual_floor: object     # certified valuation of [p^n]_F at the root


@dataclass
class TorsionLevelSet:
    """Certified roots of [p^n]_F found inside one declared extension."""

    level: int
    modulus: ExtensionModulus
    roots: list
    expected: object            # p^(h n) or INFINITE or None
    lift_failures: int
    verdict: str                # complete-in-extension | partial | unknown-height

    @property
    def multiplicity_free(self) -> bool:
        return all(r.simple for r in self.roots)

    def points(self):
        return [r.point for r in self.roots]

    def to_report(self) -> dict:
        return {
            "level": self.level,
            "count": len(self.roots),
            "expected": (None if self.expected is None
                         else str(self.expected)),
            "verdict": self.verdict,
            "multiplicity_free": self.multiplicity_free,
            "lift_failures": self.lift_failures,
            "roots": [
                {
                    "valuation": _fmt_val(r.point),
                    "simple": r.simple,
                    "residual_floor": str(r.residual_floor),
                }
                for r in self.roots
            ],
        }


def _fmt_val(x: ExtScalar) -> str:
    try:
        v = x.valuation()
    except ImpreciseValuation:
        return f">= {x.precision_floor()}"
    return "inf" if v == INFINITE else str(v)


def _poly_eval(coeffs, x: ExtScalar) -> ExtScalar:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs):
    return [c * k for k, c in enumerate(coeffs)][1:] or \
        [ExtScalar.zero(coeffs[0].modulus)]


def _poly_deflate(coeffs, r: ExtScalar):
    """Synthetic division by (x - r); returns quotient or None on failure."""
    q = [None] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        q[k] = carry
        carry = coeffs[k] + r * carry
    return q if carry.is_zero else None


def _newton_lift(coeffs, dcoeffs, x: ExtScalar, max_steps: int):
    """Newton iteration from a certified-contracting start; None on failure."""
    for _ in range(max_steps):
        gx = _poly_eval(coeffs, x)
        if gx.is_zero:
            return x
        gpx = _poly_eval(dcoeffs, x)
        if gpx.is_zero:
            return None
        try:
            step = gx / gpx
        except (DivisionByZero, PrecisionExhausted, ImpreciseValuation):
            return None
        x = x - step
    return x if _poly_eval(coeffs, x).is_zero else None


def _find_small_root(coeffs, modulus, digits, pi, cap_level, newton_steps):
    """One root of positive valuation by digit refinement, or None.

    Valuations are integers in powers of pi.  A branch prefix x at level L
    survives while v(G(x)) >= min(v(G'(x)) + L + 1, 2 (L + 1)) -- every
    true-root prefix does -- and resolves through Newton once v(G) >
    2 v(G') certifies a unique root in the ball.  Returns (root,
    failures_accumulated).
    """
    dcoeffs = _poly_derivative(coeffs)
    failures = 0
    branches = [ExtScalar.zero(modulus)]
    pi_power = pi
    for L in range(1, cap_level + 1):
        nxt = []
        for prefix in branches:
            for c in digits:
                cand = prefix if c.is_zero else prefix + c * pi_power
                gx = _poly_eval(coeffs, cand)
                if gx.is_zero:
                    return cand, failures
                gpx = _poly_eval(dcoeffs, cand)
                # v(G'(x)), or its floor when G'(x) is zero at its precision
                gpv = gpx.prec if gpx.val is None else gpx.val
                if gx.val < min(gpv + L + 1, 2 * (L + 1)):
                    continue    # no root can extend this prefix
                if gpx.val is not None and gx.val > 2 * gpv:
                    lifted = _newton_lift(coeffs, dcoeffs, cand, newton_steps)
                    if lifted is None:
                        failures += 1
                        continue
                    return lifted, failures
                nxt.append(cand)
        branches = nxt
        if not branches:
            break
        pi_power = pi_power * pi
    return None, failures + len(branches)


def torsion_probe_dim1(G: MultiSeries, level: int,
                       modulus: ExtensionModulus,
                       expected=None,
                       polynomial: bool = False) -> TorsionLevelSet:
    """Roots of [p^level]_F with positive valuation in a declared extension.

    The series is treated as a polynomial over the extension; each root
    found by digit refinement plus Newton lifting is deflated out by
    synthetic division so clustered roots sharing leading digits are all
    recovered.  Completeness is only ever claimed relative to the supplied
    extension; with ``polynomial=False`` each root's residual certificate
    additionally carries the truncation-tail bound (D+1) v(root).
    """
    if G.num_vars != 1:
        raise MixedContext("torsion probe works on 1-variable series")
    ctx = modulus.ctx
    e = modulus.ram_index
    pi = ExtScalar.uniformizer(modulus)
    if modulus.tag == "eisenstein":
        digits = [ExtScalar.from_poly(modulus, [c]) for c in range(ctx.p)]
    else:
        digits = [ExtScalar.from_poly(modulus, list(rep))
                  for rep in _residue_reps(ctx.p, modulus.res_degree)]
    cap_level = e * (ctx.abs_precision - 1)
    newton_steps = 2 * (ctx.abs_precision * e).bit_length() + 4

    original = [ExtScalar.zero(modulus)] * (G.degree() + 1)
    for (k,), c in G.ext_terms(modulus):
        original[k] = c
    deriv = _poly_derivative(original)
    work = original
    roots = []
    failures = 0
    while len(work) > 1:
        root, fails = _find_small_root(work, modulus, digits, pi, cap_level,
                                       newton_steps)
        failures += fails
        if root is None:
            break
        roots.append(root)
        deflated = _poly_deflate(work, root)
        if deflated is None:
            break
        work = deflated

    out = []
    for r in roots:
        resid = _poly_eval(original, r)
        if not resid.is_zero:
            failures += 1       # deflation artifact, not a certified root
            continue
        floor = resid.precision_floor()
        if not polynomial and not r.is_zero:
            tail = Fraction(G.ctx.degree_cap + 1) * Fraction(r.valuation())
            floor = min(floor, tail)
        gpx = _poly_eval(deriv, r)
        out.append(TorsionRoot(point=r, simple=not gpx.is_zero,
                               residual_floor=floor))
    if expected is None:
        verdict = "unknown-height"
    elif expected == INFINITE:
        verdict = "complete-in-extension" if len(out) == 1 else "partial"
    else:
        verdict = "complete-in-extension" if len(out) == expected else "partial"
    return TorsionLevelSet(level=level, modulus=modulus, roots=out,
                           expected=expected, lift_failures=failures,
                           verdict=verdict)


def _residue_reps(p: int, f: int):
    """Integer-coefficient representatives of the degree-f residue field."""
    reps = [()]
    for _ in range(f):
        reps = [r + (c,) for r in reps for c in range(p)]
    return [list(r) if any(r) else [0] for r in reps]


# ---------------------------------------------------------------------------
# intersection experiment
# ---------------------------------------------------------------------------

@dataclass
class IntersectionReport:
    level: int
    count_first: int
    count_second: int
    shared: list
    verdict: str

    def to_report(self) -> dict:
        return {
            "level": self.level,
            "count_first": self.count_first,
            "count_second": self.count_second,
            "shared_count": len(self.shared),
            "verdict": self.verdict,
        }


def intersection_probe(set_f: TorsionLevelSet, set_g: TorsionLevelSet,
                       laws_equal: bool | None = None) -> IntersectionReport:
    """Intersect two torsion level sets by certified equality."""
    shared = []
    for r in set_f.points():
        if any(r.same_at_working_precision(s) for s in set_g.points()):
            shared.append(r)
    if laws_equal is True:
        verdict = "identical laws: shared set is the full level set" \
            if len(shared) == len(set_f.roots) else \
            "identical laws but shared set incomplete (precision?)"
    elif laws_equal is False:
        verdict = ("distinct laws, finite observed intersection "
                   f"({len(shared)} points at this level)")
    else:
        verdict = "laws not compared"
    return IntersectionReport(
        level=set_f.level,
        count_first=len(set_f.roots),
        count_second=len(set_g.roots),
        shared=shared,
        verdict=verdict)
