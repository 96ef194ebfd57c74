"""Byte-identity goldens for extension-field arithmetic.

Every result is pinned by its precision floor and by the residue of each
coefficient modulo the precision that floor certifies for it, so any change
in the digits or in the certified precision of ``ExtScalar`` arithmetic
shows here, and a change of internal representation alone does not.  The cases: the roots of [9]_M in the
level-2 cyclotomic field at p=3, ``ms_eval`` of fixed 2-variable polynomials
at points of the p=5 base field and the e=4 and e=20 cyclotomic fields, and
one inverse and one quotient in each of those fields.

A change argued sound (and logged) rewrites the golden with ``render()``.
"""

import math
from fractions import Fraction
from pathlib import Path

from fglab.dynamics import torsion_probe_dim1
from fglab.errors import FglabError
from fglab.padic import ExtensionModulus, ExtScalar, PointTuple, PrecisionContext
from fglab.series import MultiSeries, ms_eval

from conftest import cyclotomic_modulus, ref_valuation

GOLDEN = Path(__file__).parent / "golden" / "ext_arith.txt"

#: fixed 5-term integer polynomials in two variables, total degree <= 8
POLYS = (
    {(1, 0): 1, (0, 1): 3, (2, 1): 7, (1, 3): -2, (4, 4): 11},
    {(1, 1): 5, (3, 0): -1, (0, 5): 2, (2, 2): 13, (6, 1): 4},
    {(0, 0): 1, (2, 0): 25, (0, 3): -6, (5, 2): 9, (1, 7): 1},
)


def _residue(c: Fraction, k: int, p: int) -> str:
    """c modulo p^k, written r or r/p^j with r an integer in [0, p^(k+j))."""
    if c == 0 or ref_valuation(c, p) >= k:
        return "0"
    j = max(0, -ref_valuation(c, p))
    scaled = c * p ** j
    r = scaled.numerator * pow(scaled.denominator, -1, p ** (k + j)) \
        % p ** (k + j)
    return str(r) if j == 0 else f"{r}/{p}^{j}"


def _state(x: ExtScalar) -> str:
    """The floor F, then coefficient i modulo p^ceil(F - i v(t)): the digits
    F certifies for it, whatever precision the coefficient stores."""
    floor = x.precision_floor()
    mod = x.modulus
    if floor == math.inf:
        return "floor=inf: " + " ".join("0" for _ in range(mod.degree))
    step = Fraction(1 if mod.tag == "eisenstein" else 0, mod.ram_index)
    p = mod.ctx.p
    return f"floor={floor}: " + " ".join(
        _residue(c.lift(), math.ceil(floor - i * step), p)
        for i, c in enumerate(x.coeffs))


def _torsion_lines():
    ctx = PrecisionContext(3, 14, 12)
    G = MultiSeries.from_terms(
        ctx, 1, {(k,): math.comb(9, k) for k in range(1, 10)})
    ts = torsion_probe_dim1(G, 2, cyclotomic_modulus(ctx, 2), expected=9,
                            polynomial=True)
    lines = [f"torsion p=3 level=2 N=14 D=12 verdict={ts.verdict} "
             f"failures={ts.lift_failures} roots={len(ts.roots)}"]
    for r in ts.roots:
        lines.append(f"  root simple={r.simple} "
                     f"residual={r.residual_floor} {_state(r.point)}")
    return lines


def _p5_fields():
    ctx = PrecisionContext(5, 20, 8)
    return ctx, (("base", ExtensionModulus.base(ctx)),
                 ("e=4", cyclotomic_modulus(ctx, 1)),
                 ("e=20", cyclotomic_modulus(ctx, 2)))


def _field_lines():
    ctx, fields = _p5_fields()
    lines = []
    for name, mod in fields:
        pi = ExtScalar.uniformizer(mod)
        point = PointTuple([pi * 3 + pi * pi, pi * pi * 2 - pi ** 3])
        for k, terms in enumerate(POLYS):
            f = MultiSeries.from_terms(ctx, 2, terms)
            for poly in (True, False):
                head = f"eval {name} f{k} polynomial={poly}"
                try:
                    res = ms_eval(f, point, polynomial=poly)
                except FglabError as exc:
                    lines.append(f"{head} raises {type(exc).__name__}: {exc}")
                    continue
                lines.append(f"{head} tail={res.tail_valuation} "
                             f"{_state(res.value)}")
        x = pi * pi * (pi * 4 + 3)
        y = pi + 2
        lines.append(f"inverse {name} {_state(x.inverse())}")
        lines.append(f"div {name} {_state(y / x)}")
    return lines


def render() -> str:
    return "\n".join(_torsion_lines() + _field_lines()) + "\n"


def test_extension_arithmetic_goldens():
    assert render() == GOLDEN.read_text(), \
        f"{GOLDEN.name} drifted from its golden bytes"

