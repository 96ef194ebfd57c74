"""Command-line driver: build, validate, reconstruct, probe, serialize.

All diagnostics go to stderr, data to stdout or --out files.  Failures map
to documented exit codes so scripts can dispatch without scraping text:

    0   success
    1   usage or unclassified error (BadArgument: a flag value outside its
        domain, or a file that cannot be read or written)
    2   malformed command line (argparse prints the usage)
    10  AxiomViolation
    11  SingularStep
    12  PrecisionExhausted
    13  ParseError
    14  VersionMismatch
    15  NotInvertible
    16  NotEndomorphism
    17  DivergentPoint
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .commutant import commutant_reconstruct, group_from_jacobian, stability_classify
from .dynamics import (
    copolygon_build_eval,
    intersection_probe,
    orbit_analyze,
    torsion_probe_dim1,
    valuation_bound_check,
)
from .errors import (
    AxiomViolation,
    BadArgument,
    DivergentPoint,
    FglabError,
    NotEndomorphism,
    NotInvertible,
    ParseError,
    PrecisionExhausted,
    SingularStep,
    VersionMismatch,
)
from .formal_group import (
    FormalGroupLaw,
    LubinTate2Params,
    fg_multiplication_map,
    fg_negation,
    fg_validate,
    height_and_kernel_count,
    lt2_build,
    lt2_min_precision,
)
from .padic import INFINITE, ExtScalar, PointTuple, PrecisionContext
from .series import MultiSeries, TupleSeries
from .serialize import parse, parse_extension, serialize

EXIT_CODES = (
    (AxiomViolation, 10),
    (SingularStep, 11),
    (PrecisionExhausted, 12),
    (ParseError, 13),
    (VersionMismatch, 14),
    (NotInvertible, 15),
    (NotEndomorphism, 16),
    (DivergentPoint, 17),
)


def _emit(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise BadArgument(f"cannot write {out}: {exc.strerror}") from None


def _report(data: dict, fmt: str, out: str | None):
    if fmt == "machine":
        _emit(json.dumps(data, sort_keys=True, indent=None,
                         separators=(",", ":")), out)
    else:
        lines = []
        for key in data:
            lines.append(f"{key}: {data[key]}")
        _emit("\n".join(lines), out)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise BadArgument(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(0, f"{path} is not a text document") from None


def _as_tuple(obj) -> TupleSeries:
    if isinstance(obj, FormalGroupLaw):
        return obj.law
    if isinstance(obj, MultiSeries):
        return TupleSeries([obj])
    return obj


def _load_tuple(path: str) -> TupleSeries:
    return _as_tuple(parse(_read(path)))


def _load_group(path: str) -> FormalGroupLaw:
    """The group law of any series document, its axioms checked afresh:
    ``parse`` validates a group-law document, and any other document is
    validated here (AxiomViolation for a false law)."""
    obj = parse(_read(path))
    if isinstance(obj, FormalGroupLaw):
        return obj
    return fg_validate(_as_tuple(obj))


def _rationals(spec: str, flag: str) -> list:
    """The comma- or space-separated rationals of one flag value."""
    try:
        return [Fraction(tok) for tok in spec.replace(",", " ").split()]
    except (ValueError, ZeroDivisionError):
        raise BadArgument(f"{flag}: {spec!r} is not a list of rationals") \
            from None


def _parse_matrix(spec: str, flag: str):
    rows = []
    for chunk in spec.split(";"):
        rows.append(_rationals(chunk, flag))
    return rows


def _parse_point(spec: str, modulus) -> PointTuple:
    coords = []
    for chunk in spec.split(";"):
        coeffs = _rationals(chunk, "--point")
        coords.append(ExtScalar.from_poly(modulus, coeffs or [0]))
    return PointTuple(coords)


def _fmt_val(v) -> str:
    return "inf" if v == INFINITE else str(v)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    ``parse_args`` makes a fresh namespace each time, and no default is
    mutable."""
    ap = argparse.ArgumentParser(
        prog="fglab",
        description="exact p-adic formal groups and nonarchimedean dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", default=None,
                        help="output path ('-' for stdout)")

    def add_fmt(sp):
        """--out, and --format for a command that prints a report."""
        sp.add_argument("--format", choices=("table", "machine"),
                        default="table")
        add_out(sp)

    sp = sub.add_parser("build-lt2", help="2-dimensional Lubin-Tate build")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--h1", type=int, required=True)
    sp.add_argument("--h2", type=int, required=True)
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--precision", type=int, default=None)
    sp.add_argument("--out-group", default=None)
    sp.add_argument("--out-log", default=None)
    sp.add_argument("--out-mulp", default=None)
    add_fmt(sp)

    sp = sub.add_parser("validate-group", help="check the group-law axioms")
    sp.add_argument("--in", dest="infile", required=True)
    add_fmt(sp)

    sp = sub.add_parser("negation", help="negation series of a group law")
    sp.add_argument("--in", dest="infile", required=True)
    add_out(sp)

    sp = sub.add_parser("mul-map", help="[a]_F multiplication series")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--a", required=True,
                    help="integer or rational in Z_p (e.g. 3 or 1/7)")
    add_out(sp)

    sp = sub.add_parser("reconstruct",
                        help="commuting series from its Jacobian at 0")
    sp.add_argument("--u", required=True, help="tuple-series document")
    sp.add_argument("--j0", required=True, help="matrix 'a,b;c,d'")
    add_out(sp)

    sp = sub.add_parser("group-from-jacobian",
                        help="two-block reconstruction (group law from u)")
    sp.add_argument("--u", required=True)
    sp.add_argument("--bx", default=None, help="X-block matrix (default Id)")
    sp.add_argument("--by", default=None, help="Y-block matrix (default Id)")
    add_out(sp)

    sp = sub.add_parser("stability", help="stability classification")
    sp.add_argument("--u", required=True)
    add_fmt(sp)

    sp = sub.add_parser("copolygon", help="Newton copolygon evaluation")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--xi", required=True, help="rational pair 'a,b'")
    add_fmt(sp)

    sp = sub.add_parser("bound-check", help="copolygon valuation bound")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--extension", required=True)
    sp.add_argument("--point", required=True)
    add_fmt(sp)

    sp = sub.add_parser("orbit", help="orbit analysis of a point")
    sp.add_argument("--map", dest="mapfile", required=True)
    sp.add_argument("--extension", required=True)
    sp.add_argument("--point", required=True)
    sp.add_argument("--budget", type=int, default=32)
    sp.add_argument("--polynomial", action="store_true",
                    help="assert the map document is an exact polynomial")
    add_fmt(sp)

    sp = sub.add_parser("torsion", help="torsion level set in an extension")
    sp.add_argument("--group", required=True)
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--extension", required=True)
    add_fmt(sp)

    sp = sub.add_parser("intersect", help="shared torsion of two laws")
    sp.add_argument("--group", required=True)
    sp.add_argument("--group2", required=True)
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--extension", required=True)
    add_fmt(sp)

    sp = sub.add_parser("height", help="height and kernel order")
    sp.add_argument("--group", required=True)
    sp.add_argument("--level", type=int, default=1)
    add_fmt(sp)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except FglabError as exc:
        sys.stderr.write(f"fglab: {exc}\n")
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "build-lt2":
        D = args.degree if args.degree is not None \
            else args.p ** (args.h1 + args.h2)
        N = args.precision if args.precision is not None \
            else lt2_min_precision(args.h1, args.h2, args.p, D)
        ctx = PrecisionContext(args.p, N, D)
        res = lt2_build(LubinTate2Params(args.h1, args.h2, ctx))
        if args.out_group:
            _emit(serialize(res.group), args.out_group)
        if args.out_log:
            _emit(serialize(res.log, kind="tuple"), args.out_log)
        if args.out_mulp:
            _emit(serialize(res.mul_p.series, kind="endo"), args.out_mulp)
        report = dict(res.congruences)
        report.update({
            "p": args.p, "h1": args.h1, "h2": args.h2,
            "degree": D, "precision": N,
            "certified_degree": res.group.certificate.degree,
            "commutative": res.group.certificate.commutative,
        })
        _report(report, args.format, args.out)
        return 0

    if cmd == "validate-group":
        law = _load_group(args.infile)
        cert = law.certificate
        _report({
            "dimension": law.dimension,
            "certified_degree": cert.degree,
            "axioms": " ".join(cert.axioms),
            "commutative": cert.commutative,
        }, args.format, args.out)
        return 0

    if cmd == "negation":
        law = _load_group(args.infile)
        iota = fg_negation(law)
        _emit(serialize(iota, kind="tuple"), args.out)
        return 0

    if cmd == "mul-map":
        law = _load_group(args.infile)
        a = _rationals(args.a, "--a")
        if len(a) != 1:
            raise BadArgument(f"--a: {args.a!r} is not one rational")
        endo = fg_multiplication_map(law, a[0])
        _emit(serialize(endo.series, kind="endo"), args.out)
        return 0

    if cmd == "reconstruct":
        u = _load_tuple(args.u)
        trace = commutant_reconstruct(u, _parse_matrix(args.j0, "--j0"))
        _emit(serialize(trace.series, kind="tuple"), args.out)
        steps = "; ".join(
            f"deg {d}: det-val {_fmt_val(v)}, correction-val "
            + ("-" if w is None else str(w))
            for d, v, w in trace.steps)
        sys.stderr.write(f"fglab: reconstruction trace: {steps}\n")
        return 0

    if cmd == "group-from-jacobian":
        u = _load_tuple(args.u)
        d = u.dim
        ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        bx = _parse_matrix(args.bx, "--bx") if args.bx else ident
        by = _parse_matrix(args.by, "--by") if args.by else ident
        H = group_from_jacobian(u, bx, by)
        _emit(serialize(H, kind="tuple"), args.out)
        return 0

    if cmd == "stability":
        u = _load_tuple(args.u)
        verdict = stability_classify(u)
        _report({
            "stable": verdict.stable,
            "reason": verdict.reason,
            "order": verdict.order,
            "degree": verdict.degree,
        }, args.format, args.out)
        return 0

    if cmd == "copolygon":
        f = _load_tuple(args.infile)[0]
        xi = _rationals(args.xi, "--xi")
        if len(xi) != 2:
            raise BadArgument("--xi: expected a rational pair 'a,b'")
        value, achieving = copolygon_build_eval(f, xi)
        _report({
            "value": str(value),
            "achieving": " ".join(f"({i},{j})" for i, j in sorted(achieving)),
        }, args.format, args.out)
        return 0

    if cmd == "bound-check":
        f = _load_tuple(args.infile)[0]
        modulus = parse_extension(_read(args.extension), f.ctx)
        theta = _parse_point(args.point, modulus)
        rep = valuation_bound_check(f, theta)
        _report({
            "value_valuation": None if rep.value_valuation is None
            else str(rep.value_valuation),
            "value_floor": _fmt_val(rep.value_floor),
            "copolygon_value": str(rep.copolygon_value),
            "holds": rep.holds,
            "strict": rep.strict,
        }, args.format, args.out)
        return 0

    if cmd == "orbit":
        mapping = _load_tuple(args.mapfile)
        modulus = parse_extension(_read(args.extension), mapping.ctx)
        theta = _parse_point(args.point, modulus)
        rec = orbit_analyze(mapping, theta, budget=args.budget,
                            polynomial=args.polynomial)
        _report(rec.to_report(), args.format, args.out)
        return 0

    if cmd == "torsion":
        law = _load_group(args.group)
        rep, _ = _torsion_set(law, args.level, args.extension)
        _report(rep.to_report(), args.format, args.out)
        return 0

    if cmd == "intersect":
        law1 = _load_group(args.group)
        law2 = _load_group(args.group2)
        set1, _ = _torsion_set(law1, args.level, args.extension)
        set2, _ = _torsion_set(law2, args.level, args.extension)
        equal = law1.law.same_at_working_precision(law2.law)
        rep = intersection_probe(set1, set2, laws_equal=equal)
        _report(rep.to_report(), args.format, args.out)
        return 0

    if cmd == "height":
        law = _load_group(args.group)
        h = height_and_kernel_count(law, args.level)
        _report({
            "height": _fmt_val(h.height),
            "level": h.level,
            "kernel_order": _fmt_val(h.kernel_order),
        }, args.format, args.out)
        return 0

    raise FglabError(f"unknown command {cmd!r}")


def _torsion_set(law, level, extension_path):
    if law.dimension != 1:
        raise FglabError("torsion probes support dimension 1")
    modulus = parse_extension(_read(extension_path), law.ctx)
    p = law.ctx.p
    mulp = fg_multiplication_map(law, p).series
    h = height_and_kernel_count(law, level, mul_p=mulp)
    G = mulp if level == 1 else fg_multiplication_map(law, p ** level).series
    ts = torsion_probe_dim1(G[0], level, modulus, expected=h.kernel_order)
    return ts, h


if __name__ == "__main__":
    sys.exit(main())
