"""The four benchmark workloads, built from a seed.

Each builder returns the op list of one pass.  An op's ``run`` is the timed
call into fglab; its ``check`` runs untimed afterwards, compares the output
with an independent oracle (see oracle.py) and returns the certified digits
the output carries.  Library functions are always looked up on their module
at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import fglab.cli as cli
import fglab.commutant as cm
import fglab.dynamics as dy
import fglab.errors as errors
import fglab.formal_group as fg
import fglab.padic as padic
import fglab.series as series

import oracle
from oracle import INF

# the package re-exports the function fglab.serialize.serialize under the
# module's own name, so ``import fglab.serialize as ...`` yields the function
ser = importlib.import_module("fglab.serialize")

#: exit codes documented in the fglab CLI module docstring, success excluded
DOCUMENTED_FAILURE_CODES = {1, 10, 11, 12, 13, 14, 15, 16, 17}

#: fixed seed for the shapes of random inputs (which monomials are present);
#: the workload seed draws the values, so a pass costs about the same on
#: every workload seed and the latency percentiles stay put
SHAPES_SEED = 20230601


class Mismatch(Exception):
    """An output disagrees with its oracle."""

    def __init__(self, kind: str, message: str):
        self.kind = kind        # wrong-output | refuted-claim | ...
        super().__init__(message)


def require(cond, message, kind="wrong-output"):
    if not cond:
        raise Mismatch(kind, message)


class Op:
    """One timed call.  ``valid`` is False for deliberately malformed input;
    ``once`` is True for an op too long to run in every pass."""

    __slots__ = ("name", "run", "check", "expect", "valid", "once")

    def __init__(self, name, run, check=None, expect=None, valid=True,
                 once=False):
        self.name = name
        self.run = run            # state -> output
        self.check = check        # (state, output) -> certified digits
        self.expect = expect      # FglabError subclass the call must raise
        self.valid = valid
        self.once = once


# ---------------------------------------------------------------------------
# lt2-build: dense 2-, 4- and 6-variable series work
# ---------------------------------------------------------------------------

LT2_CONFIGS = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 1, 3), (3, 1, 2))
# the (2,1,3) and (3,1,2) ops take seconds and half a minute: they run in
# the first pass only, the sub-second ones in every pass
LT2_LONG = ((2, 1, 3), (3, 1, 2))
IDENT2 = [[1, 0], [0, 1]]


def _check_lt2(key, out, golden):
    p, h1, h2 = key
    res, H = out
    law = res.group.law
    require(res.group.certificate.degree == p ** (h1 + h2), "certificate degree")
    require(res.congruences["linear_part_is_p_times_identity"]
            and res.congruences["frobenius_shape_mod_p"], "congruences")
    if key == (2, 1, 1):
        require(ser.serialize(res.group) == golden,
                "(2,1,1) law differs from tests/golden/lt2_p2_h11_group.doc")
    # height and kernel order from [p]_F mod p: each component is one
    # monomial, and the kernel order is the exponent lattice's index
    shape = []
    for comp in res.mul_p.series.components:
        red = {e: c.numerator * pow(c.denominator, -1, p) % p
               for e, c in oracle.series_terms(comp).items()}
        red = {e: r for e, r in red.items() if r}
        require(len(red) == 1, "[p]_F mod p is not a monomial")
        shape.append(next(iter(red)))
    order = abs(shape[0][0] * shape[1][1] - shape[0][1] * shape[1][0])
    require(order == p ** (h1 + h2), f"kernel order {order}")
    # group_from_jacobian([p]_F) reproduces F at their common floor
    k = min(oracle.tuple_floor(H), oracle.tuple_floor(law))
    for hc, fc in zip(H.components, law.components):
        require(oracle.agree_mod(oracle.series_terms(hc),
                                 oracle.series_terms(fc), p, k),
                "group_from_jacobian does not reproduce F")
    return oracle.tuple_floor(law) + oracle.tuple_floor(H)


def lt2_build_ops(seed, root, workdir):
    golden = (root / "tests" / "golden" / "lt2_p2_h11_group.doc").read_text()
    ops = []
    for key in LT2_CONFIGS:
        def build_and_reconstruct(state, key=key):
            p, h1, h2 = key
            D = p ** (h1 + h2)
            N = fg.lt2_min_precision(h1, h2, p, D)
            ctx = padic.PrecisionContext(p, N, D)
            res = fg.lt2_build(fg.LubinTate2Params(h1, h2, ctx))
            return res, cm.group_from_jacobian(res.mul_p.series, IDENT2, IDENT2)

        ops.append(Op(f"lt2_build + group_from_jacobian {key}",
                      build_and_reconstruct,
                      lambda state, out, key=key: _check_lt2(key, out, golden),
                      once=key in LT2_LONG))
    return ops


# ---------------------------------------------------------------------------
# inverse: many small sparse compositions
# ---------------------------------------------------------------------------

INVERSE_PRIMES = (2, 3, 5)
# invertible tuples per prime for d = 1, 2, 3: the median op falls in the
# middle of the d = 2 ops and p90 in the middle of the d = 3 ops, away from
# the jumps in cost between dimensions
INVERSE_PER_DIM = {1: 3, 2: 12, 3: 4}
INVERSE_N, INVERSE_D = 20, 8
NOISE_TERMS = 4           # monomials of degree >= 2 per component
SINGULAR = ((2, 1), (3, 2), (5, 3))   # (p, d) of the non-invertible tuples


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def _random_tuple(p, d, rng, shapes, singular):
    """Acceptance-2-style tuple: a linear part with unit (or, if singular,
    non-unit) determinant, plus noise monomials with exponents up to 3.

    ``shapes`` picks which monomials carry noise and ``rng`` every value.
    Passing a fixed-seed ``shapes`` keeps the cost of a pass nearly the same
    on every workload seed; so do a linear part without zero entries and the
    same number of noise terms in every component.
    """
    while True:
        rows = [[rng.randint(1, p * p) for _ in range(d)] for _ in range(d)]
        if singular == (_det(rows) % p == 0):
            break
    noise = [e for e in itertools.product(range(4), repeat=d) if sum(e) >= 2]
    comps = []
    for row in rows:
        terms = {tuple(int(k == j) for k in range(d)): c
                 for j, c in enumerate(row)}
        for exps in shapes.sample(noise, min(NOISE_TERMS, len(noise))):
            terms[exps] = rng.choice([c for c in range(-8, 9) if c])
        comps.append(terms)
    return comps


def _check_round_trip(out, terms, p, d):
    """h(h^-1) = X in a dict-based composition modulo p^floor, and both
    measured round trips exactly X."""
    hinv, left, right = out
    k = oracle.tuple_floor(hinv)
    inner = [oracle.to_residues(oracle.series_terms(c), p, k)
             for c in hinv.components]
    got = oracle.poly_compose(terms, inner, INVERSE_D, p ** k)
    ident = oracle.identity_terms(d)
    for comp, want in zip(got, ident):
        require(comp == want, f"h(h^-1) != X mod p^{k}", "refuted-claim")
    for t in (left, right):
        for comp, want in zip(t.components, ident):
            require(oracle.series_terms(comp) == want, "round trip is not X")
    return k


def inverse_ops(seed, root, workdir):
    rng, shapes = random.Random(seed), random.Random(SHAPES_SEED)
    ops = []
    for p in INVERSE_PRIMES:
        ctx = padic.PrecisionContext(p, INVERSE_N, INVERSE_D)
        for d in (1, 2, 3):
            cell = [False] * INVERSE_PER_DIM[d] + [True] * ((p, d) in SINGULAR)
            for i, singular in enumerate(cell):
                terms = _random_tuple(p, d, rng, shapes, singular)
                h = series.TupleSeries(
                    [series.MultiSeries.from_terms(ctx, d, t) for t in terms])
                tag = f"p={p} d={d} #{i}"
                if singular:
                    ops.append(Op(f"inverse {tag} (det J0 not a unit)",
                                  lambda state, h=h:
                                  series.compositional_inverse(h),
                                  expect=errors.NotInvertible))
                    continue

                def round_trip(state, h=h):
                    hinv = series.compositional_inverse(h)
                    return (hinv, series.tuple_compose(h, hinv),
                            series.tuple_compose(hinv, h))

                ops.append(Op(f"inverse {tag}", round_trip,
                              lambda state, out, terms=terms, p=p, d=d:
                              _check_round_trip(out, terms, p, d)))
    return ops


# ---------------------------------------------------------------------------
# torsion: extension-field arithmetic, evaluation and root refinement
# ---------------------------------------------------------------------------

TORSION_PROBES = ((3, 2, 12), (2, 3, 8), (5, 1, 8))   # (p, level, degree cap)


def _bound_samples(e):
    """Bound checks per (prime, field): fewer in the four cheapest, e = 1
    fields, so that the median op falls in the middle of the e = 2 checks
    and p90 in the middle of the e = 20 checks, away from cost jumps."""
    return 50 if e == 1 else 60


def _binomial_poly(ctx, a):
    """[a]_M = (1 + x)^a - 1 for the multiplicative law, as fglab input."""
    return series.MultiSeries.from_terms(
        ctx, 1, oracle.binomial_series(a, ctx.degree_cap))


def _cyclotomic(ctx, level):
    coeffs = oracle.cyclotomic_modulus(ctx.p, level)
    return (padic.ExtensionModulus(ctx, coeffs, "eisenstein"),
            oracle.Ring(ctx.p, coeffs, eisenstein=True))


def _check_torsion(ts, p, level):
    """Root count, closed-form valuations, residual claims, [1+p] action."""
    require(ts.verdict == "complete-in-extension", ts.verdict)
    require(len(ts.roots) == p ** level and ts.multiplicity_free,
            f"{len(ts.roots)} roots")
    ring = oracle.Ring(p, oracle.cyclotomic_modulus(p, level), eisenstein=True)
    reps = [oracle.ext_to_ints(r.point) for r in ts.roots]
    # zeta - 1 for zeta of exact order p^k has valuation 1/(p^(k-1)(p-1))
    want = [INF] + [Fraction(1, p ** (k - 1) * (p - 1))
                    for k in range(1, level + 1)
                    for _ in range(p ** k - p ** (k - 1))]
    got = [ring.valuation(r) for r in reps]
    require(sorted(got) == sorted(want), "root valuations")
    one = ring.const(1)
    digits = 0
    for r, root in zip(reps, ts.roots):
        resid = ring.sub(ring.power(ring.add(one, r), p ** level), one)
        require(ring.valuation(resid) >= root.residual_floor,
                "residual floor refuted", "refuted-claim")
        if root.residual_floor != INF:      # the root 0 is exact
            digits += root.residual_floor
    # [1+p]_M permutes the roots; distinct torsion points differ by
    # valuation at most 1, so a match at valuation >= 2 is unambiguous
    images = []
    for r in reps:
        img = ring.sub(ring.power(ring.add(one, r), 1 + p), one)
        hits = [j for j, s in enumerate(reps)
                if ring.valuation(ring.sub(img, s)) >= 2]
        require(len(hits) == 1, "[1+p]_M image matches no unique root")
        images.append(hits[0])
    require(sorted(images) == list(range(len(reps))),
            "[1+p]_M does not permute the roots")
    return digits


BOUND_TERMS = 5


def _random_bound_series(p, rng, shapes):
    """Acceptance-6-style 2-variable integer polynomial with BOUND_TERMS
    terms; ``shapes`` picks the monomials and ``rng`` the coefficients."""
    support = set()
    while len(support) < BOUND_TERMS:
        exps = (shapes.randint(0, 4), shapes.randint(0, 4))
        if sum(exps) <= 8:
            support.add(exps)
    terms = {}
    for exps in sorted(support):
        c = rng.randint(1, p ** 3) * p ** rng.randint(0, 2)
        terms[exps] = -c if rng.random() < 0.4 else c
    return terms


def _check_bound(rep, terms, point, ring):
    p = ring.p
    v = [ring.valuation(x) for x in point]
    V = min(i * v[0] + j * v[1] + oracle.vp_int(c, p)
            for (i, j), c in terms.items())
    exact = ring.valuation(ring.eval_poly(terms, point))
    require(rep.copolygon_value == V, "copolygon value")
    require(exact >= V, "oracle disagrees with the copolygon bound")
    require(rep.holds, "bound reported as failing")
    if rep.value_valuation is not None:
        require(rep.value_valuation == exact, "value valuation",
                "refuted-claim")
    else:
        require(rep.value_floor <= exact, "value floor refuted",
                "refuted-claim")
    return 0


def _check_escape(rec, p):
    require(rec.status == "valuation-escape" and rec.escape_at == 2,
            "escape of zeta_(p^2) - 1")
    require(rec.valuations == [(Fraction(1, p * (p - 1)), True),
                               (Fraction(1, p - 1), True)],
            "orbit valuations")
    require(rec.increase_violations == [], "increase violations")
    return 0


def _check_fixed(rec):
    require(rec.status == "periodic" and rec.period == 1 and rec.tail == 0,
            "zeta_p - 1 fixed by [1+p]_M")
    return 0


def _check_invertible(rec):
    if rec.status in ("periodic", "preperiodic"):
        require(rec.tail == 0, "invertible map with a tail")
    return 0


def torsion_ops(seed, root, workdir):
    rng, shapes = random.Random(seed), random.Random(SHAPES_SEED)
    ops = []
    for p, level, D in TORSION_PROBES:
        ctx = padic.PrecisionContext(p, 14, D)
        G = _binomial_poly(ctx, p ** level)
        mod, _ = _cyclotomic(ctx, level)
        ops.append(Op(f"torsion p={p} level={level}",
                      lambda state, G=G, mod=mod, level=level, p=p:
                      dy.torsion_probe_dim1(G, level, mod, expected=p ** level,
                                            polynomial=True),
                      lambda state, ts, p=p, level=level:
                      _check_torsion(ts, p, level)))

    ctx5 = padic.PrecisionContext(5, 14, 8)
    mod5, _ = _cyclotomic(ctx5, 1)
    mul5, add5 = _binomial_poly(ctx5, 5), \
        series.MultiSeries.from_terms(ctx5, 1, {(1,): 5})

    def intersect(state):
        ts_m = dy.torsion_probe_dim1(mul5, 1, mod5, expected=5,
                                     polynomial=True)
        ts_a = dy.torsion_probe_dim1(add5, 1, mod5, expected=padic.INFINITE,
                                     polynomial=True)
        return (dy.intersection_probe(ts_m, ts_m, laws_equal=True),
                dy.intersection_probe(ts_m, ts_a, laws_equal=False))

    def check_intersect(state, out):
        same, cross = out
        require(len(same.shared) == 5 and same.count_first == 5, "M with M")
        require(len(cross.shared) == 1 and not any(
            oracle.ext_to_ints(cross.shared[0])), "M with A shares only 0")
        return 0

    ops.append(Op("intersection p=5", intersect, check_intersect))

    for p in (2, 3, 5):
        ctx = padic.PrecisionContext(p, 14, 8)
        mulp = series.TupleSeries([_binomial_poly(ctx, p)])
        unit = series.TupleSeries([_binomial_poly(ctx, 1 + p)])
        pi2 = padic.PointTuple([padic.ExtScalar.from_poly(
            _cyclotomic(ctx, 2)[0], [0, 1])])
        pi1 = padic.PointTuple([padic.ExtScalar.from_poly(
            _cyclotomic(ctx, 1)[0], [0, 1])])
        ops.append(Op(f"orbit [p]_M p={p}",
                      lambda state, m=mulp, x=pi2: dy.orbit_analyze(
                          m, x, budget=8, polynomial=True),
                      lambda state, rec, p=p: _check_escape(rec, p)))
        ops.append(Op(f"orbit [1+p]_M p={p}",
                      lambda state, m=unit, x=pi1: dy.orbit_analyze(
                          m, x, budget=6, polynomial=True),
                      lambda state, rec: _check_fixed(rec)))
    pi1 = padic.PointTuple([padic.ExtScalar.from_poly(mod5, [0, 1])])
    minus_one = series.TupleSeries([series.MultiSeries.from_terms(
        ctx5, 1, {(k,): (-1) ** k for k in range(1, 9)})])
    for name, mapping, poly in (
            ("-1", minus_one, False),
            ("6", series.TupleSeries([_binomial_poly(ctx5, 6)]), True),
            ("2", series.TupleSeries([_binomial_poly(ctx5, 2)]), True)):
        ops.append(Op(f"orbit [{name}]_M p=5",
                      lambda state, m=mapping, poly=poly: dy.orbit_analyze(
                          m, pi1, budget=24, polynomial=poly),
                      lambda state, rec: _check_invertible(rec)))

    for p in (2, 3, 5):
        ctx = padic.PrecisionContext(p, 20, 8)
        fields = [(padic.ExtensionModulus.base(ctx),
                   oracle.Ring(p, [-1, 1], eisenstein=False))]
        fields += [_cyclotomic(ctx, level) for level in (1, 2)]
        for mod, ring in fields:
            pi = ring.uniformizer()
            # the point valuations (a/e, b/e) run over a fixed lattice in
            # 1..e, since they set most of an evaluation's cost; the seed
            # draws the series and the units
            for i in range(_bound_samples(ring.e)):
                a, b = 1 + i % ring.e, 1 + 7 * i % ring.e
                terms = _random_bound_series(p, rng, shapes)
                f = series.MultiSeries.from_terms(ctx, 2, terms)
                u1 = 1 + p * rng.randint(0, 3)
                u2 = 1 + p * rng.randint(0, 2)
                point = [ring.mul(ring.power(pi, a), ring.const(u1)),
                         ring.mul(ring.power(pi, b), ring.const(u2))]
                theta = padic.PointTuple(
                    [padic.ExtScalar.from_poly(mod, x) for x in point])
                ops.append(Op(
                    f"bound p={p} e={ring.e}",
                    lambda state, f=f, theta=theta:
                    dy.valuation_bound_check(f, theta, polynomial=True),
                    lambda state, rep, t=terms, x=point, r=ring:
                    _check_bound(rep, t, x, r)))
    return ops


# ---------------------------------------------------------------------------
# cli-docs: documents written and read back through the CLI
# ---------------------------------------------------------------------------

def run_cli(argv):
    """fglab.cli.main in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _report(out):
    code, stdout, stderr = out
    require(code == 0, f"exit {code}: {stderr.strip()[:200]}")
    return json.loads(stdout) if stdout.strip() else None


def _check_doc_against(path, want_list, p, extra_floor=INF):
    """A written document agrees with closed-form terms at its floor."""
    doc = oracle.read_document(path.read_text())
    k = min(oracle.document_floor(doc), extra_floor)
    for (_, terms), want in zip(doc["components"], want_list):
        require(oracle.agree_mod(terms, want, p, k), f"{path.name} terms")
    return oracle.document_floor(doc)


def _triple(F, cap):
    """[3]_F = F(F(X, X), X) of a 2-dimensional law, exactly."""
    X = [{(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}]
    two = oracle.poly_compose(F, X + X, cap)
    return oracle.poly_compose(F, two + X, cap)


def cli_docs_ops(seed, root, workdir):
    rng = random.Random(seed)
    w = workdir
    golden = (root / "tests" / "golden" / "lt2_p2_h11_group.doc").read_text()
    ctx5 = padic.PrecisionContext(5, 12, 8)
    M5, A5 = fg.multiplicative_law(ctx5), fg.additive_law(ctx5)
    cyc = oracle.cyclotomic_modulus(5, 1)
    ring = oracle.Ring(5, cyc, eisenstein=True)
    mod5 = padic.ExtensionModulus(ctx5, cyc, "eisenstein")
    f_terms = _random_bound_series(5, rng, random.Random(SHAPES_SEED))
    f5 = series.MultiSeries.from_terms(ctx5, 2, f_terms)
    m_terms = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    pi = ring.uniformizer()
    points = []
    # the point valuations are fixed, as in the torsion bound checks, since
    # they set most of the cost; the seed draws the units
    for a, b in ((1, 3), (4, 2)):
        points.append([ring.mul(ring.power(pi, a),
                                ring.const(1 + 5 * rng.randint(0, 3))),
                       ring.mul(ring.power(pi, b),
                                ring.const(1 + 5 * rng.randint(0, 2)))])
    xis = ["1,1", f"{rng.randint(1, 5)}/{rng.randint(1, 4)},"
                  f"{rng.randint(1, 5)}/{rng.randint(1, 4)}"]
    ops = []

    def add(name, argv, check, valid=True):
        ops.append(Op(name, lambda state, argv=argv: run_cli(argv),
                      check, valid=valid))

    def write(name, path, make, check):
        def run(state):
            text = make()
            path.write_text(text)
            return text
        ops.append(Op(name, run, check))

    # -- writers ------------------------------------------------------------
    def check_build(state, out):
        rep = _report(out)
        require(rep["linear_part_is_p_times_identity"]
                and rep["frobenius_shape_mod_p"]
                and rep["certified_degree"] == 4, "build report")
        require((w / "g.doc").read_text() == golden, "g.doc vs golden")
        return sum(oracle.document_floor(oracle.read_document(
            (w / n).read_text())) for n in ("g.doc", "log.doc", "mulp.doc"))

    add("build-lt2", ["build-lt2", "--p", 2, "--h1", 1, "--h2", 1,
                      "--out-group", w / "g.doc", "--out-log", w / "log.doc",
                      "--out-mulp", w / "mulp.doc", "--format", "machine"],
        check_build)
    write("serialize M5", w / "m5.doc", lambda: ser.serialize(M5),
          lambda state, text: _check_doc_against(w / "m5.doc", [m_terms], 5))
    write("serialize A5", w / "a5.doc", lambda: ser.serialize(A5),
          lambda state, text: _check_doc_against(
              w / "a5.doc", [{(1, 0): 1, (0, 1): 1}], 5))
    write("serialize f", w / "f.doc", lambda: ser.serialize(f5),
          lambda state, text: _check_doc_against(w / "f.doc", [f_terms], 5))

    def check_ext(state, text):
        coeffs = text.splitlines()[2].split(":")[1].split()
        require([int(c) for c in coeffs] == cyc, "extension coefficients")
        return 0

    write("serialize extension", w / "c5.ext",
          lambda: ser.serialize_extension(mod5), check_ext)

    # -- readers ------------------------------------------------------------
    def expect_report(**want):
        def check(state, out):
            rep = _report(out)
            for key, val in want.items():
                require(rep[key] == val, f"{key}: {rep[key]!r} != {val!r}")
            return 0
        return check

    def g_law():
        return [t for _, t in oracle.read_document(
            (w / "g.doc").read_text())["components"]]

    add("validate-group g", ["validate-group", "--in", w / "g.doc",
                             "--format", "machine"],
        expect_report(dimension=2, certified_degree=4, commutative=True))
    add("height g", ["height", "--group", w / "g.doc", "--format", "machine"],
        expect_report(height="2", kernel_order="4"))

    def check_negation(state, out):
        _report(out)
        F = g_law()
        neg = oracle.read_document((w / "neg.doc").read_text())
        iota = [t for _, t in neg["components"]]
        X = [{(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}]
        k = min(oracle.document_floor(neg), oracle.document_floor(
            oracle.read_document((w / "g.doc").read_text())))
        for comp in oracle.poly_compose(F, X + iota, 4):
            require(oracle.agree_mod(comp, {}, 2, k), "F(X, iota X) != 0",
                    "refuted-claim")
        return oracle.document_floor(neg)

    add("negation g", ["negation", "--in", w / "g.doc", "--out",
                       w / "neg.doc"], check_negation)

    def check_triple(state, out):
        _report(out)
        doc = oracle.read_document((w / "g3.doc").read_text())
        k = min(oracle.document_floor(doc), oracle.document_floor(
            oracle.read_document((w / "g.doc").read_text())))
        for got, want in zip([t for _, t in doc["components"]],
                             _triple(g_law(), 4)):
            require(oracle.agree_mod(got, want, 2, k), "[3]_F", "refuted-claim")
        return oracle.document_floor(doc)

    add("mul-map g 3", ["mul-map", "--in", w / "g.doc", "--a", 3, "--out",
                        w / "g3.doc"], check_triple)
    add("validate-group m5", ["validate-group", "--in", w / "m5.doc",
                              "--format", "machine"],
        expect_report(dimension=1, certified_degree=8, commutative=True))
    add("height m5", ["height", "--group", w / "m5.doc", "--format",
                      "machine"], expect_report(height="1", kernel_order="5"))
    add("height a5", ["height", "--group", w / "a5.doc", "--format",
                      "machine"],
        expect_report(height="inf", kernel_order="inf"))

    def closed_form(path, a, p=5):
        def check(state, out):
            _report(out)
            return _check_doc_against(path, [oracle.binomial_series(a, 8)], p)
        return check

    add("negation m5", ["negation", "--in", w / "m5.doc", "--out",
                        w / "negm.doc"], closed_form(w / "negm.doc", -1))
    for i, a in enumerate(("2", "3", "-1", "1/7")):
        path = w / f"mul_{i}.doc"
        add(f"mul-map m5 {a}", ["mul-map", "--in", w / "m5.doc", "--a", a,
                                "--out", path], closed_form(path, Fraction(a)))
    add("stability [2]_M", ["stability", "--u", w / "mul_0.doc", "--format",
                            "machine"], expect_report(stable=True))
    add("reconstruct [3]_M", ["reconstruct", "--u", w / "mul_0.doc", "--j0",
                              3, "--out", w / "rec.doc"],
        closed_form(w / "rec.doc", 3))

    def check_gm(state, out):
        _report(out)
        return _check_doc_against(w / "gm.doc", [m_terms], 5)

    def check_gj(state, out):
        _report(out)
        g_floor = oracle.document_floor(oracle.read_document(
            (w / "g.doc").read_text()))
        return _check_doc_against(w / "gj.doc", g_law(), 2, g_floor)

    add("group-from-jacobian [2]_M", ["group-from-jacobian", "--u",
                                      w / "mul_0.doc", "--out",
                                      w / "gm.doc"], check_gm)
    add("group-from-jacobian [2]_F", ["group-from-jacobian", "--u",
                                      w / "mulp.doc", "--out", w / "gj.doc"],
        check_gj)
    add("validate-group gj", ["validate-group", "--in", w / "gj.doc",
                              "--format", "machine"],
        expect_report(dimension=2, certified_degree=4))

    def check_torsion(state, out):
        rep = _report(out)
        require(rep["count"] == 5 and rep["verdict"] == "complete-in-extension"
                and rep["multiplicity_free"], "torsion report")
        return 0

    add("torsion m5", ["torsion", "--group", w / "m5.doc", "--level", 1,
                       "--extension", w / "c5.ext", "--format", "machine"],
        check_torsion)
    add("intersect m5 a5", ["intersect", "--group", w / "m5.doc", "--group2",
                            w / "a5.doc", "--level", 1, "--extension",
                            w / "c5.ext", "--format", "machine"],
        expect_report(shared_count=1))
    for i, a in ((0, 2), (1, 3)):
        # zeta_5 - 1 under [a]_M: period = multiplicative order of a mod 5
        add(f"orbit [{a}]_M", ["orbit", "--map", w / f"mul_{i}.doc",
                               "--extension", w / "c5.ext", "--point", "0 1",
                               "--budget", 16, "--polynomial", "--format",
                               "machine"],
            expect_report(status="periodic", period=4, tail=0))

    def check_copolygon(xi):
        def check(state, out):
            rep = _report(out)
            x1, x2 = (Fraction(t) for t in xi.split(","))
            V = min(i * x1 + j * x2 + oracle.vp_int(c, 5)
                    for (i, j), c in f_terms.items())
            require(Fraction(rep["value"]) == V, "copolygon value")
            return 0
        return check

    for xi in xis:
        add(f"copolygon {xi}", ["copolygon", "--in", w / "f.doc", "--xi", xi,
                                "--format", "machine"], check_copolygon(xi))

    def check_bound(point):
        def check(state, out):
            rep = _report(out)
            v = [ring.valuation(x) for x in point]
            V = min(i * v[0] + j * v[1] + oracle.vp_int(c, 5)
                    for (i, j), c in f_terms.items())
            exact = ring.valuation(ring.eval_poly(f_terms, point))
            require(Fraction(rep["copolygon_value"]) == V, "copolygon value")
            if rep["value_valuation"] is not None:
                require(Fraction(rep["value_valuation"]) == exact,
                        "value valuation", "refuted-claim")
                require(rep["holds"] is True, "bound reported as failing")
            else:
                # a series document has a truncation tail: only a floor is
                # certified, and the bound holds as far as the floor shows
                floor = INF if rep["value_floor"] == "inf" \
                    else Fraction(rep["value_floor"])
                require(floor <= exact, "value floor refuted",
                        "refuted-claim")
                require(rep["holds"] == (floor >= V), "holds vs floor")
            return 0
        return check

    for point in points:
        spec = ";".join(" ".join(str(c) for c in x) for x in point)
        add("bound-check", ["bound-check", "--in", w / "f.doc",
                            "--extension", w / "c5.ext", "--point", spec,
                            "--format", "machine"], check_bound(point))

    ops.extend(_corpus_ops(rng, w, ser.serialize(M5)))
    return ops


# -- malformed and falsely certified documents --------------------------------

READERS = (("validate-group", "--in"), ("height", "--group"),
           ("negation", "--in"), ("mul-map", "--a", "3", "--in"))


def _corpus_ops(rng, w, m5):
    """Documents every reader must refuse with a documented nonzero exit.

    Each entry's fault and the reader that meets it are fixed, so that the
    ops cost about the same on every seed; the seed picks where the fault
    sits.
    """
    lines = m5.splitlines()
    body = [i for i, ln in enumerate(lines) if "|" in ln]
    prof = next(i for i, ln in enumerate(lines) if " profile " in ln)
    docs = []
    for n in range(2):
        bad = m5.replace("p: 5\n", "p: five\n")
        docs.append((f"p-five-{n}", bad))
        parts = lines[prof].split()
        parts[rng.choice((3, 5))] = rng.choice(("x", "1.5", "n/a", "seven"))
        docs.append((f"profile-{n}", "\n".join(
            lines[:prof] + [" ".join(parts)] + lines[prof + 1:]) + "\n"))
        i = rng.choice(body)
        head, _, digits = lines[i].rpartition("| ")
        digits = digits.split()
        digits = digits[:-1] if rng.random() < 0.5 else digits + ["0"]
        docs.append((f"digit-count-{n}", "\n".join(
            lines[:i] + [head + "| " + " ".join(digits)] + lines[i + 1:])
            + "\n"))
        start = m5.index(lines[body[0]])
        docs.append((f"truncated-{n}",
                     m5[:rng.randint(start, len(m5) - len("end\n") - 1)]))
        docs.append((f"version-{n}", m5.replace(
            "fglab-series v1", "fglab-series " + rng.choice(("v0", "v2",
                                                            "v10")))))
    ops = []
    for k, (name, text) in enumerate(docs):
        path = w / f"bad-{name}.doc"
        path.write_text(text)
        cmd = READERS[k % len(READERS)]
        ops.append(Op(f"corpus {name} {cmd[0]}",
                      lambda state, cmd=cmd, path=path:
                      run_cli(list(cmd) + [path]),
                      _check_refused, valid=False))
    # X + 2Y + XY is no group law, but its document carries a certificate
    false_law = m5.replace("0 1 | 0 | 1 ", "0 1 | 0 | 2 ", 1)
    path = w / "bad-false-law.doc"
    path.write_text(false_law)
    for cmd in (("height", "--group"), ("validate-group", "--in")):
        ops.append(Op(f"corpus false-law {cmd[0]}",
                      lambda state, cmd=cmd, path=path:
                      run_cli(list(cmd) + [path]),
                      _check_refused, valid=False))
    return ops


def _check_refused(state, out):
    code = out[0]
    require(code != 0, "exit 0 where a typed error is due", "exit-0")
    require(code in DOCUMENTED_FAILURE_CODES, f"undocumented exit {code}",
            "wrong-typed-error")
    return 0


WORKLOADS = {
    "lt2-build": lt2_build_ops,
    "inverse": inverse_ops,
    "torsion": torsion_ops,
    "cli-docs": cli_docs_ops,
}
