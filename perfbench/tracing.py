"""Outside-in tracing of fglab's public functions for the per-layer metrics.

The tracer rebinds each traced function, everywhere fglab binds it, to a
wrapper that records a span: name, parent, op id, start and end.  Spans
stay in memory and are written out when the run ends.  A span's self time
is its duration minus the time its child spans cover.

PadicScalar arithmetic runs hundreds of thousands of times per op, so it is
counted and timed as a leaf (no span object per call); its time is taken
out of the enclosing span's self time.  The difference between a traced and
an untraced pass is reported as ``trace.overhead_s``.
"""

from __future__ import annotations

import ast
import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import oracle

#: (module, function, span name): public functions traced as spans
SPANS = (
    ("fglab.series", "tuple_compose", "series.compose"),
    ("fglab.series", "compositional_inverse", "series.inverse"),
    ("fglab.series", "ms_eval", "series.eval"),
    ("fglab.formal_group", "lt2_build", "formal_group.lt2_build"),
    ("fglab.formal_group", "fg_validate", "formal_group.validate"),
    ("fglab.formal_group", "fg_multiplication_map", "formal_group.mul_map"),
    ("fglab.commutant", "group_from_jacobian", "commutant.group_from_jacobian"),
    ("fglab.commutant", "commutant_reconstruct", "commutant.reconstruct"),
    ("fglab.commutant", "stability_classify", "commutant.stability"),
    ("fglab.dynamics", "torsion_probe_dim1", "dynamics.torsion"),
    ("fglab.dynamics", "valuation_bound_check", "dynamics.bound_check"),
    ("fglab.dynamics", "orbit_analyze", "dynamics.orbit"),
    ("fglab.serialize", "serialize", "serialize.write"),
    ("fglab.serialize", "serialize_extension", "serialize.write"),
    ("fglab.serialize", "parse", "serialize.parse"),
    ("fglab.serialize", "parse_extension", "serialize.parse"),
    ("fglab.cli", "main", "cli.main"),
)

#: (module, class, method, span name): methods traced as spans
METHOD_SPANS = (
    ("fglab.series", "MultiSeries", "mul", "series.mul"),
    ("fglab.padic", "ExtScalar", "__mul__", "padic.ext_mul"),
    ("fglab.padic", "ExtScalar", "inverse", "padic.ext_inverse"),
)

#: PadicScalar operators counted and timed as leaves
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__")

MODULES = ("padic", "series", "formal_group", "commutant", "dynamics",
           "serialize", "cli")

#: per-layer metrics as (name, unit), in report order
PER_LAYER = (
    ("padic.ext_mul.calls", "count"), ("padic.ext_mul.self_s", "s"),
    ("padic.ext_inverse.calls", "count"), ("padic.ext_inverse.self_s", "s"),
    ("padic.scalar_ops.calls", "count"), ("padic.scalar_ops.self_s", "s"),
    ("series.mul.calls", "count"), ("series.mul.self_s", "s"),
    ("series.mul.terms_out", "count"),
    ("series.compose.calls", "count"), ("series.compose.self_s", "s"),
    ("series.compose.digits_lost", "digits"),
    ("series.inverse.calls", "count"), ("series.inverse.self_s", "s"),
    ("series.inverse.compose_per_call", "count"),
    ("series.eval.calls", "count"), ("series.eval.self_s", "s"),
    ("formal_group.lt2_build.self_s", "s"),
    ("formal_group.lt2_build.digits_out", "digits"),
    ("formal_group.validate.calls", "count"),
    ("formal_group.validate.self_s", "s"),
    ("formal_group.validate.compose_per_call", "count"),
    ("formal_group.mul_map.calls", "count"),
    ("formal_group.mul_map.self_s", "s"),
    ("commutant.group_from_jacobian.self_s", "s"),
    ("commutant.group_from_jacobian.compose_per_call", "count"),
    ("commutant.reconstruct.self_s", "s"),
    ("commutant.stability.self_s", "s"),
    ("dynamics.torsion.self_s", "s"), ("dynamics.torsion.roots", "count"),
    ("dynamics.torsion.lift_failures", "count"),
    ("dynamics.torsion.yield", "ratio"),
    ("dynamics.bound_check.calls", "count"),
    ("dynamics.bound_check.self_s", "s"),
    ("dynamics.orbit.steps", "count"), ("dynamics.orbit.self_s", "s"),
    ("serialize.write.calls", "count"), ("serialize.write.self_s", "s"),
    ("serialize.write.bytes", "bytes"),
    ("serialize.parse.calls", "count"), ("serialize.parse.self_s", "s"),
    ("serialize.parse.bytes", "bytes"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.typed_errors", "count"), ("cli.escaped_errors", "count"),
    ("trace.overhead_s", "s"),
)

#: spans whose descendant compose calls are counted per call
COMPOSE_PARENTS = ("series.inverse", "formal_group.validate",
                   "commutant.group_from_jacobian")


class CoverageError(RuntimeError):
    """Some fglab call site would bypass its span."""


def _floor(x):
    comps = x.components if hasattr(x, "components") else \
        x if isinstance(x, (list, tuple)) else [x]
    return min(oracle.series_floor(c) for c in comps)


# -- counters fed from a traced call's arguments and result ---------------------

def _after_mul(tr, args, kwargs, out):
    tr.counts["series.mul.terms_out"] += len(out.coeffs)


def _after_compose(tr, args, kwargs, out):
    cap = args[2] if len(args) > 2 else kwargs.get("cap")
    if cap is not None:
        return        # capped calls certify nothing at the degree cap
    floor_in = min(_floor(args[0]), _floor(args[1]))
    floor_out = _floor(out)
    if floor_in != oracle.INF and floor_out != oracle.INF:
        key = "series.compose.digits_lost"
        tr.counts[key] = max(tr.counts[key], floor_in - floor_out)


def _after_lt2(tr, args, kwargs, out):
    tr.counts["formal_group.lt2_build.digits_out"] += _floor(out.group.law)


def _after_torsion(tr, args, kwargs, out):
    tr.counts["dynamics.torsion.roots"] += len(out.roots)
    tr.counts["dynamics.torsion.lift_failures"] += out.lift_failures


def _after_write(tr, args, kwargs, out):
    tr.counts["serialize.write.bytes"] += len(out)


def _after_parse(tr, args, kwargs, out):
    tr.counts["serialize.parse.bytes"] += len(args[0])


AFTER = {
    "series.mul": _after_mul,
    "series.compose": _after_compose,
    "formal_group.lt2_build": _after_lt2,
    "dynamics.torsion": _after_torsion,
    "serialize.write": _after_write,
    "serialize.parse": _after_parse,
}


class Tracer:
    """Span recorder for one traced pass; install, run ops, uninstall."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf = array("d")      # PadicScalar time directly inside
        self.raised = array("b")    # 1 when the call raised
        self.stack = []
        self.op = -1
        self.counts = {"series.mul.terms_out": 0,
                       "series.compose.digits_lost": 0,
                       "formal_group.lt2_build.digits_out": 0,
                       "dynamics.torsion.roots": 0,
                       "dynamics.torsion.lift_failures": 0,
                       "serialize.write.bytes": 0,
                       "serialize.parse.bytes": 0,
                       "cli.typed_errors": 0, "cli.escaped_errors": 0}
        self.scalar_calls = 0
        self.scalar_time = 0.0
        self._in_scalar = False
        self._wrappers = {}         # original function -> wrapper
        self._patched = []          # (namespace owner, attribute, original)

    # -- span bookkeeping ----------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.opid.append(self.op)
        self.leaf.append(0.0)
        self.end.append(0.0)
        self.raised.append(0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id):
        self.op = op_id
        self._open(self._id("op"))

    def end_op(self):
        i = self.stack[-1]
        self._close(i)
        self.op = -1
        return self.end[i] - self.start[i]

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        nid = self._id(name)
        after = AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[i] = 1
                raise
            finally:
                tracer._close(i)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out
        return traced

    def _scalar(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, b):
            if tracer.op < 0:
                return fn(a, b)
            tracer.scalar_calls += 1
            if tracer._in_scalar:
                return fn(a, b)
            tracer._in_scalar = True
            t0 = perf_counter()
            try:
                return fn(a, b)
            finally:
                dt = perf_counter() - t0
                tracer._in_scalar = False
                tracer.scalar_time += dt
                tracer.leaf[tracer.stack[-1]] += dt
        return counted

    def _cli_counts(self, fn):
        tracer = self

        @functools.wraps(fn)
        def main(argv=None):
            try:
                code = fn(argv)
            except SystemExit as exc:
                if exc.code:
                    tracer.counts["cli.typed_errors"] += 1
                raise
            except Exception:
                tracer.counts["cli.escaped_errors"] += 1
                raise
            if code:
                tracer.counts["cli.typed_errors"] += 1
            return code
        return main

    # -- install / uninstall -------------------------------------------------

    def install(self, extra_namespaces=()):
        """Wrap every traced function wherever fglab binds it, then verify."""
        mods = {name: sys.modules[name] for name in list(sys.modules)
                if name == "fglab" or name.startswith("fglab.")}
        for mod, attr, name in SPANS:
            fn = getattr(mods[mod], attr)
            if attr == "main":
                self._wrappers[fn] = self._span(name, self._cli_counts(fn))
            else:
                self._wrappers[fn] = self._span(name, fn)
        classes = []
        for mod, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(mods[mod], cls_name)
            self._wrappers[vars(cls)[attr]] = self._span(name, vars(cls)[attr])
            if cls not in classes:
                classes.append(cls)
        scalar = mods["fglab.padic"].PadicScalar
        for attr in SCALAR_OPS:
            fn = vars(scalar)[attr]
            if fn not in self._wrappers:       # aliases share one wrapper
                self._wrappers[fn] = self._scalar(fn)
        classes.append(scalar)
        owners = list(mods.values()) + list(extra_namespaces) + classes
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if callable(value) and value in self._wrappers:
                    setattr(owner, attr, self._wrappers[value])
                    self._patched.append((owner, attr, value))
        self.check_coverage(mods, owners)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def check_coverage(self, mods, owners):
        """Fail loudly if any fglab call site still reaches an unwrapped
        function: by module or class attribute, default argument, closure,
        or a ``from .x import name`` in the source."""
        originals = self._wrappers
        wrappers = set(originals.values())
        problems = []
        for owner in owners:
            for attr, value in vars(owner).items():
                if not callable(value) or value in wrappers:
                    continue
                if value in originals:
                    problems.append(f"{owner.__name__}.{attr}")
                for inner in _captured(value):
                    if callable(inner) and inner in originals:
                        problems.append(f"{owner.__name__}.{attr} captures "
                                        f"{inner.__qualname__}")
        traced = {(mod, attr) for mod, attr, _ in SPANS}
        for name, mod in mods.items():
            path = getattr(mod, "__file__", None)
            if not path:
                continue
            tree = ast.parse(Path(path).read_text())
            package = name if path.endswith("__init__.py") \
                else name.rpartition(".")[0]
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom) or node.level != 1:
                    continue
                source = package + ("." + node.module if node.module else "")
                for alias in node.names:
                    if (source, alias.name) not in traced:
                        continue
                    at_source = getattr(mods[source], alias.name)
                    bound = alias.asname or alias.name
                    if at_source not in wrappers:
                        problems.append(f"{source}.{alias.name} untraced")
                    elif node in tree.body and \
                            getattr(mod, bound, None) is not at_source:
                        problems.append(f"{name}.{bound} is not the traced "
                                        f"{source}.{alias.name}")
        if problems:
            raise CoverageError("call sites bypass their spans: "
                                + ", ".join(sorted(set(problems))))

    # -- results -----------------------------------------------------------------

    def metrics(self):
        n = len(self.name)
        names = self.names
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls = dict.fromkeys(names, 0)
        returned = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        for i in range(n):
            nm = names[self.name[i]]
            calls[nm] += 1
            returned[nm] += not self.raised[i]
            self_s[nm] += (self.end[i] - self.start[i] - child[i]
                           - self.leaf[i])
        compose = self._ids.get("series.compose")
        evaluate = self._ids.get("series.eval")
        watched = {self._ids[nm]: nm for nm in COMPOSE_PARENTS + (
            "dynamics.orbit",) if nm in self._ids}
        nested = dict.fromkeys(watched.values(), 0)
        for i in range(n):
            if self.name[i] not in (compose, evaluate):
                continue
            seen = set()
            par = self.parent[i]
            while par >= 0:
                nm = watched.get(self.name[par])
                if nm is not None and nm not in seen:
                    seen.add(nm)
                    if (nm == "dynamics.orbit") == (self.name[i] == evaluate):
                        nested[nm] += 1
                par = self.parent[par]

        out = {}
        for name, _ in PER_LAYER:
            base, _, field = name.rpartition(".")
            if name in self.counts:
                out[name] = self.counts[name]
            elif field == "calls":
                out[name] = calls.get(base, 0)
            elif field == "self_s":
                out[name] = self_s.get(base, 0.0)
            elif field == "compose_per_call":     # over calls that returned
                out[name] = nested.get(base, 0) / returned[base] \
                    if returned.get(base) else 0.0
        out["padic.scalar_ops.calls"] = self.scalar_calls
        out["padic.scalar_ops.self_s"] = self.scalar_time
        out["dynamics.orbit.steps"] = nested.get("dynamics.orbit", 0)
        roots = out["dynamics.torsion.roots"]
        tried = roots + out["dynamics.torsion.lift_failures"]
        out["dynamics.torsion.yield"] = roots / tried if tried else 0.0

        shares = dict.fromkeys(MODULES, 0.0)
        for nm, s in self_s.items():
            mod = nm.partition(".")[0]
            if mod in shares:
                shares[mod] += s
        shares["padic"] += self.scalar_time
        total = self_s.get("op", 0.0) + sum(shares.values())
        shares = {m: s / total if total else 0.0 for m, s in shares.items()}
        return out, shares

    def write(self, path: Path):
        """All spans as TSV: op id, name, parent index, start, end,
        PadicScalar time inside, and whether the call raised."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("op\tname\tparent\tstart\tend\tscalar_s\traised\n")
            for i in range(len(self.name)):
                fh.write(f"{self.opid[i]}\t{names[self.name[i]]}\t"
                         f"{self.parent[i]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.leaf[i]:.9f}\t"
                         f"{self.raised[i]}\n")


def _captured(value):
    fn = getattr(value, "__func__", value)
    out = list(getattr(fn, "__defaults__", None) or ())
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            out.append(cell.cell_contents)
        except ValueError:
            pass
    return out

