#!/usr/bin/env python3
"""fglab benchmark: one closed-loop client, one thread, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fglab is imported from ``src/``.  A run
sets up the workload's op list from the seed, then makes passes over it
until ``--seconds`` have passed, at least MIN_PASSES of them.  Times are
scaled to a reference host speed (see speed.py).  Every op's output is
checked, untimed, against an independent oracle.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one traced pass with ``--trace 1``.  A readable summary, with
sample counts and the first failures, goes to stderr.

``correct`` covers ops on well-formed input; ``failed`` also counts the
malformed-document corpus that a reader must refuse with a documented
nonzero exit code.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
SETUP_SAMPLES = 5


def import_fglab():
    src = ROOT / "src"
    if not (src / "fglab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fglab sources under {src}; "
                 "run from the root of an fglab checkout")
    sys.path[:0] = [str(src), str(BENCH)]
    import fglab
    if Path(fglab.__file__).resolve().parent != (src / "fglab").resolve():
        sys.exit(f"perfbench: imported fglab from {fglab.__file__}, "
                 f"not from {src}")


def build_ops(workload, seed):
    import workloads
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, ROOT, workdir), workdir


def setup_sample(workload, seed, probe):
    """One fresh process timed from spawn to its first op, scaled by the
    probes taken just before and after it."""
    for _ in range(3):
        probe.sample()
    start = time.perf_counter()
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
    raw = float(proc.stdout.split()[-1]) - t0
    end = time.perf_counter()
    for _ in range(3):
        probe.sample()
    return raw * probe.factor(start, end)


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Tally:
    """Attempts, failures and certified digits over all passes."""

    def __init__(self):
        self.attempted = 0
        self.failures = []        # (op name, kind, message, valid input?)
        self.digits = {}          # op index -> certified digits seen

    @property
    def failed(self):
        return len(self.failures)

    @property
    def correct(self):
        return not any(valid for *_, valid in self.failures) \
            and all(len(seen) == 1 for seen in self.digits.values())

    @property
    def certified_digits(self):
        return sum(min(seen) for seen in self.digits.values())


def judge(op, state, out, exc):
    """(failure kind, message) or (None, certified digits)."""
    from fglab.errors import FglabError
    from workloads import Mismatch
    if op.expect is not None:
        if isinstance(exc, op.expect):
            return None, 0
        if exc is None:
            return "missing-error", f"no {op.expect.__name__} raised"
        kind = "wrong-typed-error" if isinstance(exc, FglabError) \
            else "escaped"
        return kind, f"{type(exc).__name__}: {exc}"
    if exc is not None:
        kind = "unexpected-error" if isinstance(exc, FglabError) \
            else "escaped"
        return kind, f"{type(exc).__name__}: {exc}"
    if op.check is None:
        return None, 0
    try:
        return None, op.check(state, out)
    except Mismatch as m:
        return m.kind, str(m)
    except Exception as e:      # the output could not even be read
        return "wrong-output", f"{type(e).__name__}: {e}"


def run_pass(ops, tally, tracer=None, only=None, probe=None):
    """One pass over the ops, or over the op indices in ``only``; returns
    {op index: (start, end, latency in seconds)}.  The latency leaves out
    the time ``probe`` spent inside the op."""
    gc.collect()
    state = {}
    latencies = {}
    for i in range(len(ops)) if only is None else only:
        op = ops[i]
        if tracer is not None:
            tracer.begin_op(i)
        spent = probe.spent if probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            out, exc = op.run(state), None
        except Exception as e:      # classified by judge()
            out, exc = None, e
        t1 = time.perf_counter()
        dt = t1 - t0
        if probe is not None:
            dt -= probe.spent - spent
        if tracer is not None:
            dt = tracer.end_op()
        latencies[i] = (t0, t1, dt)
        kind, detail = judge(op, state, out, exc)
        tally.attempted += 1
        if kind is None:
            tally.digits.setdefault(i, set()).add(detail)
        else:
            tally.failures.append((op.name, kind, detail, op.valid))
    return latencies


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(ops, seconds, tally, workload, seed):
    """Passes until ``seconds`` have passed, at least MIN_PASSES of them.

    An op with ``once`` set runs in the first pass only.  One
    set-up sample is taken before each of the first SETUP_SAMPLES passes, so
    that they spread over the run, and the rest after the last pass.
    Returns each op's median scaled latency, the scaled set-up samples, the
    number of passes and the unscaled sum of the ops' median latencies.
    """
    from speed import SpeedProbe
    probe = SpeedProbe()
    samples = [[] for _ in ops]
    setup = []
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(workload, seed, probe))
        probe.arm()
        try:
            lat = run_pass(ops, tally, probe=probe, only=[
                i for i, op in enumerate(ops) if passes == 0 or not op.once])
        finally:
            probe.disarm()
        for i, span in lat.items():
            samples[i].append(span)
        passes += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload, seed, probe))
    scaled = [statistics.median(dt * probe.factor(t0, t1)
                                for t0, t1, dt in spans)
              for spans in samples]
    raw = sum(statistics.median(dt for _, _, dt in spans)
              for spans in samples)
    return scaled, setup, passes, raw


def traced_run(ops, tally, workload, seed):
    from tracing import Tracer
    import workloads
    untraced = sum(dt for *_, dt in run_pass(ops, tally).values())
    tracer = Tracer()
    try:
        tracer.install(extra_namespaces=[workloads])
        traced = sum(dt for *_, dt in run_pass(ops, tally, tracer).values())
    finally:
        tracer.uninstall()
    metrics, shares = tracer.metrics()
    metrics["trace.overhead_s"] = traced - untraced
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.tsv"
    tracer.write(spans)
    return metrics, shares, untraced, traced, spans


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize_failures(tally):
    lines = []
    kinds = {}
    for name, kind, detail, valid in tally.failures:
        kinds[kind] = kinds.get(kind, 0) + 1
    if kinds:
        lines.append("failures: " + ", ".join(
            f"{k} {n}" for k, n in sorted(kinds.items())))
    seen = set()
    for name, kind, detail, valid in tally.failures:
        if name in seen:
            continue
        seen.add(name)
        lines.append(f"  {name}: {kind}: {detail[:160]}"
                     + ("" if valid else " [malformed input]"))
        if len(seen) == 12:
            break
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("lt2-build", "inverse", "torsion", "cli-docs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_fglab()
    if args.setup_only:
        _, workdir = build_ops(args.workload, args.seed)
        print(repr(time.time()))
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    ops, workdir = build_ops(args.workload, args.seed)
    tally = Tally()
    log = [f"workload {args.workload}, seed {args.seed}, {len(ops)} ops "
           "per pass, 1 closed-loop client"]
    try:
        if args.trace:
            metrics, shares, untraced, traced, spans = \
                traced_run(ops, tally, args.workload, args.seed)
            from tracing import PER_LAYER
            result = {name: metric(metrics[name], unit)
                      for name, unit in PER_LAYER}
            log.append(f"untraced pass {untraced:.3f} s, traced pass "
                       f"{traced:.3f} s; spans in {spans}")
            log.append("self-time share by module: " + ", ".join(
                f"{m} {s:.1%}" for m, s in
                sorted(shares.items(), key=lambda kv: -kv[1])))
        else:
            lat, setup, passes, raw = timed_run(
                ops, args.seconds, tally, args.workload, args.seed)
            result = {
                "setup_s": metric(statistics.median(setup), "s"),
                "wall_s": metric(sum(lat), "s"),
                "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
                "op_p90_ms": metric(quantile(lat, 0.9) * 1e3, "ms"),
                "peak_rss_mb": metric(resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "certified_digits": metric(float(tally.certified_digits),
                                           "digits"),
                "ok_frac": metric(1 - tally.failed / tally.attempted,
                                  "ratio"),
            }
            once = sum(op.once for op in ops)
            log.append(f"{passes} passes ({once} long ops in the first only); "
                       f"latency = each op's median, over {len(lat)} ops "
                       f"(p90 has {len(lat) - math.ceil(0.9 * len(lat))}"
                       f" beyond it); setup from {len(setup)} processes; "
                       f"unscaled wall {raw:.4g} s, scaled {sum(lat):.4g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log.extend(f"{name} = {m['value']:.6g} {m['unit']}"
               for name, m in result.items())
    log.append(f"attempted {tally.attempted}, failed {tally.failed}, "
               f"correct {tally.correct}")
    log.extend(summarize_failures(tally))
    sys.stderr.write("\n".join(log) + "\n")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
