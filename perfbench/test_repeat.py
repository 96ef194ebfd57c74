"""The benchmark's own test: its counts repeat exactly, and a second seed
runs clean.

    python3 -m pytest perfbench/test_repeat.py            # all four, ~7 min
    python3 -m pytest perfbench/test_repeat.py -k torsion

Each case runs the benchmark the way a harness does, in a subprocess from the
root of the checkout: traced twice and untraced twice on seed 1, untraced
once on seed 2.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lt2-build", "inverse", "torsion", "cli-docs")
EXACT = ("series.mul.terms_out", "dynamics.torsion.roots")


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def fail_frac(result):
    return result["failed"] / result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_second_seed_runs_clean(workload):
    traced = [bench(workload, 1, 1) for _ in range(2)]
    names = [n for n in traced[0]["metrics"]
             if n.endswith((".calls", ".compose_per_call")) or n in EXACT]
    assert names
    for name in names:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name
    assert fail_frac(traced[0]) == fail_frac(traced[1])

    plain = [bench(workload, 1, 0) for _ in range(2)]
    for key in ("certified_digits", "ok_frac"):
        assert plain[0]["metrics"][key] == plain[1]["metrics"][key], key
    assert fail_frac(plain[0]) == fail_frac(plain[1]) == fail_frac(traced[0])

    other = bench(workload, 2, 0)
    assert other["correct"] and other["attempted"] > 0
    if workload != "cli-docs":      # only cli-docs feeds malformed input
        assert other["failed"] == 0
    for result in traced + plain:
        assert result["correct"]
