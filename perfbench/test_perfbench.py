"""The benchmark's own test: tracer counts against a hand count, and the
output schema of every workload at smoke size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from galmin import arith, charexp, extremal, forms, minimize, verify  # noqa: E402

import run  # noqa: E402
from tracer import LAYERS, Layer, Tracer, metric_units  # noqa: E402
from workloads import Job  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tracer_counts_match_hand_count():
    originals = (forms.v_form, minimize.v_form, verify.v_form)
    with Tracer() as tr:
        sieve = arith.build_sieve(200)
        for k in (1, 2, 3):
            extremal.level_set_count(sieve, 100, k)
        extremal.filtered_count(sieve, 100, 2, 3.0)
        c = forms.WeightVector.uniform(6)
        forms.v_form(c)  # one call through each of three bindings
        charexp.v_form(c)
        verify.v_form(c)
        res = minimize.minimize_quadratic(
            forms.KernelSpec(forms.KernelKind.V_KERNEL), 8, tolerance=1e-300,
            max_iters=5)
        with tr.pause():
            forms.v_form(c)
    m = tr.metrics()
    assert tr.absent == []
    assert m["arith.build_sieve.calls"] == 1
    # Three level sets plus one filtered count, all for the same x.
    assert m["extremal.level_set_count.calls"] == 3
    assert m["extremal.filtered_count.calls"] == 1
    assert m["arith.big_omega_table.calls"] == 4
    assert m["arith.big_omega_table.repeat_share"] == pytest.approx(3 / 4)
    # n <= 100 with Omega(n) = 2: 4 6 9 10 14 15 21 22 25 26 33 34 35 38 39
    # 46 49 51 55 57 58 62 65 69 74 77 82 85 86 87 91 93 94 95.
    assert m["extremal.satisfies_loc.calls"] == 34
    assert m["forms.v_form.calls"] == 3
    # Five iterations: one operator, its first product, one column each.
    assert res.iterations == 5
    assert m["minimize.minimize_quadratic.calls"] == 1
    assert m["minimize.fw.iterations"] == 5
    assert m["minimize.operator.build.calls"] == 1
    assert m["minimize.operator.matvec.calls"] == 1
    assert m["minimize.operator.column.calls"] == 5
    assert m["minimize.minimize_quadratic.ms"] >= m["minimize.minimize_quadratic.self_ms"] > 0
    assert (forms.v_form, minimize.v_form, verify.v_form) == originals


def test_missing_names_are_reported_absent():
    layers = LAYERS + (Layer("forms", "no_such_function"),
                       Layer("minimize", "_QuadraticOperator.no_such_method"),
                       Layer("no_such_module", "f"))
    with Tracer(layers) as tr:
        forms.v_form(forms.WeightVector.uniform(3))
    assert tr.absent == ["forms.no_such_function",
                         "minimize._QuadraticOperator.no_such_method",
                         "no_such_module.f"]
    m = tr.metrics()
    assert m["forms.no_such_function.calls"] == 0
    assert m["forms.v_form.calls"] == 1
    assert set(m) == set(metric_units(layers))


def test_loop_takes_each_job_at_its_fastest():
    from contextlib import nullcontext

    import numpy as np

    def grow_peak():
        # Larger than the whole peak so far, so the peak must grow here.
        n = int((run._max_rss_mb() + 64) * 2**20) // 8
        return float(np.ones(n).sum())

    jobs = [Job("small", lambda: 1.0, lambda out, q: [("one", out == 1.0)]),
            Job("big", grow_peak, lambda out, q: [("positive", out > 0)])]
    loop = run.Loop(jobs, nullcontext)
    passes = loop.run_for(0.0, 3)
    assert len(passes) == 3
    assert loop.attempted == 6 and loop.failed == 0
    assert loop.fastest_pass() == sum(min(ts) for ts in loop.job_seconds.values())
    assert loop.fastest_pass() <= min(passes)
    assert loop.peak_region == "job big"


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


# verify-fast has no smaller size, so only its untraced run is smoked.
@pytest.mark.parametrize("workload,trace", [
    (w["name"], t) for w in SPEC["workloads"] for t in (0, 1)
    if not (w["name"] == "verify-fast" and t == 1)])
def test_smoke_schema(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


def test_refuses_checkout_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("vt-certify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
