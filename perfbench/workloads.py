"""The benchmark's workloads: seeded job lists and the check on every output.

Each workload is a list of jobs that one client runs one after another
(a closed loop). A job's ``run`` is the timed call into galmin; its
``check`` runs untimed afterwards and returns named verdicts that hold for
any correct solver. Jobs call galmin through module attributes
(``minimize.minimize_quadratic``), so the tracer's wrappers see them.

Why each workload exists, and the sizes, are documented in README.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from galmin import characters, charexp, extremal, forms, minimize, verify

import reference

BASELINE = Path(__file__).with_name("baseline.json")
SIEVE_LIMIT = 1_000_000
FW_TOLERANCE = 1e-4
WITNESS_ITERS = 3000  # the criterion-11 budget at N = 10^4
# Relative slack for comparing two float evaluations of one quantity.
SAME_VALUE_RTOL = 1e-8
# Relative slack for an inequality between two computed values.
ROUNDING = 1e-12


@dataclass
class Quality:
    """Result quality over one pass; none of it may get worse."""

    fw_uncertified: int = 0
    fw_gap_rel_max: float = 0.0
    e_scaled_sum: float = 0.0


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object, Quality], list[tuple[str, bool]]]
    # verify-all counts each of its assertions as one operation.
    per_assertion: bool = False


@dataclass
class Inputs:
    seed: int
    sieve: object
    beta: float
    smoke: bool
    rng: np.random.Generator = field(init=False)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)


def _kind(label: str):
    return forms.KernelKind.V_KERNEL if label == "V" else forms.KernelKind.T_KERNEL


def _recorded_brackets() -> dict:
    return json.loads(BASELINE.read_text())["fw_brackets"]


def _check_quadratic(res, label: str, start_value: float, quality: Quality,
                     bracket=None, witness_value=None) -> list[tuple[str, bool]]:
    value, gap = res.value, res.certificate_gap
    own = reference.quadratic_form(label, res.minimizer.weights)
    verdicts = [
        ("value_le_start", value <= start_value * (1 + ROUNDING)),
        ("value_is_form_at_minimizer",
         math.isclose(value, own, rel_tol=SAME_VALUE_RTOL)),
    ]
    if witness_value is not None:
        verdicts.append(("value_le_witness", value <= witness_value * (1 + ROUNDING)))
    if res.converged:
        verdicts.append(("gap_within_tolerance", 0 <= gap <= FW_TOLERANCE * value))
        if bracket is not None:
            lo, hi = bracket
            overlap = (value - gap <= hi * (1 + ROUNDING)
                       and lo <= value * (1 + ROUNDING))
            verdicts.append(("bracket_overlaps_seed", overlap))
    quality.fw_uncertified += not res.converged
    quality.fw_gap_rel_max = max(quality.fw_gap_rel_max, gap / value)
    return verdicts


# -- vt-certify -----------------------------------------------------------

def vt_certify(inp: Inputs) -> list[Job]:
    """Certified V and T minima from a seeded Dirichlet(1) start."""
    brackets = _recorded_brackets()
    jobs = []
    for n in ((16, 32) if inp.smoke else (1024, 2048, 3072)):
        start = inp.rng.dirichlet(np.ones(n))
        for label in ("V", "T"):
            jobs.append(_fw_job(label, n, start, brackets[label].get(str(n))))
    return jobs


def _fw_job(label: str, n: int, start: np.ndarray, bracket) -> Job:
    start_value = reference.quadratic_form(label, start)

    def run():
        return minimize.minimize_quadratic(
            forms.KernelSpec(_kind(label)), n, tolerance=FW_TOLERANCE,
            start=forms.WeightVector(n, start))

    def check(res, quality):
        return _check_quadratic(res, label, start_value, quality, bracket=bracket)

    return Job(f"{label}{n}", run, check)


# -- witness-chain --------------------------------------------------------

def witness_chain(inp: Inputs) -> list[Job]:
    """Level-set ratio table, then V and T started at the witness."""
    if inp.smoke:
        x = int(inp.rng.integers(1_900, 2_001))
        n = int(inp.rng.integers(100, 121))
        iters = 50
    else:
        x = int(inp.rng.integers(200_000, 205_001))
        n = int(inp.rng.integers(4_500, 4_601))
        iters = WITNESS_ITERS
    jobs = [_level_table_job(inp.sieve, x)]
    for label in ("V", "T"):
        jobs.append(_witness_job(inp, label, n, iters))
    return jobs


def _level_table_job(sieve, x: int) -> Job:
    kmax = int(1.9 * math.log(math.log(x)))
    want = reference.big_omega_counts(x)

    def run():
        return [(extremal.level_set_count(sieve, x, k),
                 extremal.filtered_count(sieve, x, k, 3.0))
                for k in range(1, kmax + 1)]

    def check(rows, quality):
        verdicts = []
        for k, (nk, fk) in enumerate(rows, start=1):
            exact = int(want[k]) if k < len(want) else 0
            verdicts.append((f"N_{k}_exact", nk == exact))
            verdicts.append((f"N_{k}_ge_F_{k}_ge_0", nk >= fk >= 0))
        verdicts.append(("sum_N_le_x", sum(nk for nk, _ in rows) <= x))
        return verdicts

    return Job(f"levels_x{x}", run, check)


def _witness_job(inp: Inputs, label: str, n: int, iters: int) -> Job:
    wit = extremal.witness_t(inp.sieve, n, inp.beta).normalized()
    wit_value = reference.quadratic_form(label, wit.weights)
    start_value = min(wit_value, reference.quadratic_form(label, np.full(n, 1.0 / n)))

    def run():
        return minimize.minimize_with_witness(_kind(label), n, inp.sieve, inp.beta,
                                              max_iters=iters)

    def check(out, quality):
        res, reported_wit = out
        verdicts = _check_quadratic(res, label, start_value, quality,
                                    witness_value=reported_wit)
        verdicts.append(("witness_value_matches",
                         math.isclose(reported_wit, wit_value, rel_tol=SAME_VALUE_RTOL)))
        return verdicts

    return Job(f"{label}{n}_witness", run, check)


# -- energy-moments -------------------------------------------------------

def energy_moments(inp: Inputs) -> list[Job]:
    """E upper bounds, then the character-side experiments."""
    if inp.smoke:
        ns, burgess, moll_p, theta_p, theta_x, low = (8, 16), (101, 30), 499, 101, 1.0, (101, 9)
    else:
        ns, burgess, moll_p, theta_p, theta_x, low = (
            (128, 256, 512), (1999, 666), 49999, 10007, 0.01, (10007, 99))
    jobs = [_energy_job(inp, n) for n in ns]
    jobs.append(_report_job(
        f"burgess_p{burgess[0]}",
        lambda: charexp.burgess_experiment(burgess[0], r=2, N=burgess[1])))
    jobs.append(_mollify_job(inp, moll_p))
    jobs.append(_theta_job(theta_p, theta_x))
    jobs.append(_report_job(
        f"lowmoment_p{low[0]}",
        lambda: charexp.low_moment_experiment(low[0], low[1], 1.0)))
    return jobs


def _energy_job(inp: Inputs, n: int) -> Job:
    wit_value = reference.energy(extremal.witness_e(inp.sieve, n).normalized().weights)
    h = reference.distinct_products(n)

    def run():
        return minimize.minimize_energy(n, restarts=4, seed=inp.seed, sieve=inp.sieve)

    def check(res, quality):
        quality.e_scaled_sum += res.scaled_value
        return [
            ("value_times_H_ge_1", res.value * h >= 1.0 - 1e-8),
            ("value_le_witness", res.value <= wit_value * (1 + ROUNDING)),
            ("value_is_energy_at_minimizer",
             math.isclose(res.value, reference.energy(res.minimizer.weights),
                          rel_tol=SAME_VALUE_RTOL)),
        ]

    return Job(f"E{n}", run, check)


def _report_job(name: str, run) -> Job:
    def check(rep, quality):
        return [(a.name, a.holds) for a in rep.assertions]

    return Job(name, run, check)


def _mollify_job(inp: Inputs, p: int) -> Job:
    q = math.isqrt(p // 3)
    weights = inp.rng.random(q) + 0.05
    m4_want = 0.5 * (p - 1) * reference.energy(weights)

    def run():
        return charexp.mollified_moments(p, 1.0, forms.WeightVector(q, weights))

    def check(mm, quality):
        return [
            ("M0_ge_holder", mm.M0 >= mm.holder_lower_bound - 1e-6),
            ("M4_is_half_p_minus_1_times_E",
             math.isclose(mm.M4, m4_want, rel_tol=SAME_VALUE_RTOL)),
        ]

    return Job(f"mollify_p{p}", run, check)


def _theta_job(p: int, x: float) -> Job:
    config = characters.ThetaConfig(x=x)
    want = reference.even_theta_square_sum(p, characters.theta_cutoff(p, config), x)

    def run():
        return characters.theta_all_even(characters.build_table(p), config)

    def check(thetas, quality):
        return [
            ("one_value_per_even_character", len(thetas) == (p - 1) // 2),
            ("square_sum_orthogonality",
             math.isclose(float(np.vdot(thetas, thetas).real), want,
                          rel_tol=SAME_VALUE_RTOL)),
        ]

    return Job(f"theta_p{p}", run, check)


# -- verify-fast ----------------------------------------------------------

def verify_fast(inp: Inputs) -> list[Job]:
    """`galmin verify-all --fast`: one job, one operation per assertion."""
    def check(rep, quality):
        return [(a.name, a.holds) for a in rep.assertions]

    return [Job("verify_all_fast",
                lambda: verify.run_verification(seed=inp.seed, fast=True),
                check, per_assertion=True)]


WORKLOADS = {
    "vt-certify": vt_certify,
    "witness-chain": witness_chain,
    "energy-moments": energy_moments,
    "verify-fast": verify_fast,
}
