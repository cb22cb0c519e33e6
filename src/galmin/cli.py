"""Command-line entry point.

One experiment per invocation; the report is a single JSON document on
stdout (CSV is a projection of the same numbers via --csv). Exit codes:
0 success, 1 failed assertion, 2 usage error, 3 budget violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .arith import BudgetError, build_sieve
from .characters import ThetaConfig, build_table, char_sum, theta_all_even
from .charexp import (
    burgess_experiment,
    low_moment_experiment,
    mollified_moments,
    zeta_poly_moment,
)
from .constants import solve_beta
from .extremal import (
    EmptyWitnessError,
    filtered_count,
    level_set_count,
    multiplication_table_count,
    witness_e,
    witness_t,
)
from .forms import KernelKind, KernelSpec, WeightVector
from .minimize import grid_oracle, minimize_energy, minimize_quadratic, scaling_report
from .report import ExperimentReport, Timer

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(report: ExperimentReport, csv: bool) -> int:
    if csv:
        rows = report.values.get("rows")
        if rows:
            keys = list(rows[0].keys())
            print(",".join(keys))
            for row in rows:
                print(",".join("" if row[k] is None else repr(row[k])
                               for k in keys))
        else:
            print("key,value")
            for k in sorted(report.values):
                print(f"{k},{report.values[k]!r}")
    else:
        print(report.to_json())
    print(f"[galmin] {report.experiment}: {report.timing_ms:.1f} ms",
          file=sys.stderr)
    return EXIT_OK if report.all_hold else EXIT_ASSERTION


def _cmd_constants(args) -> int:
    with Timer() as tm:
        pc = solve_beta(args.tol)
    rep = ExperimentReport("constants", parameters={"tolerance": args.tol},
                           values=pc.as_dict())
    rep.timing_ms = tm.ms
    return _emit(rep, args.csv)


def _cmd_minimize(args) -> int:
    with Timer() as tm:
        if args.form == "e":
            sieve = build_sieve(max(args.n, 16)) if args.n >= 4 else None
            res = minimize_energy(args.n, tolerance=args.tol,
                                  restarts=args.restarts, seed=args.seed,
                                  sieve=sieve)
        else:
            kind = KernelKind.V_KERNEL if args.form == "v" else KernelKind.T_KERNEL
            res = minimize_quadratic(KernelSpec(kind), args.n, tolerance=args.tol)
    rep = ExperimentReport(
        "minimize",
        parameters={"form": args.form, "n": args.n, "tol": args.tol,
                    "restarts": args.restarts, "seed": args.seed},
        values=res.as_dict(),
    )
    rep.timing_ms = tm.ms
    return _emit(rep, args.csv)


def _cmd_scaling(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",")]
    rep = scaling_report(args.form.upper(), n_list, tolerance=args.tol,
                         seed=args.seed)
    return _emit(rep, args.csv)


def _cmd_witness(args) -> int:
    sieve = build_sieve(args.sieve_limit or max(args.n, 16))
    with Timer() as tm:
        if args.kind == "t":
            beta = solve_beta().beta
            wv = witness_t(sieve, args.n, beta, C=args.C)
        else:
            wv = witness_e(sieve, args.n, C=args.C)
    support = [int(v) for v in wv.support()]
    rep = ExperimentReport(
        "witness",
        parameters={"kind": args.kind, "n": args.n, "C": args.C},
        values={"support_size": len(support), "support": support},
    )
    rep.timing_ms = tm.ms
    if args.csv:
        print("n")
        for v in support:
            print(v)
        return EXIT_OK
    return _emit(rep, False)


def _cmd_counts(args) -> int:
    sieve = build_sieve(args.sieve_limit or max(args.x, 16))
    with Timer() as tm:
        values = {
            "N_k": level_set_count(sieve, args.x, args.k),
            "F_k": filtered_count(sieve, args.x, args.k, args.C),
        }
        if args.table_n:
            values["H"] = multiplication_table_count(args.table_n)
    rep = ExperimentReport(
        "counts",
        parameters={"x": args.x, "k": args.k, "C": args.C,
                    "table_n": args.table_n},
        values=values,
    )
    rep.timing_ms = tm.ms
    return _emit(rep, args.csv)


def _cmd_charsum(args) -> int:
    with Timer() as tm:
        table = build_table(args.p)
        s = char_sum(table.character(args.j), args.m, args.n)
    rep = ExperimentReport(
        "charsum",
        parameters={"p": args.p, "j": args.j, "m": args.m, "n": args.n},
        values={"sum_re": s.real, "sum_im": s.imag, "abs": abs(s)},
    )
    rep.timing_ms = tm.ms
    return _emit(rep, args.csv)


def _cmd_theta(args) -> int:
    if not args.all_even and not (args.j % 2 == 0 and 0 <= args.j <= args.p - 3):
        raise ValueError(f"--j must be even with 0 <= j <= p-3, got {args.j}")
    with Timer() as tm:
        table = build_table(args.p)
        config = ThetaConfig(x=args.x)
        thetas = theta_all_even(table, config)
        if args.all_even:
            rows = [{"j": 2 * i, "theta_re": float(t.real),
                     "theta_im": float(t.imag), "abs": float(abs(t))}
                    for i, t in enumerate(thetas)]
            values = {"rows": rows}
        else:
            t0 = thetas[args.j // 2]
            values = {"theta_re": t0.real, "theta_im": t0.imag, "abs": abs(t0)}
    rep = ExperimentReport("theta",
                           parameters={"p": args.p, "x": args.x, "j": args.j,
                                       "all_even": args.all_even},
                           values=values)
    rep.timing_ms = tm.ms
    return _emit(rep, args.csv)


def _make_mollify_weights(mode: str, q: int):
    if mode == "uniform":
        return WeightVector.from_weights(np.ones(q))
    if mode == "witness":
        sieve = build_sieve(max(q, 16))
        try:
            return witness_e(sieve, q) if q >= 4 else WeightVector.from_weights(np.ones(q))
        except EmptyWitnessError:
            return WeightVector.from_weights(np.ones(q))
    # file mode: one weight per line
    data = [float(line) for line in open(mode)]
    return WeightVector.from_weights(np.array(data))


def _cmd_mollify(args) -> int:
    with Timer() as tm:
        q = math.isqrt(args.p // 3)
        c = _make_mollify_weights(args.weights, q)
        mm = mollified_moments(args.p, args.x, c)
    rep = ExperimentReport(
        "mollify",
        parameters={"p": args.p, "x": args.x, "weights": args.weights,
                    "q": q, "zero_threshold": mm.zero_threshold},
        values={"M0": mm.M0, "M1_re": mm.M1.real, "M1_im": mm.M1.imag,
                "M2": mm.M2, "M4": mm.M4,
                "holder_lower_bound": mm.holder_lower_bound,
                "theta_min_abs": mm.theta_min_abs},
    )
    rep.check("M0_vs_holder", mm.M0, mm.holder_lower_bound - 1e-6,
              mm.M0 >= mm.holder_lower_bound - 1e-6)
    rep.timing_ms = tm.ms
    return _emit(rep, args.csv)


def _cmd_burgess(args) -> int:
    sieve = build_sieve(max(args.n, 16))
    rep = burgess_experiment(args.p, args.r, args.n, M=args.m,
                             c_mode=args.c_mode, sieve=sieve)
    return _emit(rep, args.csv)


def _cmd_lowmoment(args) -> int:
    rep = low_moment_experiment(args.p, args.n, args.r)
    return _emit(rep, args.csv)


def _cmd_polyzeta(args) -> int:
    with Timer() as tm:
        out = zeta_poly_moment(args.n, args.t, args.r, args.step)
    rep = ExperimentReport(
        "polyzeta",
        parameters={"n": args.n, "t": args.t, "r": args.r, "step": args.step},
        values=out,
    )
    rep.timing_ms = tm.ms
    return _emit(rep, args.csv)


def _cmd_verify_all(args) -> int:
    from .verify import run_verification

    rep = run_verification(seed=args.seed, fast=args.fast)
    code = _emit(rep, args.csv)
    n_fail = sum(1 for a in rep.assertions if not a.holds)
    print(f"[galmin] verify-all: {len(rep.assertions)} checks, "
          f"{n_fail} failures", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="galmin")
    parser.add_argument("--csv", action="store_true",
                        help="emit tabular output as CSV instead of JSON")
    parser.add_argument("--sieve-limit", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("minimize")
    p.add_argument("--form", choices=["v", "t", "e"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("scaling")
    p.add_argument("--form", choices=["v", "t", "e"], required=True)
    p.add_argument("--n-list", required=True, help="comma-separated N values")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("witness")
    p.add_argument("--kind", choices=["t", "e"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--C", type=float, default=3.0)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("counts")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--C", type=float, default=3.0)
    p.add_argument("--table-n", type=int, default=None)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("charsum")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_charsum)

    p = sub.add_parser("theta")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--all-even", action="store_true")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("mollify")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--weights", default="uniform",
                   help="uniform | witness | path to a weights file")
    p.set_defaults(func=_cmd_mollify)

    p = sub.add_parser("burgess")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--c-mode", choices=["uniform", "witness", "minimizer"],
                   default="uniform")
    p.set_defaults(func=_cmd_burgess)

    p = sub.add_parser("lowmoment")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(func=_cmd_lowmoment)

    p = sub.add_parser("polyzeta")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(func=_cmd_polyzeta)

    p = sub.add_parser("verify-all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast", action="store_true",
                   help="smaller grids for smoke testing")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, EmptyWitnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
