"""Command-line entry point.

One experiment per invocation. Each command only builds and returns an
ExperimentReport; main() times the command, from after argument parsing
to the returned report, and emits it: a single JSON document on stdout
(CSV is a projection of the same numbers via --csv), then on stderr the
time and, for a report with assertions, its count of checks and
failures. Exit codes: 0 success, 1 failed assertion, 2 usage error or
degenerate input, 3 budget violation, 4 internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback

import numpy as np

from .arith import BudgetError, build_sieve
from .characters import ThetaConfig, build_table, char_sum, theta_all_even
from .charexp import (
    DegenerateMomentsError,
    burgess_experiment,
    low_moment_experiment,
    mollified_moments,
    mollifier_length,
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
from .forms import KernelKind, WeightVector
from .minimize import minimize_energy, minimize_quadratic, scaling_report
from .report import ExperimentReport, Timer

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(report: ExperimentReport, args) -> None:
    """The report on stdout, as JSON or as CSV rows followed by a
    check,lhs,rhs,holds block when it carries assertions; its time and,
    if it carries assertions, their count and failures on stderr."""
    if not args.csv:
        print(report.to_json())
    elif rows := args.csv_rows(report):
        keys = list(rows[0].keys())
        print(",".join(keys))
        for row in rows:
            print(",".join("" if row[k] is None else repr(row[k])
                           for k in keys))
    else:
        print("key,value")
        for k in sorted(report.values):
            print(f"{k},{report.values[k]!r}")
    if args.csv and report.assertions:
        print("check,lhs,rhs,holds")
        for a in report.assertions:
            print(f"{a.name},{a.lhs!r},{a.rhs!r},{a.holds}")
    print(f"[galmin] {report.experiment}: {report.timing_ms:.1f} ms",
          file=sys.stderr)
    if report.assertions:
        n_fail = sum(1 for a in report.assertions if not a.holds)
        print(f"[galmin] {report.experiment}: {len(report.assertions)} checks, "
              f"{n_fail} failures", file=sys.stderr)


def _cmd_constants(args) -> ExperimentReport:
    pc = solve_beta(args.tol)
    return ExperimentReport("constants", parameters={"tolerance": args.tol},
                            values=pc.as_dict())


def _cmd_minimize(args) -> ExperimentReport:
    if args.form == "e":
        sieve = build_sieve(max(args.n, 16))
        res = minimize_energy(args.n, tolerance=args.tol,
                              restarts=args.restarts, seed=args.seed,
                              sieve=sieve)
    else:
        res = minimize_quadratic(KernelKind(args.form), args.n, tolerance=args.tol)
    return ExperimentReport(
        "minimize",
        parameters={"form": args.form, "n": args.n, "tol": args.tol,
                    "restarts": args.restarts, "seed": args.seed},
        values=res.as_dict(),
    )


def _cmd_scaling(args) -> ExperimentReport:
    n_list = [int(x) for x in args.n_list.split(",")]
    return scaling_report(args.form.upper(), n_list, tolerance=args.tol,
                          seed=args.seed)


def _cmd_witness(args) -> ExperimentReport:
    sieve = build_sieve(max(args.n, 16))
    if args.kind == "t":
        beta = solve_beta().beta
        wv = witness_t(sieve, args.n, beta, C=args.C)
    else:
        wv = witness_e(sieve, args.n, C=args.C)
    support = [int(v) for v in wv.support()]
    return ExperimentReport(
        "witness",
        parameters={"kind": args.kind, "n": args.n, "C": args.C},
        values={"support_size": len(support), "support": support},
    )


def _cmd_counts(args) -> ExperimentReport:
    sieve = build_sieve(max(args.x, 16))
    values = {
        "N_k": level_set_count(sieve, args.x, args.k),
        "F_k": filtered_count(sieve, args.x, args.k, args.C),
    }
    if args.table_n is not None:
        values["H"] = multiplication_table_count(args.table_n)
    return ExperimentReport(
        "counts",
        parameters={"x": args.x, "k": args.k, "C": args.C,
                    "table_n": args.table_n},
        values=values,
    )


def _cmd_charsum(args) -> ExperimentReport:
    table = build_table(args.p)
    s = char_sum(table.character(args.j), args.m, args.n)
    return ExperimentReport(
        "charsum",
        parameters={"p": args.p, "j": args.j, "m": args.m, "n": args.n},
        values={"sum_re": s.real, "sum_im": s.imag, "abs": abs(s)},
    )


def _cmd_theta(args) -> ExperimentReport:
    if not args.all_even and not (args.j % 2 == 0 and 0 <= args.j <= args.p - 3):
        raise ValueError(f"--j must be even with 0 <= j <= p-3, got {args.j}")
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
    return ExperimentReport("theta",
                            parameters={"p": args.p, "x": args.x, "j": args.j,
                                        "all_even": args.all_even},
                            values=values)


def _make_mollify_weights(mode: str, q: int) -> tuple[WeightVector, str]:
    """The weights and which of uniform, witness or file they are."""
    if mode == "uniform":
        return WeightVector.from_weights(np.ones(q)), "uniform"
    if mode == "witness":
        sieve = build_sieve(max(q, 16))
        try:
            return witness_e(sieve, q), "witness"
        except EmptyWitnessError:
            return WeightVector.from_weights(np.ones(q)), "uniform"
    # file mode: one weight per line
    with open(mode) as fh:
        data = [float(line) for line in fh]
    return WeightVector.from_weights(np.array(data)), "file"


def _cmd_mollify(args) -> ExperimentReport:
    q = mollifier_length(args.p)
    c, weights_used = _make_mollify_weights(args.weights, q)
    mm = mollified_moments(args.p, args.x, c)
    rep = ExperimentReport(
        "mollify",
        parameters={"p": args.p, "x": args.x, "weights": args.weights,
                    "q": q, "zero_threshold": mm.zero_threshold},
        values={"M0": mm.M0, "M1_re": mm.M1.real, "M1_im": mm.M1.imag,
                "M2": mm.M2, "M4": mm.M4,
                "holder_lower_bound": mm.holder_lower_bound,
                "theta_min_abs": mm.theta_min_abs,
                "weights_used": weights_used},
    )
    rep.check("M0_vs_holder", mm.M0, *mm.holder_check())
    return rep


def _cmd_burgess(args) -> ExperimentReport:
    return burgess_experiment(args.p, args.r, args.n, M=args.m, c_mode=args.c_mode)


def _cmd_lowmoment(args) -> ExperimentReport:
    return low_moment_experiment(args.p, args.n, args.r)


def _cmd_polyzeta(args) -> ExperimentReport:
    out = zeta_poly_moment(args.n, args.t, args.r, args.step)
    return ExperimentReport(
        "polyzeta",
        parameters={"n": args.n, "t": args.t, "r": args.r, "step": args.step},
        values=out,
    )


def _cmd_verify_all(args) -> ExperimentReport:
    from .verify import run_verification

    return run_verification(seed=args.seed, fast=args.fast)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="galmin")
    parser.add_argument("--csv", action="store_true",
                        help="emit tabular output as CSV instead of JSON")
    # The CSV rows of a report: its "rows" value unless a command says.
    parser.set_defaults(csv_rows=lambda rep: rep.values.get("rows"))
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
    p.set_defaults(func=_cmd_witness,
                   csv_rows=lambda rep: [{"n": m} for m in rep.values["support"]])

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
        with Timer() as tm:
            report = args.func(args)
        report.timing_ms = tm.ms
        _emit(report, args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, DegenerateMomentsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK if report.all_hold else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
