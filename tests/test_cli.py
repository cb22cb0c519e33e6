import argparse
import contextlib
import io
import json
import math
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galmin import arith, cli
from galmin.cli import (
    EXIT_ASSERTION,
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from galmin.report import ExperimentReport, Timer


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_constants_json(capsys):
    code, out = _run(capsys, "constants")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["values"]["beta"] - 0.48155) < 1e-4
    assert abs(doc["values"]["delta"] - 0.08607) < 1e-4
    assert doc["timing_ms"] == 0.0  # canonical output is byte-reproducible


def test_constants_reproducible(capsys):
    _, first = _run(capsys, "constants")
    _, second = _run(capsys, "constants")
    assert first == second


def test_minimize_v(capsys):
    code, out = _run(capsys, "minimize", "--form", "v", "--n", "2",
                     "--tol", "1e-10")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["values"]["scaled_value"] - 5 / 6) < 1e-8
    assert doc["values"]["converged"] is True


def test_minimize_and_scaling_json_carry_the_stop_reason(capsys):
    code, out = _run(capsys, "minimize", "--form", "t", "--n", "8")
    assert code == EXIT_OK
    assert json.loads(out)["values"]["stop_reason"] == "gap_reached"
    code, out = _run(capsys, "scaling", "--form", "v", "--n-list", "4,8")
    assert code == EXIT_OK
    rows = json.loads(out)["values"]["rows"]
    assert [row["stop_reason"] for row in rows] == ["gap_reached"] * 2


def test_minimize_energy(capsys):
    code, out = _run(capsys, "minimize", "--form", "e", "--n", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["values"]["certificate_gap"] is None


def test_scaling_csv(capsys):
    code, out = _run(capsys, "--csv", "scaling", "--form", "t",
                     "--n-list", "4,8,16")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "N"
    assert len(lines) == 4


def test_witness_support(capsys):
    code, out = _run(capsys, "witness", "--kind", "e", "--n", "100")
    assert code == EXIT_OK
    doc = json.loads(out)
    support = doc["values"]["support"]
    assert all(50 < n <= 100 for n in support)


def test_counts_with_table(capsys):
    code, out = _run(capsys, "counts", "--x", "1000", "--k", "2",
                     "--table-n", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["values"]["H"] == 14
    assert doc["values"]["F_k"] <= doc["values"]["N_k"]


def test_charsum(capsys):
    code, out = _run(capsys, "charsum", "--p", "17", "--j", "2",
                     "--m", "0", "--n", "17")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["values"]["abs"] < 1e-10  # full period of a nonprincipal chi


def test_theta_all_even_csv(capsys):
    code, out = _run(capsys, "--csv", "theta", "--p", "13", "--x", "1.0",
                     "--all-even")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "j,theta_re,theta_im,abs"
    assert len(lines) == 7  # header + 6 even characters


@pytest.mark.parametrize("j", ["3", "-2", "500"])
def test_theta_rejects_invalid_character_index(capsys, j):
    code, out = _run(capsys, "theta", "--p", "101", "--x", "1.0", "--j", j)
    assert code == EXIT_USAGE
    assert out == ""


def test_mollify(capsys):
    code, out = _run(capsys, "mollify", "--p", "61", "--x", "1.0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["values"]["M0"] >= doc["values"]["holder_lower_bound"] - 1e-6


def test_mollify_missing_weights_file(capsys, tmp_path):
    code = main(["mollify", "--p", "101", "--x", "1",
                 "--weights", str(tmp_path / "missing.txt")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_mollify_non_finite_weight_exits_2(capsys, tmp_path):
    weights = tmp_path / "weights.txt"
    weights.write_text("1.0\nnan\n0.5\n")
    code = main(["mollify", "--p", "31", "--x", "1", "--weights", str(weights)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: weights must be finite")


def test_mollify_degenerate_moments_exit_2(capsys, monkeypatch):
    from galmin import charexp

    monkeypatch.setattr(charexp, "theta_all_even",
                        lambda table, config: np.zeros((table.p - 1) // 2, complex))
    code = main(["mollify", "--p", "61", "--x", "1.0"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: degenerate moments")


def test_burgess_and_lowmoment(capsys):
    code, out = _run(capsys, "burgess", "--p", "101", "--r", "2", "--n", "30")
    assert code == EXIT_OK
    assert all(a["holds"] for a in json.loads(out)["assertions"])
    code, out = _run(capsys, "lowmoment", "--p", "101", "--n", "9",
                     "--r", "1.0")
    assert code == EXIT_OK
    assert all(a["holds"] for a in json.loads(out)["assertions"])


def _matches(got, want):
    """Equal ints, strings and verdicts; floats within rel 1e-12, or abs
    1e-12 near 0; only the keys of a wanted dict are compared."""
    if isinstance(want, dict):
        return all(k in got and _matches(got[k], v) for k, v in want.items())
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_matches, got, want))
    if isinstance(want, float):
        return (isinstance(got, float)
                and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12))
    return type(got) is type(want) and got == want


def _assertion(name, lhs, rhs, holds=True):
    return {"name": name, "lhs": lhs, "rhs": rhs, "holds": holds}


# Outputs of the README character commands. The all-character sums are
# FFTs and the shifted sums prefix sums, so floats may differ from the
# direct sums by rounding only.
PINNED_OUTPUTS = [
    (["mollify", "--p", "499", "--x", "1.0", "--weights", "uniform"], {
        "parameters": {"q": 12, "zero_threshold": 8.602325267042627e-10},
        "values": {"M0": 249, "M1_re": 2210.2461923358433,
                   "M1_im": -4.440892098500626e-15, "M2": 1842.048340366948,
                   "M4": 107567.99999999997,
                   "holder_lower_bound": 65.38490005139514,
                   "theta_min_abs": 0.03493971632032658},
        "assertions": [_assertion("M0_vs_holder", 249.0, 65.38489905139514)],
    }),
    (["lowmoment", "--p", "101", "--n", "9", "--r", "1.0"], {
        "values": {"E_nu_upper_bound": 2.4092025999489715,
                   "cross_term": 8.272727272727273,
                   "mollified_4": 144.8383838383838,
                   "moment_2": 8.272727272727273,
                   "moment_r": 2.5554488892737193, "nu": 9,
                   "ratio_vs_shape": 1.322155713437939},
        "assertions": [
            _assertion("exponent_identity", 1.0, 1.0),
            _assertion("holder_moments", 8.272727272727273, 9.405170953348819),
            _assertion("second_moment_identity", 8.272727272727273,
                       8.272727272727273),
        ],
    }),
    (["burgess", "--p", "101", "--r", "2", "--n", "30"], {
        "parameters": {"A": 1, "B": 6},
        "values": {"R": 30.0, "holder_min_slack": 97665304.58846179,
                   "max_S_window": 11.03191410163119,
                   "max_averaged_S": 80.1350153837225,
                   "ratio_T": 0.8477737919346091,
                   "ratio_V": 1.0081786252814737,
                   "shape_T_normalization": 13.012803894841452,
                   "shape_V_normalization": 10.94242014757175,
                   "sum_r": 30.0, "v_form_at_c": 0.5},
        "assertions": [
            _assertion("sum_r_equals_N_times_norm", 30.0, 30.0),
            _assertion("R_bound_gcd_form", 30.0, 31.0),
            _assertion("holder_chain_all_chi", 97665304.58846179, 0.0),
            _assertion("trivial_window_bound", 11.03191410163119, 30.0),
        ],
    }),
]

# theta --p 101 --x 1.0 --all-even: 50 rows, of which these are pinned.
PINNED_THETA_ROWS = {
    0: {"j": 0, "theta_re": 4.524937810560444, "theta_im": 0.0,
        "abs": 4.524937810560444},
    1: {"j": 2, "theta_re": 1.3314880013552775, "theta_im": 1.230512466427523,
        "abs": 1.8130144036346256},
    25: {"j": 50, "theta_re": 0.3783017728647588,
         "theta_im": 2.539082275396543e-16, "abs": 0.3783017728647588},
    49: {"j": 98, "theta_re": 1.3314880013552768,
         "theta_im": -1.230512466427523, "abs": 1.8130144036346252},
}


@pytest.mark.parametrize("argv,want", PINNED_OUTPUTS,
                         ids=[argv[0] for argv, _ in PINNED_OUTPUTS])
def test_character_outputs_pinned(capsys, argv, want):
    code, out = _run(capsys, *argv)
    assert code == EXIT_OK
    doc = json.loads(out)
    for key, part in want.items():
        assert _matches(doc[key], part), (key, doc[key])


def test_theta_all_even_pinned(capsys):
    code, out = _run(capsys, "theta", "--p", "101", "--x", "1.0", "--all-even")
    assert code == EXIT_OK
    rows = json.loads(out)["values"]["rows"]
    assert len(rows) == 50
    for i, row in PINNED_THETA_ROWS.items():
        assert _matches(rows[i], row), rows[i]


def test_theta_over_budget_exits_3_at_once(capsys):
    # The cutoff would be about 4e8 terms; the search stops at the budget.
    t0 = time.perf_counter()
    code, out = _run(capsys, "theta", "--p", "10007", "--x", "1e-12",
                     "--all-even")
    assert code == EXIT_BUDGET
    assert out == ""
    assert time.perf_counter() - t0 < 5.0


def test_polyzeta_over_budget_exits_3_at_once(capsys):
    # The fine pass would need about 1.4 TB; nothing is allocated.
    t0 = time.perf_counter()
    code = main(["polyzeta", "--n", "8", "--t", "1e9", "--r", "2", "--step", "0.1"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: ")
    assert elapsed < 1.0


def test_polyzeta_over_its_time_cap_exits_3_at_once(capsys):
    # The logs (0.8 GB) fit the byte budget; 10^8 n at 302 quadrature
    # points would run for about half an hour.
    t0 = time.perf_counter()
    code = main(["polyzeta", "--n", "100000000", "--t", "1", "--r", "1"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: zeta_poly_moment limited to ")
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ["mollify", "--p", "97612891", "--x", "1.0"],
    ["lowmoment", "--p", "23000009", "--n", "10", "--r", "1.0"],
], ids=["mollify", "lowmoment"])
def test_character_experiment_over_budget_exits_3_before_the_table(
        capsys, monkeypatch, argv):
    # The table alone fits the budget; with the sums after it, it does not.
    def no_table(p):
        raise AssertionError(f"table of {p} built for a refused request")

    monkeypatch.setattr("galmin.charexp.build_table", no_table)
    monkeypatch.setattr("galmin.characters.build_table", no_table)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: ")
    assert "table included" in captured.err


@pytest.mark.parametrize("argv", [
    ["mollify", "--p", "97612892", "--x", "1.0"],
    ["lowmoment", "--p", "23000008", "--n", "10", "--r", "1.0"],
], ids=["mollify", "lowmoment"])
def test_character_experiment_bad_modulus_exits_2_before_the_budget(capsys, argv):
    code = main(argv)
    assert code == EXIT_USAGE
    assert "modulus must be an odd prime" in capsys.readouterr().err


def test_minimize_e_over_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("galmin.arith.BYTES_BUDGET", 1 << 20)
    code = main(["minimize", "--form", "e", "--n", "512"])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: EnergyIndex(512)")


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("galmin.cli.burgess_experiment", broken)
    code = main(["burgess", "--p", "101", "--r", "2", "--n", "30"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError('boom')")
    assert "Traceback" in captured.err


def test_polyzeta(capsys):
    code, out = _run(capsys, "polyzeta", "--n", "3", "--t", "1000",
                     "--r", "2.0", "--step", "0.05")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["values"]["value"] - 3.0) < 0.2


@pytest.mark.parametrize("t, r, step", [("inf", "2", "0.1"), ("10", "nan", "0.1"),
                                        ("10", "2", "nan"), ("nan", "2", "0.1")])
def test_polyzeta_rejects_non_finite_input(capsys, t, r, step):
    code = main(["polyzeta", "--n", "4", "--t", t, "--r", r, "--step", step])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: need finite T, r and step")


# Every check of `verify-all --fast`, in report order.
VERIFY_ALL_CHECKS = [
    "beta_near_048155", "eta_near_016656", "eta_below_one_sixth",
    "delta_near_008607", "q_at_one_is_zero",
    "phi_divisor_sum", "big_omega_ge_small_omega",
    "kernel_inequality_V_le_half_T", "t_naive_vs_fast",
    "r_mass_identity_N5", "energy_times_H_ge_one_N5",
    "r_mass_identity_N17", "energy_times_H_ge_one_N17",
    "r_mass_identity_N60", "energy_times_H_ge_one_N60",
    "e_gradient_finite_difference",
    "V2_closed_form", "T2_closed_form", "E2_closed_form",
    "V3_vs_exact_minimum", "T3_vs_exact_minimum", "E3_vs_grid_oracle",
    "V4_vs_exact_minimum", "T4_vs_exact_minimum", "E4_vs_grid_oracle",
    "V5_vs_exact_minimum", "T5_vs_exact_minimum", "E5_vs_grid_oracle",
    "H_3", "H_4", "H_5",
    "gauss_sum_modulus", "parseval",
    "orthogonality_plus_minus", "orthogonality_zero",
    "polya_residual_decay",
    "weil_moment_bound", "R_bound_gcd_form_grid",
    "mollified_holder_and_M4_identity", "low_moment_holder",
]


GOLDEN_VERIFY_ALL_FAST = Path(__file__).parent / "data" / "verify_all_fast_seed0.json"


def _assert_matches_golden(got, want, where="$"):
    """Names, ints and verdicts exactly; floats to rel 1e-12 (abs 1e-15),
    NaN only where NaN is wanted."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), where
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (where, got, want)
    else:
        assert got == want, where


_TIME_LINE = re.compile(r"\[galmin\] ([\w-]+): (\d+\.\d) ms")
_CHECKS_LINE = re.compile(r"\[galmin\] ([\w-]+): (\d+) checks, 0 failures")


def _assert_stderr_lines(err, n_checks):
    """One time line; then a checks line exactly when there are checks.
    Returns the time in ms."""
    lines = err.splitlines()
    assert len(lines) == 1 + (n_checks > 0), lines
    time_line = _TIME_LINE.fullmatch(lines[0])
    assert time_line, lines
    if n_checks:
        checks = _CHECKS_LINE.fullmatch(lines[1])
        assert checks and checks[1] == time_line[1], lines
        assert int(checks[2]) == n_checks, lines
    return float(time_line[2])


GOLDEN_CLI_OUTPUTS = json.loads(
    (Path(__file__).parent / "data" / "cli_outputs.json").read_text())


def _csv_cells(text):
    """CSV text as rows of ints, floats and strings (empty for None)."""
    def cell(s):
        for parse in (int, float):
            try:
                return parse(s)
            except ValueError:
                pass
        return s

    return [[cell(s) for s in line.split(",")] for line in text.splitlines()]


@pytest.mark.parametrize("command", list(GOLDEN_CLI_OUTPUTS))
def test_cli_output_matches_golden(capsys, command):
    # The README commands at their README sizes, plus CSV, witness-weight
    # and below-the-witness-domain cases, stored when they last changed on
    # purpose.
    code = main(command.split())
    captured = capsys.readouterr()
    assert code == EXIT_OK
    want = GOLDEN_CLI_OUTPUTS[command]
    if isinstance(want, str):
        _assert_matches_golden(_csv_cells(captured.out), _csv_cells(want))
        n_checks = 0  # no tabular report carries assertions
    else:
        _assert_matches_golden(json.loads(captured.out), want)
        n_checks = len(want["assertions"])
    _assert_stderr_lines(captured.err, n_checks)


@pytest.mark.parametrize("command", [
    "witness --kind e --n 100",
    "--csv witness --kind e --n 100",
    "counts --x 1000 --k 2",
    "minimize --form e --n 64",
])
def test_reported_time_spans_the_sieve_build(capsys, monkeypatch, command):
    build_sieve = cli.build_sieve

    def slow_sieve(limit):
        time.sleep(0.05)
        return build_sieve(limit)

    monkeypatch.setattr(cli, "build_sieve", slow_sieve)
    code = main(command.split())
    captured = capsys.readouterr()
    assert code == EXIT_OK
    n_checks = 0 if "--csv" in command else len(json.loads(captured.out)["assertions"])
    assert _assert_stderr_lines(captured.err, n_checks) >= 50.0


def test_verify_all_fast(capsys):
    code, out = _run(capsys, "verify-all", "--fast")
    assert code == EXIT_OK
    doc = json.loads(out)
    assertions = doc["assertions"]
    assert [a["name"] for a in assertions] == VERIFY_ALL_CHECKS
    assert [a["name"] for a in assertions if not a["holds"]] == []
    # The canonical output of --seed 0 (the default), stored when it last
    # changed on purpose.
    _assert_matches_golden(doc, json.loads(GOLDEN_VERIFY_ALL_FAST.read_text()))


def _csv_checks(out):
    """The check,lhs,rhs,holds block of CSV output, as rows of strings."""
    lines = out.splitlines()
    start = lines.index("check,lhs,rhs,holds")
    return [line.split(",") for line in lines[start + 1:]]


def test_verify_all_fast_csv_lists_its_checks(capsys):
    code, out = _run(capsys, "--csv", "verify-all", "--fast")
    assert code == EXIT_OK
    assert out.startswith("key,value\n")
    checks = _csv_checks(out)
    assert [row[0] for row in checks] == VERIFY_ALL_CHECKS
    assert len(checks) == 40
    assert all(row[3] == "True" for row in checks)


@pytest.mark.parametrize("table, n, value, check", [
    ("phi_table", 997, 997, "phi_divisor_sum"),  # phi(997) + 1
    ("big_omega_table", 30, 2, "big_omega_ge_small_omega"),  # Omega(30) - 1
])
def test_verify_all_checks_the_tables_the_solvers_read(capsys, monkeypatch,
                                                      table, n, value, check):
    build = getattr(arith, table)

    def corrupted(sieve, upto):
        t = build(sieve, upto)
        t[n] = value
        return t

    monkeypatch.setattr(f"galmin.verify.{table}", corrupted)
    code, out = _run(capsys, "verify-all", "--fast")
    assert code == EXIT_ASSERTION
    assert [a["name"] for a in json.loads(out)["assertions"] if not a["holds"]] == [check]


def test_csv_prints_a_failing_check_as_false(capsys, monkeypatch):
    monkeypatch.setattr("galmin.charexp.weil_bound", lambda B, r, p: 0.0)
    code, out = _run(capsys, "--csv", "burgess", "--p", "13", "--r", "2", "--n", "9")
    assert code == EXIT_ASSERTION
    failed = [row for row in _csv_checks(out) if row[3] == "False"]
    assert [row[0] for row in failed] == [f"weil_moment_chi_{j}" for j in range(1, 12)]
    assert all(float(row[2]) == 0.0 for row in failed)


def test_usage_error_exit_code(capsys):
    # Invalid N for the witness construction.
    code, _ = _run(capsys, "witness", "--kind", "t", "--n", "10")
    assert code == EXIT_USAGE


def test_invalid_modulus_is_rejected_before_the_sieve(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieve of size {limit} built for a bad modulus")

    monkeypatch.setattr("galmin.characters.build_sieve", no_sieve)
    # Odd composite above the sieve cap, even, and below 3.
    for p in ("999999999", "100000000", "1"):
        code = main(["charsum", "--p", p, "--j", "1", "--m", "0", "--n", "5"])
        assert code == EXIT_USAGE
        assert "modulus must be an odd prime" in capsys.readouterr().err


def test_budget_error_exit_code(capsys):
    code, _ = _run(capsys, "burgess", "--p", "2003", "--r", "2", "--n", "10")
    assert code == EXIT_BUDGET


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_report_json_sorted_and_timing_zeroed():
    rep = ExperimentReport("demo", parameters={"b": 1, "a": 2})
    with Timer() as tm:
        rep.check("x_positive", 1.0, 0.0, True)
    rep.timing_ms = tm.ms
    doc = json.loads(rep.to_json())
    assert doc["timing_ms"] == 0.0
    assert rep.as_dict()["timing_ms"] == rep.timing_ms
    keys = list(doc)
    assert keys == sorted(keys)
    assert rep.all_hold


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_minimize_rejects_a_tolerance_that_is_not_finite_and_positive(capsys, tol):
    for form in ("v", "e"):
        code = main(["minimize", "--form", form, "--n", "8", "--tol", tol])
        assert code == EXIT_USAGE
        assert "tolerance must be finite and > 0" in capsys.readouterr().err


def test_counts_table_n_zero_exits_2(capsys):
    code, out = _run(capsys, "counts", "--x", "1000", "--k", "2", "--table-n", "0")
    assert code == EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["counts", "--x", "100000", "--k", "4", "--C", "nan"],
    ["witness", "--kind", "e", "--n", "100", "--C", "nan"],
    ["witness", "--kind", "t", "--n", "1000", "--C", "nan"],
])
def test_nan_growth_constant_exits_2(capsys, argv):
    # A NaN bound would accept every candidate.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "LocCondition requires" in captured.err


@pytest.mark.parametrize("p", ["7", "13", "31"])
def test_mollify_witness_weights_below_the_witness_domain_are_unit_weights(capsys, p):
    _, uniform = _run(capsys, "mollify", "--p", p, "--x", "1.0")
    code, witness = _run(capsys, "mollify", "--p", p, "--x", "1.0",
                         "--weights", "witness")
    assert code == EXIT_OK
    uniform, witness = json.loads(uniform), json.loads(witness)
    assert witness["parameters"]["q"] < 4
    assert witness["values"] == uniform["values"]


def test_burgess_witness_mode_below_the_witness_domain_uses_unit_weights(capsys):
    argv = ["burgess", "--p", "101", "--r", "2", "--n", "30"]
    _, uniform = _run(capsys, *argv)
    code, witness = _run(capsys, *argv, "--c-mode", "witness")
    assert code == EXIT_OK
    uniform, witness = json.loads(uniform), json.loads(witness)
    assert witness["parameters"]["A"] < 16
    assert witness["values"] == uniform["values"]
    assert witness["assertions"] == uniform["assertions"]


@pytest.mark.parametrize("argv,used", [
    (["burgess", "--p", "101", "--r", "2", "--n", "30", "--c-mode", "witness"],
     "uniform"),
    (["burgess", "--p", "1999", "--r", "2", "--n", "3500", "--c-mode", "witness"],
     "witness"),
    (["burgess", "--p", "101", "--r", "2", "--n", "30", "--c-mode", "minimizer"],
     "minimizer"),
    (["mollify", "--p", "31", "--x", "1.0", "--weights", "witness"], "uniform"),
    (["mollify", "--p", "499", "--x", "1.0", "--weights", "witness"], "witness"),
], ids=["burgess-A1", "burgess-A16", "burgess-minimizer", "mollify-q3",
        "mollify-q12"])
def test_reports_say_which_weights_they_used(capsys, argv, used):
    code, out = _run(capsys, *argv)
    assert code == EXIT_OK
    values = json.loads(out)["values"]
    assert values["c_used" if argv[0] == "burgess" else "weights_used"] == used


def test_mollify_weights_file_is_reported(capsys, tmp_path):
    weights = tmp_path / "weights.txt"
    weights.write_text("1.0\n0.5\n0.25\n")
    code, out = _run(capsys, "mollify", "--p", "31", "--x", "1.0",
                     "--weights", str(weights))
    assert code == EXIT_OK
    assert json.loads(out)["values"]["weights_used"] == "file"


def test_readme_commands_parse_and_cover_every_subcommand():
    parser = build_parser()
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    commands = [line.split("#")[0] for line in readme.splitlines()
                if line.startswith("galmin ")]
    used = {parser.parse_args(shlex.split(c)[1:]).command for c in commands}
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert used == set(subparsers.choices)


def test_scaling_e_below_the_witness_domain_reports_nan(capsys):
    code, out = _run(capsys, "scaling", "--form", "e", "--n-list", "2,3")
    assert code == EXIT_OK
    rows = json.loads(out)["values"]["rows"]
    assert all(math.isnan(row["witness_value"]) for row in rows)


def test_charsum_over_budget_exits_3_at_once(capsys):
    # 10^11 terms would need about 7 TB; nothing is allocated.
    code = main(["charsum", "--p", "101", "--j", "1", "--m", "0",
                 "--n", "100000000000"])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: character sum")


@pytest.mark.parametrize("form", ["v", "t", "e"])
def test_scaling_n_zero_exits_2(capsys, form):
    code = main(["scaling", "--form", form, "--n-list", "0"])
    assert code == EXIT_USAGE
    assert "each >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["v", "t"])
def test_minimize_over_the_byte_budget_exits_3_at_once(capsys, form):
    # The operator at N = 3e7 would need about 5 GB; its estimate refuses it
    # before the sieve is built.
    t0 = time.perf_counter()
    code = main(["minimize", "--form", form, "--n", "30000000"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: KernelOperator")
    assert elapsed < 1.0


_TINY = st.integers(min_value=-3, max_value=64).map(str)


def _argv(*parts):
    """An argv strategy: strings are kept, strategies drawn."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p
                       for p in parts)).map(list)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    _argv("minimize", "--form", st.sampled_from(["v", "t", "e"]), "--n", _TINY),
    _argv("witness", "--kind", st.sampled_from(["t", "e"]), "--n", _TINY),
    _argv("counts", "--x", _TINY, "--k", _TINY, "--table-n", _TINY),
    _argv("charsum", "--p", _TINY, "--j", _TINY, "--m", _TINY, "--n", _TINY),
    _argv("burgess", "--p", _TINY, "--r", _TINY, "--n", _TINY, "--m", _TINY),
    _argv("lowmoment", "--p", _TINY, "--n", _TINY, "--r", _TINY),
))
@example(["minimize", "--form", "v", "--n", "30000000"])
@example(["minimize", "--form", "t", "--n", "30000000"])
@example(["burgess", "--p", "3", "--r", "2", "--n", "0"])
@example(["charsum", "--p", "101", "--j", "1", "--m", "0", "--n", "100000000000"])
def test_exit_contract_on_tiny_arguments(argv):
    # 0 ok, 1 exactly when a reported assertion is false, 2 usage, 3
    # budget; never 4. A refused command prints no report.
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_USAGE, EXIT_BUDGET)
    if code in (EXIT_USAGE, EXIT_BUDGET):
        assert out.getvalue() == ""
    else:
        doc = json.loads(out.getvalue())
        holds = all(a["holds"] for a in doc["assertions"])
        assert (code == EXIT_ASSERTION) == (not holds)
