import json

import pytest

from galmin.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
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


def test_burgess_and_lowmoment(capsys):
    code, out = _run(capsys, "burgess", "--p", "101", "--r", "2", "--n", "30")
    assert code == EXIT_OK
    assert all(a["holds"] for a in json.loads(out)["assertions"])
    code, out = _run(capsys, "lowmoment", "--p", "101", "--n", "9",
                     "--r", "1.0")
    assert code == EXIT_OK
    assert all(a["holds"] for a in json.loads(out)["assertions"])


def test_polyzeta(capsys):
    code, out = _run(capsys, "polyzeta", "--n", "3", "--t", "1000",
                     "--r", "2.0", "--step", "0.05")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["values"]["value"] - 3.0) < 0.2


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
    "V3_vs_grid_oracle", "T3_vs_grid_oracle", "E3_vs_grid_oracle",
    "V4_vs_grid_oracle", "T4_vs_grid_oracle", "E4_vs_grid_oracle",
    "V5_vs_grid_oracle", "T5_vs_grid_oracle", "E5_vs_grid_oracle",
    "H_3", "H_4", "H_5",
    "gauss_sum_modulus", "parseval",
    "orthogonality_plus_minus", "orthogonality_zero",
    "polya_residual_decay",
    "weil_moment_bound", "R_bound_gcd_form_grid",
    "mollified_holder_and_M4_identity", "low_moment_holder",
]


def test_verify_all_fast(capsys):
    code, out = _run(capsys, "verify-all", "--fast")
    assert code == EXIT_OK
    assertions = json.loads(out)["assertions"]
    assert [a["name"] for a in assertions] == VERIFY_ALL_CHECKS
    assert [a["name"] for a in assertions if not a["holds"]] == []


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
