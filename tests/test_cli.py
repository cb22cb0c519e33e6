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


def test_usage_error_exit_code(capsys):
    # Invalid N for the witness construction.
    code, _ = _run(capsys, "witness", "--kind", "t", "--n", "10")
    assert code == EXIT_USAGE


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
