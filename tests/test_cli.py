import csv
import io
import json

import pytest

from speedrobust.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_from_json(out):
    return json.loads(out)


def rows_from_csv(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_bags_bricks_known_profile(capsys):
    code, out, _ = run_cli(capsys, "bags", "--mode", "bricks", "--n", "45", "--m", "9",
                           "--b", "9", "--rho", "8/5")
    assert code == 0
    rows = rows_from_json(out)
    assert [r["size"] for r in rows] == [8, 8, 6, 6, 4, 4, 4, 3, 3]
    assert rows[0]["total"] == 46 and rows[0]["successful"] is True


def test_bags_sand_and_auto(capsys):
    code, out, _ = run_cli(capsys, "bags", "--mode", "sand", "--m", "2", "--b", "4",
                           "--total", "15")
    assert code == 0
    assert [r["size"] for r in rows_from_json(out)] == [8, 4, 2, 1]

    code, out, _ = run_cli(capsys, "bags", "--mode", "auto", "--n", "45", "--m", "9", "--b", "9")
    assert code == 0
    assert sum(r["size"] for r in rows_from_json(out)) == 45


def test_bags_pebbles_inline_jobs(capsys):
    code, out, _ = run_cli(capsys, "bags", "--mode", "pebbles", "--m", "2", "--b", "2",
                           "--jobs", "1,1,1,1", "--rho", "11/6")
    assert code == 0
    rows = rows_from_json(out)
    assert [r["size"] for r in rows] == [3, 1]
    assert all(r["packed_all"] for r in rows)


def test_jobs_from_json_file(tmp_path, capsys):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(["1/2", "1/2", 1]))
    code, out, _ = run_cli(capsys, "bags", "--mode", "pebbles", "--m", "2", "--b", "2",
                           "--jobs", f"@{path}", "--rho", "2")
    assert code == 0
    assert rows_from_json(out)[0]["packed_all"] is True


def test_jobs_file_rejects_floats(tmp_path, capsys):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([0.5, 1]))
    code, _, err = run_cli(capsys, "bags", "--mode", "pebbles", "--m", "2", "--b", "2",
                           "--jobs", f"@{path}", "--rho", "2")
    assert code == 2
    assert "float" in err


def test_assign_greedy_with_trace(capsys):
    code, out, _ = run_cli(capsys, "assign", "--algo", "greedy", "--bags", "8,4,2,1",
                           "--speeds", "8,7", "--rho", "16/15", "--trace")
    assert code == 0
    rows = rows_from_json(out)
    assert [r["machine"] for r in rows] == [0, 1, 1, 1]
    assert rows[0]["before"] == "128/15"
    assert all(r["makespan"] == 1 for r in rows)


def test_assign_failure_exits_one(capsys):
    code, out, _ = run_cli(capsys, "assign", "--algo", "greedy", "--bags", "2",
                           "--speeds", "1,1", "--rho", "3/2")
    assert code == 1
    assert all(r["ok"] is False for r in rows_from_json(out))


def test_assign_optimal(capsys):
    code, out, _ = run_cli(capsys, "assign", "--algo", "optimal", "--bags", "2,2",
                           "--speeds", "3,1")
    assert code == 0
    rows = rows_from_json(out)
    assert rows[0]["makespan"] == "4/3"


def test_probe_default_profile(capsys):
    code, out, _ = run_cli(capsys, "probe", "--m", "2", "--b", "4")
    assert code == 0
    rows = rows_from_json(out)
    assert len(rows) == 4
    assert all(r["probe"] == "16/15" for r in rows)
    assert rows[0]["tight_bound"] == "16/15"


def test_tables_default_to_csv(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "f", "--zmax", "6")
    assert code == 0
    rows = rows_from_csv(out)
    assert rows[0] == {"z": "2", "exact": "2", "decimal": "2.00000"}
    assert rows[-1] == {"z": "6", "exact": "-2/5", "decimal": "-0.40000"}

    code, out, _ = run_cli(capsys, "tables", "--which", "surplus", "--lambda-max", "4")
    assert rows_from_csv(out)[-1]["decimal"] == "0.083"

    code, out, _ = run_cli(capsys, "tables", "--which", "breakpoints", "--lambda-max", "7")
    rows = rows_from_csv(out)
    assert rows[0]["lambda"] == "3.667" and rows[0]["surplus"] == "0.167"


def test_verify_range_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify-range", "--m-max", "9", "--lambda-max", "5",
                           "--workers", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == [] and payload["checked"] == 225
    assert set(payload) == {"grid", "checked", "failures", "elapsed_ms"}

    code, out, _ = run_cli(capsys, "verify-range", "--m-max", "9", "--lambda-max", "5",
                           "--rho", "159/100", "--workers", "1")
    assert code == 1
    assert any(f["n"] == 45 and f["m"] == 9 for f in json.loads(out)["failures"])


def test_verify_robust_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "verify-robust", "--n", "13", "--m", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []

    code, out, _ = run_cli(capsys, "verify-robust", "--n", "13", "--m", "10",
                           "--format", "csv")
    assert code == 0
    rows = rows_from_csv(out)
    assert rows[0]["record"] == "summary"
    assert rows[0]["checked"] == str(payload["checked"])
    assert rows[0]["failure_count"] == "0"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_robust_without_samples_exits_two(capsys, samples):
    code, out, err = run_cli(capsys, "verify-robust", "--n", "200", "--m", "10",
                             "--samples", samples)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "samples must be >= 1" in err


def test_surplus_value(capsys):
    code, out, _ = run_cli(capsys, "surplus", "--lam", "11/3")
    assert code == 0
    assert rows_from_json(out)[0] == {"lambda": "11/3", "surplus": "1/6", "decimal": "0.167"}


def test_csv_and_json_carry_identical_data(capsys):
    cases = [
        ["bags", "--mode", "bricks", "--n", "13", "--m", "10", "--b", "10"],
        ["assign", "--algo", "integral", "--bags", "3,3,1", "--speeds", "4,2,1", "--rho", "8/5"],
        ["probe", "--m", "2", "--b", "2"],
        ["tables", "--which", "f", "--zmax", "10"],
        ["surplus", "--lam", "4"],
    ]
    for argv in cases:
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        json_rows = rows_from_json(json_out)
        csv_rows = rows_from_csv(csv_out)
        assert len(json_rows) == len(csv_rows)
        for jrow, crow in zip(json_rows, csv_rows):
            for key, value in jrow.items():
                assert crow[key] == ("" if value is None else str(value)), (argv, key)


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "bags", "--mode", "bricks", "--m", "9", "--b", "9")
    assert code == 2 and "requires --n" in err
    code, _, _ = run_cli(capsys, "bags", "--mode", "bricks", "--n", "x", "--m", "9", "--b", "9")
    assert code == 2
    code, _, _ = run_cli(capsys, "surplus", "--lam", "1.5")
    assert code == 2
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    for algo in ("greedy", "integral"):
        code, _, err = run_cli(capsys, "assign", "--algo", algo, "--bags", "0", "--speeds", "1",
                               "--rho=-1")
        assert code == 2 and "rho must be positive" in err
    for m_max, lambda_max in (("0", "60"), ("9", "0")):
        code, out, err = run_cli(capsys, "verify-range", "--m-max", m_max,
                                 "--lambda-max", lambda_max, "--workers", "1")
        assert code == 2 and "must both be >= 1" in err and out == ""


@pytest.mark.parametrize("argv", [
    ("bags", "--mode", "bricks", "--n", "3", "--m", "2", "--b", "2"),
    ("bags", "--mode", "pebbles", "--jobs", "1,1", "--m", "2", "--b", "2"),
    ("assign", "--algo", "greedy", "--bags", "1", "--speeds", "1"),
    ("assign", "--algo", "integral", "--bags", "1", "--speeds", "1"),
    ("tables", "--which", "f"),
    ("verify-range", "--m-max", "2", "--lambda-max", "2", "--workers", "1"),
])
def test_zero_rho_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--rho", "0")
    assert code == 2 and "rho must be positive" in err and out == ""


@pytest.mark.parametrize("argv", [
    ("surplus", "--lam", "1.5"),  # a rational
    ("tables", "--which", "f", "--rho", "1.5"),  # a positive rational
    ("bags", "--mode", "sand", "--m", "2", "--b", "2", "--total", "1.5"),
    ("probe", "--m", "2", "--b", "2", "--bags", "1.5,2.5"),  # a list of rationals
    ("assign", "--algo", "greedy", "--bags", "1", "--speeds", "1e3"),
])
def test_float_literals_exit_two_with_the_reason(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and "floats are rejected" in err and out == ""


def test_missing_jobs_file_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bags", "--mode", "pebbles", "--m", "2", "--b", "2",
                             "--jobs", f"@{tmp_path / 'absent.json'}", "--rho", "2")
    assert code == 2 and "absent.json" in err and out == ""


@pytest.mark.parametrize("argv", [
    ("probe", "--m", "9", "--b", "2"),
    ("probe", "--m", "2", "--b", "17"),
    ("probe", "--m", "3000", "--b", "3000"),
])
def test_probe_beyond_oracle_caps_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and "oracle accepts at most 16 bags and 8 machines" in err and out == ""


def test_sand_bags_with_unprintable_scale_exit_two(capsys):
    code, out, err = run_cli(capsys, "bags", "--mode", "sand", "--m", "3000", "--b", "3000",
                             "--total", "1")
    assert code == 2 and "decimal digits" in err and out == ""


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "tables", "--which", "breakpoints", "--lambda-max", "61")
    _, second, _ = run_cli(capsys, "tables", "--which", "breakpoints", "--lambda-max", "61")
    assert first == second


def test_full_factor_table_via_cli(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "f", "--zmax", "60")
    assert code == 0
    rows = {int(r["z"]): r for r in rows_from_csv(out)}
    assert len(rows) == 59
    assert rows[21]["exact"] == "-11/20"
    assert rows[58]["exact"] == "-11/19"
    assert rows[58]["decimal"] == "-0.57895"


def test_jobs_accept_whitespace_separation(capsys):
    code, out, _ = run_cli(capsys, "bags", "--mode", "pebbles", "--m", "2", "--b", "2",
                           "--jobs", "1 1 1 1", "--rho", "11/6")
    assert code == 0
    assert [r["size"] for r in rows_from_json(out)] == [3, 1]


def test_probe_reports_weight_sequence(capsys):
    code, out, _ = run_cli(capsys, "probe", "--m", "2", "--b", "4")
    assert code == 0
    assert [r["weight"] for r in rows_from_json(out)] == ["8", "4", "2", "1"]


def test_probe_rows_carry_each_configuration_optimum(capsys):
    code, out, _ = run_cli(capsys, "probe", "--m", "3", "--b", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "config,weight,speeds,best_makespan,probe,tight_bound",
        "0,9,9 9 9,27/19,27/19,27/19",
        "1,6,15 6 6,27/19,27/19,27/19",
        "2,4,19 4 4,27/19,27/19,27/19",
    ]
    code, out, _ = run_cli(capsys, "probe", "--m", "2", "--b", "2", "--bags", "3,1")
    assert code == 0
    assert [(r["speeds"], r["best_makespan"], r["probe"]) for r in rows_from_json(out)] == [
        ("2 2", "3/2", "3/2"), ("3 1", "1", "3/2")]


def test_workers_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SPEEDROBUST_WORKERS", "1")
    from speedrobust.cli import _default_workers

    assert _default_workers() == 1
    monkeypatch.delenv("SPEEDROBUST_WORKERS")
    assert _default_workers() >= 1


def test_bad_workers_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SPEEDROBUST_WORKERS", "abc")
    code, out, err = run_cli(capsys, "verify-range", "--m-max", "2", "--lambda-max", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "SPEEDROBUST_WORKERS" in err
    # commands that take no worker count do not read it
    code, _, _ = run_cli(capsys, "surplus", "--lam", "3")
    assert code == 0


def test_bags_bricks_short_of_n_exits_one(capsys):
    code, out, _ = run_cli(capsys, "bags", "--mode", "bricks", "--n", "45", "--m", "9",
                           "--b", "9", "--rho", "159/100")
    assert code == 1
    rows = rows_from_json(out)
    assert rows[0]["total"] == 44 and rows[0]["successful"] is False


def test_bags_pebbles_unpacked_exits_one(capsys):
    code, out, _ = run_cli(capsys, "bags", "--mode", "pebbles", "--m", "2", "--b", "2",
                           "--jobs", "3,1", "--rho", "1")
    assert code == 1
    assert not any(r["packed_all"] for r in rows_from_json(out))
