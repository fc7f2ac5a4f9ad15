import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest

from speedrobust import bricks
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


def test_bags_sand_on_one_machine_put_the_total_in_the_first_bag(capsys):
    code, out, _ = run_cli(capsys, "bags", "--mode", "sand", "--m", "1", "--b", "3",
                           "--total", "2")
    assert code == 0
    assert [r["size"] for r in rows_from_json(out)] == [2, 0, 0]


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


@pytest.mark.parametrize("data,reason", [
    ([True, 2], "true/false"),  # not read as the bag 1
    ({"3": 1, "2": 0}, "must hold a JSON array"),  # not read as the bags 3 and 2
    ("12", "must hold a JSON array"),  # not read as the bags 1 and 2
])
def test_values_file_refuses_malformed_json(tmp_path, capsys, data, reason):
    path = tmp_path / "bags.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "assign", "--algo", "optimal", "--speeds", "1",
                             "--bags", f"@{path}")
    assert code == 2 and out == ""
    assert "error:" in err and reason in err


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


def test_assign_integral_refuses_bags_that_are_not_whole(capsys):
    code, out, err = run_cli(capsys, "assign", "--algo", "integral", "--bags", "5/2,1",
                             "--speeds", "3,1")
    assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


def test_assign_integral_indexes_the_sorted_speeds(capsys):
    # machine 0 is the fastest, as for greedy and optimal: both bags go to speed 3, makespan 4/3
    # (with the speeds indexed as given, the makespan read machine 1 as speed 1 and gave 3)
    code, out, _ = run_cli(capsys, "assign", "--algo", "integral", "--bags", "1,3",
                           "--speeds", "1,3")
    assert code == 0
    rows = rows_from_json(out)
    assert [(r["size"], r["machine"]) for r in rows] == [(3, 0), (1, 0)]
    assert all(r["makespan"] == "4/3" for r in rows)


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


@pytest.mark.parametrize("which,option,value", [
    ("f", "--zmax", "1"),  # the factor table starts at cost 2
    ("surplus", "--lambda-max", "0"),
    ("breakpoints", "--lambda-max", "-5"),  # named as given, not as -4
    ("breakpoints", "--lambda-max", "2"),  # the first breakpoint is at 11/3
])
def test_tables_refuse_empty_output(capsys, which, option, value):
    code, out, err = run_cli(capsys, "tables", "--which", which, option, value)
    assert code == 2 and out == ""
    assert "error:" in err and f"{option} {value} gives an empty" in err


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
        assert "\r" not in csv_out, argv  # rows end in "\n", so a shell reads the last column clean
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


@pytest.mark.parametrize("argv", [
    ("bags", "--mode", "bricks", "--n", "3", "--m", "2", "--b", "2"),
    ("bags", "--mode", "pebbles", "--jobs", "1,1", "--m", "2", "--b", "2"),
    ("assign", "--algo", "greedy", "--bags", "1", "--speeds", "1"),
    ("assign", "--algo", "integral", "--bags", "1", "--speeds", "1"),
    ("tables", "--which", "f"),
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


@pytest.mark.parametrize("argv", [
    "probe --m 1 --b 1",
    "assign --algo optimal --bags , --speeds 1 --format csv",
    "assign --algo integral --bags , --speeds 1",
    "bags --mode pebbles --m 2 --b 2 --jobs 0,0 --rho 2",
    "bags --mode auto --n 100000000000 --m 1 --b 1",
    "surplus --lam -1",
    "tables --which f --zmax 2 --rho 1/1000000",
    "bags --mode sand --m 1 --b 3 --total 0",
    "bags --mode sand --m 0 --b 2 --total 1",
    "bags --mode pebbles --m 2 --b 0 --jobs 1 --rho 2",
    "bags --mode bricks --n 0 --m 1 --b 1",
    "bags --mode auto --n 5 --m 3 --b 1",
    "assign --algo greedy --bags 1 --speeds 0",
    "assign --algo integral --bags 2,1 --speeds 0,0",
    "assign --algo greedy --bags 1,-1 --speeds 1",
    "probe --m 2 --b 2 --bags 1,3",
    "probe --m 2 --b 2 --bags 4,0,0",
    "probe --m 0 --b 2",
    "surplus --lam 1/0",
    "tables --which f --zmax 200",
    "tables --which surplus --lambda-max 200",
    "tables --which breakpoints --lambda-max 200",
    f"bags --mode auto --n {10**30} --m 8 --b 8",
])
def test_edge_values_exit_cleanly(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code in (0, 1, 2)
    assert ("error:" in err) == (code == 2)
    assert "Traceback" not in out + err


@pytest.mark.parametrize("values,argv,expected", [
    ([10**30, 1], "bags --mode pebbles --m 2 --b 2 --rho 2 --jobs", 0),
    ([10**30, 1], "assign --algo optimal --speeds 1,1 --bags", 0),
    ([1.5, 1], "bags --mode pebbles --m 2 --b 2 --rho 2 --jobs", 2),
    ([1.5, 1], "assign --algo integral --bags 1 --speeds", 2),
    ([True, 1], "bags --mode pebbles --m 2 --b 2 --rho 2 --jobs", 2),
    ([True, 1], "assign --algo greedy --speeds 1 --bags", 2),
    ([], "bags --mode pebbles --m 2 --b 2 --rho 2 --jobs", 2),
    ([], "assign --algo integral --bags 1 --speeds", 2),
    ([], "assign --algo greedy --speeds 1 --bags", 0),
])
def test_file_lists_exit_cleanly(tmp_path, capsys, values, argv, expected):
    path = tmp_path / "values.json"
    path.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, *argv.split(), f"@{path}")
    assert code == expected
    assert ("error:" in err) == (code == 2)
    assert "Traceback" not in out + err


def test_repeated_run_names_run_the_campaign_once(capsys):
    code, out, err = run_cli(capsys, "run", "shaved-witness", "shaved-witness")
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert len(lines) == 2 and lines[0].startswith("shaved-witness ") and lines[1] == "ALL CLEAN"


def test_auto_mode_reports_a_packing_that_leaves_jobs(monkeypatch, capsys):
    exact = bricks.sand_robustness
    monkeypatch.setattr(bricks, "sand_robustness", lambda m, b: exact(m, b) * Fraction(9, 10))
    code, out, err = run_cli(capsys, "bags", "--mode", "auto", "--n", "1000", "--m", "8", "--b", "8")
    assert code == 2 and "error: no construction packed jobs=1000" in err and out == ""
    assert "Traceback" not in err


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


@pytest.mark.parametrize("bags", ["", " , "])
def test_probe_takes_an_empty_bag_list_as_a_profile(capsys, bags):
    # an empty --bags is a profile of no bags, not an absent one that falls back to sand
    code, out, err = run_cli(capsys, "probe", "--m", "2", "--b", "2", "--bags", bags)
    assert code == 2 and "error: profile has 0 bags, expected 2" in err and out == ""


@pytest.mark.parametrize("argv,message", [
    (("--mode", "sand"), "--mode sand requires --total"),
    (("--mode", "pebbles"), "--mode pebbles requires --jobs"),
    (("--mode", "pebbles", "--jobs", "1,1"), "--mode pebbles requires --rho"),
    (("--mode", "auto"), "--mode auto requires --n"),
])
def test_bags_modes_name_their_missing_option(capsys, argv, message):
    code, out, err = run_cli(capsys, "bags", *argv, "--m", "2", "--b", "2")
    assert code == 2 and f"error: {message}" in err and "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv,message", [
    (("tables", "--which", "surplus", "--rho", "3/2"), "--which surplus does not read --rho"),
    (("tables", "--which", "breakpoints", "--rho", "3/2"), "--which breakpoints does not read --rho"),
    (("tables", "--which", "f", "--lambda-max", "5"), "--which f does not read --lambda-max"),
    (("tables", "--which", "surplus", "--zmax", "5"), "--which surplus does not read --zmax"),
    (("bags", "--mode", "auto", "--n", "9", "--m", "3", "--b", "3", "--rho", "3/2"),
     "--mode auto does not read --rho"),
    (("bags", "--mode", "sand", "--total", "15", "--m", "2", "--b", "4", "--n", "5"),
     "--mode sand does not read --n"),
    (("bags", "--mode", "bricks", "--n", "9", "--m", "3", "--b", "3", "--total", "7"),
     "--mode bricks does not read --total"),
    (("bags", "--mode", "bricks", "--n", "9", "--m", "3", "--b", "3", "--jobs", "1,1"),
     "--mode bricks does not read --jobs"),
    (("bags", "--mode", "pebbles", "--jobs", "1,1", "--rho", "2", "--m", "2", "--b", "2", "--n", "4"),
     "--mode pebbles does not read --n"),
    (("assign", "--algo", "optimal", "--bags", "3,1", "--speeds", "1,1", "--rho", "1"),
     "--algo optimal does not read --rho"),
    (("assign", "--algo", "optimal", "--bags", "3,1", "--speeds", "1,1", "--trace"),
     "--algo optimal does not read --trace"),
])
def test_an_option_the_choice_does_not_read_exits_two(capsys, argv, message):
    # each of these once printed a result computed without the option, and exited 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and f"error: {message}" in err and "Traceback" not in err and out == ""


@pytest.mark.parametrize("which,fmt,digest", [
    ("f", "csv", "d4570ef99eeaa78ba3b368b26da0b37b859a81901cd41ec2464fddda54eb2540"),
    ("f", "json", "de90a6234a02b3e1c6a8e7d8a8f3455dbd543fbb7edcac87b7862bf140532798"),
    ("surplus", "csv", "ad374e076ca8c834e8193b2645b68106c2e3a970961e564507da8eb1686e8772"),
    ("surplus", "json", "57fafd1b1d2555eb8b2e1c1a1d5a8ee22e36ee8ebcf407f7c252118dee31d7c7"),
    ("breakpoints", "csv", "7a5e4c95a2225afff47f5e7f7de1461f22491bee50659ad2a361c3e3800b743a"),
    ("breakpoints", "json", "8d6f0872489fd068746e9c5e6d9ae7a51e170ba62e48501d373851e6540f5d1d"),
])
def test_default_tables_keep_their_bytes(capsys, which, fmt, digest):
    # the tables of the 8/5 analysis at their default bounds, byte for byte
    code, out, _ = run_cli(capsys, "tables", "--which", which, "--format", fmt)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    assert "\r" not in out


def test_sand_bags_with_unprintable_scale_exit_two(capsys):
    code, out, err = run_cli(capsys, "bags", "--mode", "sand", "--m", "3000", "--b", "3000",
                             "--total", "1")
    assert code == 2 and "decimal digits" in err and out == ""
    # a single machine's scale is 1, but 10**12 bags would be a list of 10**12 sizes
    code, out, err = run_cli(capsys, "bags", "--mode", "sand", "--m", "1", "--b", str(10**12),
                             "--total", "1")
    assert code == 2 and "decimal digits" in err and out == ""
    assert "1000000000000 bags on a single machine" in err and "**" not in err


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
