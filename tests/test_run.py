"""``speedrobust run``: one line per campaign of ``verify.CAMPAIGNS`` and the verdict."""

import json
from fractions import Fraction

import pytest

from speedrobust.cli import main
from speedrobust.verify import CAMPAIGNS, VerificationReport


def run(capsys, *argv):
    code = main(["run", *argv])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_quick_grids_meet_their_expectations(capsys):
    for name, campaign in CAMPAIGNS.items():
        report = campaign.run(quick=True)
        assert campaign.meets(report, quick=True), (name, report.payload(include_elapsed=False))
    code, lines, _ = run(capsys, "--quick")
    assert code == 0 and lines[-1] == "ALL CLEAN"
    assert [line.split()[0] for line in lines[:-1]] == list(CAMPAIGNS)
    assert all(" : ok " in line for line in lines[:-1])


def _planted_failure(campaign):
    def sweep(**grid):
        return VerificationReport(grid, campaign.checked[1], [{"reason": "planted"}], 0)
    return campaign._replace(sweep=sweep)


def _no_witness(campaign):
    return campaign._replace(quick={**campaign.quick, "rho": Fraction(8, 5)})


@pytest.mark.parametrize("name,miss", [
    ("bricks-robustness", _planted_failure),  # a clean campaign that reports a failure
    ("shaved-witness", _no_witness),  # the witness campaign, clean at 8/5
])
def test_a_missed_expectation_fails_the_run(monkeypatch, capsys, name, miss):
    monkeypatch.setitem(CAMPAIGNS, name, miss(CAMPAIGNS[name]))
    code, lines, _ = run(capsys, "--quick")
    assert code == 1 and lines[-1] == "FAILURES FOUND"
    missed = [line.split()[0] for line in lines if " : MISSED " in line]
    assert missed == [name]


def test_a_miss_prints_its_failure_records(monkeypatch, capsys):
    # success-range expects a clean sweep; at 159/100 its quick grid has real shortfalls
    campaign = CAMPAIGNS["success-range"]
    monkeypatch.setitem(CAMPAIGNS, "success-range",
                        campaign._replace(quick={**campaign.quick, "rho": Fraction(159, 100)}))
    code, lines, _ = run(capsys, "success-range", "--quick")
    assert code == 1 and lines[0].startswith("success-range     : MISSED (expects clean) ")
    records = [json.loads(line) for line in lines[1:-1]]
    assert f" failures={len(records)} " in lines[0] and records
    assert {"m": 9, "n": 45, "reason": "total size 44 < 45"} in records
    assert lines[-1] == "FAILURES FOUND"


def test_met_campaigns_print_no_records(capsys):
    # shaved-witness meets its expectation by failing: its witness is not printed
    code, lines, _ = run(capsys, "shaved-witness", "--quick")
    assert code == 0 and len(lines) == 2 and " : ok " in lines[0] and " failures=1 " in lines[0]


def test_named_campaigns_run_in_table_order(capsys):
    code, lines, _ = run(capsys, "lower-bound", "shaved-witness", "--quick")
    assert code == 0 and lines[-1] == "ALL CLEAN"
    assert [line.split()[0] for line in lines[:-1]] == ["shaved-witness", "lower-bound"]


@pytest.mark.parametrize("argv,reason", [
    (("no-such-campaign",), "error: unknown campaign no-such-campaign"),
    (("lower-bound", "x", "--quick"), "error: unknown campaign x"),
    (("--workers", "0"), "error: workers must be >= 1"),
])
def test_bad_arguments_exit_two_before_any_campaign(capsys, argv, reason):
    code, lines, err = run(capsys, *argv)
    assert code == 2 and lines == [] and err.startswith(reason)


def test_workers_do_not_change_the_counts(capsys):
    def counts(workers):
        code, lines, _ = run(capsys, "success-range", "--quick", "--workers", workers)
        assert code == 0
        return [line.rsplit(" elapsed=", 1)[0] for line in lines]

    assert counts("2") == counts("1")
