"""scripts/run_verification.py: one line per campaign of ``verify.CAMPAIGNS`` and the verdict."""

import pathlib
import runpy
from fractions import Fraction

import pytest

from speedrobust.verify import CAMPAIGNS, VerificationReport

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"


def run_script(capsys, *argv):
    code = runpy.run_path(str(SCRIPT))["main"](list(argv))
    return code, capsys.readouterr().out.splitlines()


def test_quick_grids_meet_their_expectations(capsys):
    for name, campaign in CAMPAIGNS.items():
        report = campaign.run(quick=True)
        assert campaign.meets(report, quick=True), (name, report.payload(include_elapsed=False))
    code, lines = run_script(capsys, "--quick")
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
    code, lines = run_script(capsys, "--quick")
    assert code == 1 and lines[-1] == "FAILURES FOUND"
    missed = [line.split()[0] for line in lines if " : MISSED " in line]
    assert missed == [name]
