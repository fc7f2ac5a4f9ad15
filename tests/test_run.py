"""``speedrobust run``: one line per campaign of ``verify.CAMPAIGNS`` and the verdict."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import speedrobust
from speedrobust.cli import main
from speedrobust.verify import CAMPAIGNS, VerificationReport


def run(capsys, *argv):
    code = main(["run", *argv])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_the_table_meets_its_expectations(capsys):
    # the one run of the whole table: every campaign on its grid
    code, lines, _ = run(capsys)
    assert code == 0
    expected = [f"{name:<17} : ok (expects {'a witness' if campaign.witness else 'clean'}) "
                f"checked={campaign.checked} failures={1 if campaign.witness else 0}"
                for name, campaign in CAMPAIGNS.items()]
    assert [line.rsplit(" elapsed=", 1)[0] for line in lines] == expected + ["ALL CLEAN"]


def _reporting(checked, failures, **grid):
    return VerificationReport(grid, checked, failures, 0)


def _met(campaign):
    """The campaign with a sweep that reports its expected count and outcome at once."""
    return campaign._replace(sweep=partial(_reporting, campaign.checked,
                                           [campaign.witness] if campaign.witness else []))


def _plant_the_table(monkeypatch):
    for name, campaign in CAMPAIGNS.items():
        monkeypatch.setitem(CAMPAIGNS, name, _met(campaign))


def _planted_failure(campaign):
    return campaign._replace(sweep=partial(_reporting, campaign.checked, [{"reason": "planted"}]))


def _one_short(campaign):
    return campaign._replace(sweep=partial(_reporting, campaign.checked - 1, []))


def _no_witness(campaign):
    return campaign._replace(grid={**campaign.grid, "rho": Fraction(8, 5)})


@pytest.mark.parametrize("name,miss", [
    ("bricks-robustness", _planted_failure),  # a clean campaign that reports a failure
    ("shaved-witness", _no_witness),  # the witness campaign, clean at 8/5
    ("bricks-robustness", _one_short),  # clean, but one profile short: a walk that skipped one
])
def test_a_missed_expectation_fails_the_run(monkeypatch, capsys, name, miss):
    original = CAMPAIGNS[name]
    _plant_the_table(monkeypatch)
    monkeypatch.setitem(CAMPAIGNS, name, miss(original))
    code, lines, _ = run(capsys)
    assert code == 1 and lines[-1] == "FAILURES FOUND"
    missed = [line.split()[0] for line in lines if " : MISSED " in line]
    assert missed == [name]


def test_a_miss_prints_its_failure_records(monkeypatch, capsys):
    # success-range expects a clean sweep; at 159/100 a grid of m <= 20 has real shortfalls
    monkeypatch.setitem(CAMPAIGNS, "success-range", CAMPAIGNS["success-range"]._replace(
        grid={"m_max": 20, "lambda_max": 10, "rho": Fraction(159, 100)}))
    code, lines, _ = run(capsys, "success-range")
    assert code == 1 and lines[0].startswith("success-range     : MISSED (expects clean) ")
    records = [json.loads(line) for line in lines[1:-1]]
    assert f" failures={len(records)} " in lines[0] and records
    assert {"m": 9, "n": 45, "reason": "total size 44 < 45"} in records
    assert lines[-1] == "FAILURES FOUND"


def test_met_campaigns_print_no_records(capsys):
    # shaved-witness meets its expectation by failing: its witness is not printed
    code, lines, _ = run(capsys, "shaved-witness")
    assert code == 0
    assert [line.rsplit(" elapsed=", 1)[0] for line in lines] == [
        "shaved-witness    : ok (expects a witness) checked=225 failures=1", "ALL CLEAN"]


def test_named_campaigns_run_in_table_order(monkeypatch, capsys):
    _plant_the_table(monkeypatch)
    code, lines, _ = run(capsys, "lower-bound", "shaved-witness")
    assert code == 0 and lines[-1] == "ALL CLEAN"
    assert [line.split()[0] for line in lines[:-1]] == ["shaved-witness", "lower-bound"]


@pytest.mark.parametrize("argv,reason", [
    (("no-such-campaign",), "error: unknown campaign no-such-campaign"),
    (("lower-bound", "x"), "error: unknown campaign x"),
    (("--workers", "2"), "usage: speedrobust"),  # campaigns run in this process; there is no knob
    (("--seed", "5"), "usage: speedrobust"),  # the library's verify_sand_upper(seed=...) reseeds the trials
    (("--quick",), "usage: speedrobust"),  # each campaign has one grid
])
def test_bad_arguments_exit_two_before_any_campaign(capsys, argv, reason):
    code, lines, err = run(capsys, *argv)
    assert code == 2 and lines == [] and err.startswith(reason)


def test_importing_the_library_loads_no_pool():
    code = "import sys, speedrobust.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in " \
           "('multiprocessing', 'concurrent', 'select')))"
    src = str(Path(speedrobust.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class _ClosedPipe:
    """A stdout whose reader leaves after ``lines`` lines: each later write raises.

    Its descriptor is a real file, for the devnull redirect on the way out.
    """

    def __init__(self, fd, lines=0):
        self.fd = fd
        self.lines = lines

    def write(self, text):
        if self.lines <= 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.lines -= text.count("\n")
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_a_closed_stdout_exits_one_without_an_error_line(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = main(["run", "shaved-witness", "sand-tightness"])
        # the descriptor now writes to devnull, so the exit flush cannot raise again
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert code == 1 and capsys.readouterr().err == ""


@pytest.mark.parametrize("lines", range(len(CAMPAIGNS) + 1))
def test_a_reader_that_leaves_stops_the_run_at_the_next_line(capsys, monkeypatch, tmp_path, lines):
    swept = []

    def recording(name, campaign):
        def sweep(**grid):
            swept.append(name)
            return _met(campaign).run()
        return campaign._replace(sweep=sweep)

    for name, campaign in CAMPAIGNS.items():
        monkeypatch.setitem(CAMPAIGNS, name, recording(name, campaign))
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno(), lines=lines))
        code = main(["run"])
    assert code == 1 and capsys.readouterr().err == ""
    # the print of line lines + 1 raises, so no campaign after that line's is swept; after
    # the last campaign's line, the verdict's print raises
    assert swept == list(CAMPAIGNS)[:lines + 1]
