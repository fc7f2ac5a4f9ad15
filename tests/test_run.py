"""``speedrobust run``: one line per campaign of ``verify.CAMPAIGNS`` and the verdict."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import Future
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import speedrobust
from speedrobust import cli
from speedrobust.cli import main
from speedrobust.verify import CAMPAIGNS, VerificationReport


def run(capsys, *argv):
    code = main(["run", *argv])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_the_table_meets_its_expectations(capsys):
    # the one run of the whole table: every campaign on its grid, through the pool
    code, lines, _ = run(capsys)
    assert code == 0
    expected = [f"{name:<17} : ok (expects {'a witness' if campaign.witness else 'clean'}) "
                f"checked={campaign.checked} failures={1 if campaign.witness else 0}"
                for name, campaign in CAMPAIGNS.items()]
    assert [line.rsplit(" elapsed=", 1)[0] for line in lines] == expected + ["ALL CLEAN"]


# Module-level, so the planted entries pickle on their way to the pool's workers.
def _reporting(checked, failures, **grid):
    return VerificationReport(grid, checked, failures, 0)


def _slow_sweep(**grid):
    time.sleep(60)


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
    assert code == 0 and len(lines) == 2 and " : ok " in lines[0] and " failures=1 " in lines[0]


def test_named_campaigns_run_in_table_order(monkeypatch, capsys):
    _plant_the_table(monkeypatch)
    code, lines, _ = run(capsys, "lower-bound", "shaved-witness")
    assert code == 0 and lines[-1] == "ALL CLEAN"
    assert [line.split()[0] for line in lines[:-1]] == ["shaved-witness", "lower-bound"]


@pytest.mark.parametrize("argv,reason", [
    (("no-such-campaign",), "error: unknown campaign no-such-campaign"),
    (("lower-bound", "x"), "error: unknown campaign x"),
    (("--workers", "2"), "usage: speedrobust"),  # the pool sizes itself; there is no knob
    (("--seed", "5"), "usage: speedrobust"),  # the library's verify_sand_upper(seed=...) reseeds the trials
    (("--quick",), "usage: speedrobust"),  # each campaign has one grid
])
def test_bad_arguments_exit_two_before_any_campaign(capsys, argv, reason):
    code, lines, err = run(capsys, *argv)
    assert code == 2 and lines == [] and err.startswith(reason)


def test_pooled_run_prints_the_in_process_lines(capsys):
    # the clean campaigns are checked against their pinned counts by the table's one run
    campaign = CAMPAIGNS["shaved-witness"]
    report = campaign.run()
    expected = (f"shaved-witness    : {'ok' if campaign.meets(report) else 'MISSED'} "
                f"(expects a witness) checked={report.checked} failures={len(report.failures)}")
    code, lines, _ = run(capsys, "shaved-witness")
    assert code == 0
    assert [line.rsplit(" elapsed=", 1)[0] for line in lines] == [expected, "ALL CLEAN"]


@pytest.mark.parametrize("cpus,names,size", [
    (1000, (), 5),  # never more workers than campaigns
    (1000, ("lower-bound", "shaved-witness"), 2),
    (1, (), 1),  # one CPU: the same path, with a pool of one
])
def test_the_pool_has_one_worker_per_usable_cpu_and_campaign(monkeypatch, capsys, cpus, names, size):
    pools = []

    class InlinePool:  # records the pool size and maps in this process
        def __init__(self, max_workers, mp_context):
            pools.append(max_workers)

        def submit(self, fn, item):
            future = Future()
            future.set_result(fn(item))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    _plant_the_table(monkeypatch)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    code, lines, _ = run(capsys, *names)
    assert code == 0 and lines[-1] == "ALL CLEAN" and len(lines) == len(names or CAMPAIGNS) + 1
    assert pools == [size]


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert cli._usable_cpus() == 1


def test_importing_the_library_loads_no_pool():
    code = "import sys, speedrobust; print(sorted(m for m in sys.modules if m.split('.')[0] in " \
           "('multiprocessing', 'concurrent')))"
    src = str(Path(speedrobust.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises, and its descriptor is a real file."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

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


def test_a_reader_that_leaves_stops_the_running_campaign(capsys, monkeypatch):
    # The slow campaign prints nothing before it ends, so only the poll of stdout can notice.
    monkeypatch.setitem(CAMPAIGNS, "lower-bound", CAMPAIGNS["lower-bound"]._replace(sweep=_slow_sweep))
    read_end, write_end = os.pipe()
    os.close(read_end)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(write_end))
    start = time.perf_counter()
    try:
        code = main(["run", "lower-bound"])
    finally:
        os.close(write_end)
    assert code == 1 and capsys.readouterr().err == ""
    assert time.perf_counter() - start < 30  # the campaign was stopped, not waited for
    assert multiprocessing.active_children() == []  # and no worker outlives the command
