"""Mutation check: each entry breaks one spot of ``src/`` and names the tests that must notice.

Run ``python tests/mutants.py`` from anywhere.  Each entry is applied to its
own temporary copy of the checkout, and its tests run there with
``-p no:cacheprovider --hypothesis-seed=0``, two entries at a time.  An entry
is killed when pytest reports a failing test (or the run passes the timeout).
The script exits 1 when a ``killed`` entry survives, an ``equivalent`` one is
killed, an old text does not occur exactly once in its file, or pytest cannot
run the named tests.  pytest does not collect this file (it is no ``test_*.py``).

An entry is (file, old text, new text, test ids, verdict); the verdict is
``"killed"`` or ``"equivalent: <why no test can tell>"``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    verdict: str


SAND = "src/speedrobust/sand.py"
VERIFY = "src/speedrobust/verify.py"
SECOND = "src/speedrobust/second_stage.py"
PROBE_TESTS = ("tests/test_sand.py",)
WALK_TESTS = (
    "tests/test_verify.py::test_coin_walk_matches_the_kernel_on_every_partition",
    "tests/test_verify.py::test_robustness_payloads_match_the_per_profile_kernel",
)
PARTITION_TESTS = ("tests/test_verify.py::test_partition_count_matches_the_table_loop",)
SEARCH_TESTS = ("tests/test_second_stage.py::test_integer_search_matches_fraction_search",)
THRESHOLD_TESTS = (
    "tests/test_second_stage.py::test_thresholded_search_is_the_plain_search_until_it_can_stop",
)

MUTANTS = [
    # The probe's prefix bounds and its skip of configurations settled by the fastest machine.
    Mutant(SAND, "zip(prefixes, accumulate(speeds))", "zip(prefixes, accumulate(reversed(speeds)))",
           PROBE_TESTS, "killed"),
    Mutant(SAND, "if total * unit <= top * speeds[0]:", "if total * unit <= top * sum(speeds):",
           PROBE_TESTS, "killed"),
    Mutant(SAND, "if total * unit <= top * speeds[0]:", "if total * unit < top * speeds[0]:", PROBE_TESTS,
           "equivalent: a configuration whose all-on-the-fastest makespan ties M has its optimum"
           " at most M, so searching it cannot raise the maximum"),
    # The coin walk's branch on a new part, and partition_count's running sums.
    Mutant(VERIFY, "if p < cost:", "if p <= cost:", WALK_TESTS, "killed"),
    Mutant(VERIFY, "heappush(c2, cost - p)", "heappush(c2, -p)", WALK_TESTS, "killed"),
    Mutant(VERIFY, "parts.pop()", "pass", WALK_TESTS, "killed"),
    Mutant(VERIFY, "for r in range(k):", "for r in range(1, k):", PARTITION_TESTS, "killed"),
    Mutant(VERIFY, "row[r::k] = accumulate(row[r::k])", "row[r + k::k] = accumulate(row[r + k::k])",
           PARTITION_TESTS, "killed"),
    # The oracle's one bound and its return at a node whose time reached the incumbent.
    Mutant(SECOND, "floor = -(-sum(sizes) * unit // sum(speeds))",
           "floor = sum(sizes) * unit // sum(speeds) + 1", SEARCH_TESTS, "killed"),
    Mutant(SECOND, "stop[0] * unit // stop[1]", "-(-stop[0] * unit // stop[1])", THRESHOLD_TESTS, "killed"),
    Mutant(SECOND, "current >= best", "current >= best - 1", SEARCH_TESTS, "killed"),
    Mutant(SECOND, "current >= best", "current > best", SEARCH_TESTS + THRESHOLD_TESTS,
           "equivalent: a node at the incumbent's time reaches only tying leaves, so going on"
           " changes at most which optimal leaf is returned"),
]


def run(mutant: Mutant) -> tuple[str, str]:
    """The outcome ("killed", "survived" or "error") and pytest's last line for one entry."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".benchmarks"))
        target = copy / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", *mutant.tests]
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"no result after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return outcome, lines[-1]


def main() -> int:
    ok = True
    runnable = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.file).read_text().count(mutant.old)
        if count != 1:
            ok = False
            print(f"STALE {mutant.file}: {mutant.old!r} occurs {count} times")
        else:
            runnable.append(mutant)
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = pool.map(run, runnable)
        for mutant, (outcome, summary) in zip(runnable, outcomes):
            expected = "killed" if mutant.verdict == "killed" else "survived"
            ok = ok and outcome == expected
            mark = "ok" if outcome == expected else "FAIL"
            print(f"{mark:4} {outcome:8} {mutant.file}: {mutant.old!r} -> {mutant.new!r} ({summary})")
            if outcome != expected:
                print(f"     expected {mutant.verdict}")
    print("ALL AS EXPECTED" if ok else "MUTANT CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
