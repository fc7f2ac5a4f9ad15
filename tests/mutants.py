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


BRICKS = "src/speedrobust/bricks.py"
CLI = "src/speedrobust/cli.py"
MODEL = "src/speedrobust/model.py"
NUMERICS = "src/speedrobust/numerics.py"
PEBBLES = "src/speedrobust/pebbles.py"
SAND = "src/speedrobust/sand.py"
VERIFY = "src/speedrobust/verify.py"
SECOND = "src/speedrobust/second_stage.py"
TRIM_TESTS = ("tests/test_bricks.py::test_dispatcher_trims_as_the_former_trim_on_every_successful_cell",)
SIGN_TESTS = ("tests/test_bricks.py::test_decimal_string_rounding",)
TOTALS_TESTS = (
    "tests/test_verify.py::test_coin_totals_match_the_per_cell_recurrence",
    "tests/test_verify.py::test_fast_sweep_size_matches_library_route",
    "tests/test_verify.py::test_coins_left_after_m_bags_step_by_one_unless_the_path_meets_1_mod_m",
)
PROBE_TESTS = ("tests/test_sand.py",)
WEIGHT_TESTS = ("tests/test_sand.py::test_adversary_and_sand_bags_run_at_the_former_skeleton_weights",)
DRAW_TESTS = (
    "tests/test_verify.py::test_sand_trials_draw_what_randint_draws",
    "tests/test_verify.py::test_sand_campaign_random_trials_match_greedy_on_speed_profiles",
)
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
    # The adversary's one weight kernel: the fast speed, the weight step, and the CLI's weight column.
    Mutant(SAND, "[scale - (machines - 1) * w]", "[scale - machines * w]", WEIGHT_TESTS, "killed"),
    Mutant(SAND, "w = w // machines * (machines - 1)", "w = w // machines * machines", WEIGHT_TESTS,
           "killed"),
    Mutant(CLI, "config.speeds[-1]", "config.speeds[0]",
           ("tests/test_cli.py::test_probe_reports_weight_sequence",), "killed"),
    # The coin walk's branch on a new part, and partition_count's running sums.
    Mutant(VERIFY, "if p < cost:", "if p <= cost:", WALK_TESTS, "killed"),
    Mutant(VERIFY, "heappush(c2, cost - p)", "heappush(c2, -p)", WALK_TESTS, "killed"),
    Mutant(VERIFY, "parts.pop()", "pass", WALK_TESTS, "killed"),
    # The walk's count of a last bag's completions at its branch, and at a leaf.
    Mutant(VERIFY, "1 if left == 0 or slots == 2 else", "1 if left == 0 or slots == 3 else", WALK_TESTS,
           "killed"),
    Mutant(VERIFY, "1 if rest == 0 or slots == 1 else", "1 if rest == 0 or slots == 2 else", WALK_TESTS,
           "killed"),
    Mutant(VERIFY, "elif k + 1 == bags:", "elif False:", WALK_TESTS,
           "equivalent: a child that starts with every bag placed counts its completions"
           " with the same count(left, slots - 1, p)"),
    Mutant(VERIFY, "1 if left == 0 or slots == 2 else", "1 if slots == 2 else", WALK_TESTS,
           "equivalent: count returns 1 for a rest of 0"),
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
    # The dispatcher's cutover and one-pass trim of the coin sizes, and decimal_string's sign.
    Mutant(BRICKS, "if jobs <= PEBBLES_CUTOVER * machines:", "if jobs < PEBBLES_CUTOVER * machines:",
           TRIM_TESTS, "killed"),
    Mutant(BRICKS, "max(0, min(a, jobs - s))", "min(a, jobs - s)", TRIM_TESTS, "killed"),
    Mutant(BRICKS, "jobs - s)))", "jobs - s - 1)))", TRIM_TESTS, "killed"),
    Mutant(NUMERICS, "value < 0 and units", "value < 0", SIGN_TESTS, "killed"),
    # The success sweep's F in _coin_totals: the run threshold, the run's reset at each level's
    # first count, and F read one count off.
    Mutant(BRICKS, "m.__le__", "m.__lt__", TOTALS_TESTS, "killed"),
    Mutant(BRICKS, "range(first + 1,", "range(first,", TOTALS_TESTS, "killed"),
    Mutant(BRICKS, "run))))", "run), initial=0)))", TOTALS_TESTS, "killed"),
    # The pebbles kernel's bag ends, its sizes and packed_all, and the dispatcher's guard on range().
    Mutant(PEBBLES, ", i) - 1", ", i)", ("tests/test_pebbles.py",), "killed"),
    Mutant(PEBBLES, "zip([0] + ends, ends)", "zip([1] + ends, ends)",
           ("tests/test_pebbles.py::test_packing_fills_greedily_at_generous_factor",), "killed"),
    Mutant(PEBBLES, "packed_all=ends[-1] == len(scaled)", "packed_all=ends[-1] <= len(scaled)",
           ("tests/test_pebbles.py::test_packing_reports_overflow",), "killed"),
    Mutant(BRICKS, "if jobs >= sys.maxsize:", "if jobs > sys.maxsize:",
           ("tests/test_pebbles.py::test_dispatcher_past_cutover_packs_up_to_the_longest_range",), "killed"),
    # The sand sweep's draw from raw bits, its sort, the scale folded into the sizes' unit,
    # and makespan's integer comparison.
    Mutant(VERIFY, "r > RANDOM_SPEED_GRAIN", "r >= RANDOM_SPEED_GRAIN", DRAW_TESTS, "killed"),
    Mutant(VERIFY, "bit_length()", "bit_length() + 1", DRAW_TESTS, "killed"),
    Mutant(VERIFY, "raw.sort(reverse=True)", "pass", DRAW_TESTS, "killed"),
    Mutant(VERIFY, "(sizes, size_unit * scale,", "(sizes, size_unit,", DRAW_TESTS, "killed"),
    Mutant(MODEL, "load * speed.denominator", "load",
           ("tests/test_model.py::test_integer_makespan_matches_the_fraction_loop",), "killed"),
    # The argument rule: a factor of 0 is refused.
    Mutant(NUMERICS, "if value <= 0 if least is None else value < least:",
           "if value < 0 if least is None else value < least:",
           ("tests/test_numerics.py::test_exact_factor_returns_the_fraction_in_range",), "killed"),
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
