"""Spans around calls into the library, kept in memory, and the layer metrics they give.

The tracer rebinds public names in every loaded ``speedrobust`` module, so a
call is recorded whether the benchmark makes it or another layer does (for
example ``speedrobust.sand.optimal_second_stage`` inside
``lower_bound_probe``).  Nothing inside the library is changed.  A span is
(name, start, end, parent, run, work); ``work`` is the number of units the
call handled, where a per-unit figure needs it.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


def _checked(args, result):
    return result.checked


SPANNED = [  # (module, name, work of one call)
    ("model", "SpeedProfile", None),
    ("bricks", "bricks_by_cost", None),
    ("bricks", "robust_bags", None),
    ("sand", "lower_bound_probe", None),
    ("pebbles", "pebbles_bags", lambda args, result: len(args[0].job_sizes)),
    ("second_stage", "greedy_assignment", None),
    ("second_stage", "integral_assignment", None),
    ("second_stage", "optimal_second_stage", lambda args, result: len(args[0].sizes)),
    ("verify", "verify_bricks_success_range", _checked),
    ("verify", "verify_bricks_robustness", _checked),
    ("verify", "verify_sand_upper", _checked),
    ("verify", "enumerate_integral_speed_profiles", lambda args, result: len(result)),
]
COUNTED = [("numerics", "floor_scale"), ("numerics", "ceil_div")]  # too small for a span each
SMALL_ORACLE_BAGS = 5


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.run = array("l")
        self.work = array("q")
        self.stack = [-1]
        self.run_id = -1
        self.run_labels: list[str] = []
        self.counts = {f"{module}.{name}": 0 for module, name in COUNTED}
        self.run_counts: list[dict] = []
        self.patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_run(self, label: str) -> None:
        """Start recording a run (a round or a fill-in) under ``label``."""
        self.run_labels.append(label)
        self.run_id = len(self.run_labels) - 1
        self.run_counts.append(dict(self.counts))
        self._install()

    def end_run(self) -> None:
        self._uninstall()
        before = self.run_counts[self.run_id]
        self.run_counts[self.run_id] = {k: self.counts[k] - before[k] for k in self.counts}

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.work.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    @contextmanager
    def span(self, name: str):
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _spanned(self, name, fn, work):
        name_id, works, open_, close = self._name_id(name), self.work, self._open, self._close

        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if work is not None:
                works[i] = work(args, result)
            return result
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    def _install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "speedrobust"]
        for module, name, work in SPANNED:
            original = getattr(sys.modules[f"speedrobust.{module}"], name)
            fn = original
            if name == "enumerate_integral_speed_profiles":  # a generator: time the whole walk
                fn = lambda *args, _walk=original: list(_walk(*args))  # noqa: E731
            self._rebind(modules, original, self._spanned(f"{module}.{name}", fn, work))
        for module, name in COUNTED:
            original = getattr(sys.modules[f"speedrobust.{module}"], name)
            self._rebind(modules, original, self._counted(f"{module}.{name}", original))

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self.patched.append((module, key, original))

    def _uninstall(self) -> None:
        for module, key, original in reversed(self.patched):
            setattr(module, key, original)
        self.patched.clear()

    # -- derived figures -----------------------------------------------------

    def _runs(self, prefix: str) -> set[int]:
        return {i for i, label in enumerate(self.run_labels) if label.startswith(prefix)}

    def _calls(self, runs: set[int]) -> dict[str, list[tuple[int, int]]]:
        calls: dict[str, list[tuple[int, int]]] = {}
        for i in range(len(self.start)):
            if self.run[i] in runs:
                calls.setdefault(self.names[self.name_of[i]], []).append(
                    (self.end[i] - self.start[i], self.work[i]))
        return calls

    def self_seconds(self, runs: set[int]) -> dict[str, float]:
        """Busy time per layer minus the time of the layer calls it made."""
        child = [0] * len(self.start)
        for i in range(len(self.start)):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(len(self.start)):
            if self.run[i] in runs:
                name = self.names[self.name_of[i]]
                layer = name if name.startswith("bench.") else name.split(".")[0]
                out[layer] = out.get(layer, 0) + (self.end[i] - self.start[i] - child[i]) / 1e9
        return {layer: s / len(runs) for layer, s in sorted(out.items())}

    def layer_metrics(self) -> tuple[dict, dict]:
        """Every per-layer metric, and for each whether the rounds or the fill-ins gave it.

        Times come from the measured rounds; a layer the workload never calls
        is timed on the fill-in runs of the other workloads.  Counts are per
        round and come from the first measured round only.
        """
        rounds = self._runs("round-")
        first = min(rounds)
        main, fill = self._calls(rounds), self._calls(self._runs("fill:"))
        values, sources = {}, {}
        for name, unit, derive in TIMED:
            value = derive(main)
            sources[name] = "rounds"
            if value is None:
                value, sources[name] = derive(fill), "fill-in"
            values[name] = (value, unit)
        once = self._calls({first})
        counts = self.run_counts[first]
        values["model.speed_profiles"] = (len(once.get("model.SpeedProfile", ())), "count")
        values["second_stage.oracle_calls"] = (len(once.get("second_stage.optimal_second_stage", ())),
                                               "count")
        values["numerics.floor_scale_calls"] = (counts["numerics.floor_scale"], "count")
        values["numerics.ceil_div_calls"] = (counts["numerics.ceil_div"], "count")
        return values, sources

    def write(self, directory: Path, stem: str, summary: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"trace-{stem}.csv", "w") as fh:
            fh.write("run,name,start_ns,end_ns,parent,work\n")
            for i in range(len(self.start)):
                fh.write(f"{self.run_labels[self.run[i]]},{self.names[self.name_of[i]]},"
                         f"{self.start[i]},{self.end[i]},{self.parent[i]},{self.work[i]}\n")
        (directory / f"layers-{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")


def _per_work(name, scale):
    def derive(calls):
        rows = calls.get(name)
        return sum(d for d, _ in rows) / sum(w for _, w in rows) / scale if rows else None
    return derive


def _per_call(name, scale):
    def derive(calls):
        rows = calls.get(name)
        return sum(d for d, _ in rows) / len(rows) / scale if rows else None
    return derive


def _oracle(deep, scale, tail=False):
    """Oracle call times split by bag count; the tail is the 11th-largest value.

    With fewer than forty calls there is no tail of ten samples, so the
    largest call stands in for it.
    """
    def derive(calls):
        times = sorted(d for d, bags in calls.get("second_stage.optimal_second_stage", ())
                       if (bags > SMALL_ORACLE_BAGS) == deep)
        if not times:
            return None
        if not tail:
            return statistics.median(times) / scale
        return (times[-11] if len(times) >= 40 else times[-1]) / scale
    return derive


US, MS = 1e3, 1e6
TIMED = [
    ("verify.success_cell_us", "us/cell", _per_work("verify.verify_bricks_success_range", US)),
    ("bricks.by_cost_us", "us/call", _per_call("bricks.bricks_by_cost", US)),
    ("bricks.robust_bags_us", "us/call", _per_call("bricks.robust_bags", US)),
    ("verify.robust_profile_us", "us/profile", _per_work("verify.verify_bricks_robustness", US)),
    ("verify.profiles_us", "us/profile", _per_work("verify.enumerate_integral_speed_profiles", US)),
    ("second_stage.integral_us", "us/call", _per_call("second_stage.integral_assignment", US)),
    ("second_stage.greedy_us", "us/call", _per_call("second_stage.greedy_assignment", US)),
    ("verify.sand_check_us", "us/check", _per_work("verify.verify_sand_upper", US)),
    ("model.speed_profile_us", "us/call", _per_call("model.SpeedProfile", US)),
    ("pebbles.pack_us_per_job", "us/job", _per_work("pebbles.pebbles_bags", US)),
    ("sand.probe_ms", "ms/call", _per_call("sand.lower_bound_probe", MS)),
    ("second_stage.oracle_small_us", "us/call", _oracle(False, US)),
    ("second_stage.oracle_deep_ms_p50", "ms/call", _oracle(True, MS)),
    ("second_stage.oracle_deep_ms_tail", "ms/call", _oracle(True, MS, tail=True)),
]
