#!/usr/bin/env python3
"""Certification benchmark for speedrobust: time to certificate, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload success-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one table
    python3 bench/run.py --selftest                       # quick mode plus checker self-checks
    python3 bench/run.py --write-digests --seed 1         # regenerate bench/digests.json

A run repeats whole rounds of the workload's campaign while another round
fits in ``--seconds``, checks every round's outputs, and requires every round
to give the same output digest.  It sets the workload up seven times (fresh
import of ``speedrobust`` from ``src/``, seeded inputs, warm-up), spread over
the run, and reports the median as ``setup_s``; each round uses the latest
set-up.  The last line of standard output is one JSON object.
With ``--trace 1`` rounds alternate untraced and traced, and the per-layer
metrics are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 7


def import_library():
    """Import ``speedrobust`` from this checkout's ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "speedrobust"]:
        del sys.modules[name]
    return importlib.import_module("speedrobust")


def set_up(workload, seed: int, quick: bool, times: list[float]):
    t0 = time.perf_counter()
    sr = import_library()
    inputs = workload.inputs(sr, seed, quick)
    workload.warm(sr)
    times.append(time.perf_counter() - t0)
    return sr, inputs


def _rational_text(value):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(workload, out) -> str:
    text = json.dumps(workload.digest_view(out), default=_rational_text, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Round:
    """One round of a workload: its outputs checked, its parts timed."""

    def __init__(self, workload, sr, inputs, tracer: Tracer | None = None, label: str = ""):
        self.parts: dict = {}
        if tracer is not None:
            tracer.begin_run(label)
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.campaign") if tracer else nullcontext():
                out = workload.run(sr, inputs, self._part)
            self.seconds = time.perf_counter() - t0
            with tracer.span("bench.check") if tracer else nullcontext():
                self.verdict = workload.check(inputs, out)
        finally:
            if tracer is not None:
                tracer.end_run()
        self.traced = tracer is not None
        self.digest = digest(workload, out)

    @contextmanager
    def _part(self, key):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.parts[key] = self.parts.get(key, 0.0) + time.perf_counter() - t0


def campaign_seconds(rounds: list[Round]) -> float:
    """Sum over the campaign's parts of each part's fastest time across rounds.

    Other tenants of a shared machine can make the same call up to twice as
    slow, for stretches of ten seconds to minutes.  A part's fastest round is
    the one least slowed, so the sum estimates the campaign on a quiet
    machine; a median would move with every stretch that covers most of a run.
    """
    return sum(min(r.parts[key] for r in rounds) for key in rounds[0].parts)


def reference_note(name: str, seed: int, quick: bool, sha: str) -> str:
    if DIGESTS.exists() and not quick:
        ref = json.loads(DIGESTS.read_text())
        if ref["seed"] == seed and name in ref["digests"]:
            same = ref["digests"][name] == sha
            return f"{'matches' if same else 'differs from'} the reference for seed {seed}"
    return "no reference digest for this seed and mode"


def measure(args) -> int:
    workload = WORKLOADS[args.workload]
    setups: list[float] = []
    sr, inputs = set_up(workload, args.seed, args.quick, setups)
    tracer = Tracer() if args.trace else None

    # Whole rounds while another one fits in --seconds; with tracing, rounds
    # alternate untraced and traced so that both sides see the same machine.
    # Each round (each pair, when tracing) moves to the next allowed CPU: on a
    # shared host one CPU is often slowed while the other is not, and
    # campaign_seconds keeps each part's fastest round.  The set-ups are
    # spread evenly over the run, so that their median sees the same host
    # load as the rounds rather than that of its first second.
    cpus = sorted(os.sched_getaffinity(0))
    rounds: list[Round] = []
    start = time.perf_counter()
    while (not rounds or (tracer and len(rounds) < 2) or time.perf_counter() - start
           + max(r.seconds for r in rounds) <= args.seconds):
        if (len(setups) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setups) * args.seconds / SETUP_REPEATS):
            sr, inputs = set_up(workload, args.seed, args.quick, setups)
        traced = tracer is not None and len(rounds) % 2 == 1
        os.sched_setaffinity(0, {cpus[len(rounds) // (2 if tracer else 1) % len(cpus)]})
        rounds.append(Round(workload, sr, inputs, tracer if traced else None, f"round-{len(rounds)}"))
        print(f"round {len(rounds)} {'traced' if traced else 'untraced'} {rounds[-1].seconds:.4f} s",
              file=sys.stderr)
    while len(setups) < SETUP_REPEATS:  # runs too short to spread them
        sr, inputs = set_up(workload, args.seed, args.quick, setups)
    setup_s = statistics.median(setups)
    problems = []
    fills = [w for w in WORKLOADS.values() if tracer and w is not workload]
    for fill in fills:  # inputs built outside any traced run, so they leave no spans
        fill_inputs = fill.inputs(sr, args.seed, True)
        verdict = Round(fill, sr, fill_inputs, tracer, f"fill:{fill.name}").verdict
        problems += [f"fill-in {fill.name}: {p}" for p in verdict.problems]
    failed_ops = rounds[0].verdict.failed
    for r in rounds:
        problems += r.verdict.problems
        if r.digest != rounds[0].digest or r.verdict.failed != failed_ops:
            problems.append("a round gave different outputs from the first round")
    attempted = sum(r.verdict.attempted for r in rounds)
    failed = sum(len(r.verdict.failed) for r in rounds)

    name = workload.name
    print(f"workload {name} seed {args.seed} rounds {len(rounds)}{' quick' if args.quick else ''}")
    for op in failed_ops:
        print(f"failed-op {name} {op}")
    for problem in problems:
        print(f"problem {name} {problem}")
    print(f"digest {name} {rounds[0].digest} "
          f"({reference_note(name, args.seed, args.quick, rounds[0].digest)})")

    untraced = campaign_seconds([r for r in rounds if not r.traced])
    if tracer:
        traced_s = campaign_seconds([r for r in rounds if r.traced])
        values, sources = tracer.layer_metrics()
        values["trace.campaign_s"] = (traced_s, "s")
        values["trace.overhead_s"] = (traced_s - untraced, "s")
        self_s = tracer.self_seconds({i for i, label in enumerate(tracer.run_labels)
                                      if label.startswith("round-")})
        for layer, seconds in self_s.items():
            print(f"self-time {name} {layer} {seconds:.6f} s/round", file=sys.stderr)
        stem = f"{name}{'-quick' if args.quick else ''}"
        tracer.write(OUT, stem, {
            "workload": name, "seed": args.seed, "rounds": tracer.run_labels,
            "metrics": {k: {"value": v, "unit": u, "source": sources.get(k, "rounds")}
                        for k, (v, u) in values.items()},
            "self_seconds_per_round": self_s,
        })
    else:
        values = {
            "campaign_s": (untraced, "s"),
            "checks": (rounds[0].verdict.checks, "count"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for key, (value, unit) in values.items():
        print(f"metric {name} {key} {value} {unit}")
    print(f"ops {name} attempted {attempted} failed {failed}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def _child(args, name: str, seconds) -> tuple[int, str]:
    cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def run_all(args) -> int:
    results, status = {}, 0
    for name in WORKLOADS:
        code, stdout = _child(args, name, args.seconds)
        print(stdout, end="", flush=True)
        status |= code
        lines = stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(results))
    return 1 if status else 0


def write_digests(args) -> int:
    digests = {}
    for name in WORKLOADS:
        code, stdout = _child(args, name, 0)
        if code != 0:
            print(stdout, end="")
            return 1
        digests[name] = next(line.split()[2] for line in stdout.splitlines()
                             if line.startswith("digest "))
    DIGESTS.write_text(json.dumps({"seed": args.seed, "digests": digests}, indent=1) + "\n")
    print(f"wrote {DIGESTS.relative_to(HERE.parent)} for seed {args.seed}")
    return 0


def selftest(args) -> int:
    """Quick mode of every workload; each checker must accept it and reject every corruption."""
    def untimed(key):
        return nullcontext()

    ok = True
    for workload in WORKLOADS.values():
        sr = import_library()
        inputs = workload.inputs(sr, args.seed, True)
        t0 = time.perf_counter()
        out = workload.run(sr, inputs, untimed)
        verdict = workload.check(inputs, out)
        again = digest(workload, workload.run(sr, inputs, untimed)) == digest(workload, out)
        passed = not verdict.problems and again
        print(f"[{'PASS' if passed else 'FAIL'}] {workload.name} quick: "
              f"{verdict.attempted} ops, {len(verdict.failed)} failed, {verdict.checks} checks, "
              f"{time.perf_counter() - t0:.2f} s", *verdict.problems, sep="\n  ")
        ok &= passed
        for label, corrupt in workload.corruptions.items():
            damaged = copy.deepcopy(out)
            corrupt(damaged)
            rejected = bool(workload.check(inputs, damaged).problems)
            print(f"[{'PASS' if rejected else 'FAIL'}] {workload.name} rejects {label}")
            ok &= rejected
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="shrunken inputs, a few seconds per workload")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "speedrobust" / "__init__.py").is_file():
        print(f"error: no speedrobust sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        return selftest(args)
    if args.write_digests:
        return write_digests(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
