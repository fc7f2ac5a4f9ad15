"""The four certification workloads and the checkers for their outputs.

Each workload has four steps.  ``inputs`` builds the seeded inputs (set-up),
``run`` makes every library call of one round (the timed campaign), timing
its parts with ``part`` so that the run can take each part's fastest time
over rounds, ``check`` compares the outputs with ``reference`` or with a
property the method must have, and ``digest_view`` picks the exact outputs
that the run's SHA-256 covers.  ``corruptions`` damage a copy of the outputs; the self-test requires
``check`` to reject each of them.

An operation is one grid cell, one pebbles instance or one oracle instance.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

import reference as ref

EIGHT_FIFTHS = Fraction(8, 5)
SHAVED = Fraction(159, 100)
SAND_BAGS_FAULT = "sand_bags reduces machines to bags when b < m (src/speedrobust/sand.py)"


@dataclass
class Verdict:
    attempted: int
    checks: int = 0
    failed: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class SuccessSweep:
    """Coin construction at 8/5 on a staircase of grids, and the 159/100 witness.

    One call of ``verify_bricks_success_range(144, 60)`` takes seconds, and
    on a shared machine a single long call cannot be timed steadily: its
    time is the average of whatever load the host had during it.  The
    staircase keeps every call to a few tens of milliseconds and still
    reaches m = 144 (with n <= 2m) and 60 jobs per machine (with m <= 24).
    """

    name = "success-sweep"
    # (m_max, lambda_max): about 20,000 cells each, 118,240 in all.
    GRIDS = [(144, 2), (96, 4), (64, 10), (48, 16), (32, 40), (24, 60)]
    QUICK_GRIDS = [(24, 1), (12, 5), (6, 20)]
    SAMPLES = 500

    def inputs(self, sr, seed, quick):
        grids = self.QUICK_GRIDS if quick else self.GRIDS
        m_max, lam = max(m for m, _ in grids), max(lam for _, lam in grids)
        rng = random.Random(seed)
        samples = []
        for _ in range(self.SAMPLES // 10 if quick else self.SAMPLES):
            m = rng.randint(1, m_max)
            samples.append((rng.randint(1, lam * m), m))
        return {"grids": grids, "samples": samples}

    def warm(self, sr):
        sr.verify_bricks_success_range(2, 2)
        sr.solution_size(sr.bricks_by_cost(3, 2, 2), EIGHT_FIFTHS)

    def run(self, sr, inp, part):
        grids = []
        for m_max, lam in inp["grids"]:
            with part(("8/5", m_max, lam)):
                grids.append(sr.verify_bricks_success_range(m_max, lam))
        with part("159/100"):
            shaved = sr.verify_bricks_success_range(9, 5, rho=SHAVED)
        sampled = []
        for i in range(0, len(inp["samples"]), 100):
            with part(("samples", i)):
                sampled += [sr.solution_size(sr.bricks_by_cost(n, m, m), EIGHT_FIFTHS)
                            for n, m in inp["samples"][i:i + 100]]
        return {"grids": grids, "shaved": shaved, "sampled": sampled}

    def check(self, inp, out):
        cells = [lam * m_max * (m_max + 1) // 2 for m_max, lam in inp["grids"]]
        v = Verdict(attempted=sum(cells) + 225)
        if len(out["grids"]) != len(cells):
            v.problems.append(f"{len(out['grids'])} of {len(cells)} 8/5 grids swept")
        for (m_max, lam), want, report in zip(inp["grids"], cells, out["grids"]):
            if report.checked != want or report.failures:
                v.problems.append(f"8/5 sweep m<={m_max} lambda<={lam} checked {report.checked} "
                                  f"of {want} cells, {len(report.failures)} failures")
        shaved = out["shaved"]
        expected = [{"n": n, "m": m, "reason": f"total size {t} < {n}"}
                    for m in range(1, 10) for n in range(1, 5 * m + 1)
                    if (t := ref.coin_total(n, m, SHAVED)) < n]
        if shaved.checked != 225 or shaved.failures != expected:
            v.problems.append("159/100 sweep disagrees with the reference recurrence")
        if not any(f["n"] == 45 and f["m"] == 9 for f in shaved.failures):
            v.problems.append("159/100 sweep lost the tightness witness at n=45, m=9")
        for (n, m), got in zip(inp["samples"], out["sampled"], strict=True):
            own = ref.coin_total(n, m, EIGHT_FIFTHS)
            if got != own or own < n:
                v.problems.append(f"cell n={n} m={m}: library total {got}, reference {own}")
        v.checks = sum(r.checked for r in out["grids"]) + shaved.checked
        return v

    def digest_view(self, out):
        return [r.payload(include_elapsed=False) for r in out["grids"]] + [
            out["shaved"].payload(include_elapsed=False), out["sampled"]]

    corruptions = {
        "dropped cell": lambda out: setattr(out["grids"][-1], "checked", out["grids"][-1].checked - 1),
        "dropped grid": lambda out: out["grids"].pop(),
        "changed rational": lambda out: out["sampled"].__setitem__(0, out["sampled"][0] + 1),
        "lost witness": lambda out: setattr(out["shaved"], "failures", [
            f for f in out["shaved"].failures if (f["n"], f["m"]) != (45, 9)]),
    }


class RobustnessSweep:
    """Coin-paying assigner on every integral speed profile, m <= 8, n <= 30."""

    name = "robustness-sweep"
    SAMPLE_PROFILES = 25

    def inputs(self, sr, seed, quick):
        # n <= 30 keeps the largest cell, (30, 8) with 2,462 profiles, to a
        # few tens of milliseconds; n <= 40 had cells of a third of a second.
        n_max, m_max = (12, 4) if quick else (30, 8)
        counts = ref.partition_counts(n_max, m_max)
        rng = random.Random(seed)
        # The sampled cells are fixed, so that the cost of walking them does
        # not depend on the seed; the seed picks the profiles within them.
        samples = []
        for m in range(2, m_max + 1):
            picks = sorted(rng.randrange(counts[n_max][m]) for _ in range(self.SAMPLE_PROFILES))
            samples.append(((n_max, m), picks))
        return {"n_max": n_max, "m_max": m_max, "counts": counts, "samples": samples}

    def warm(self, sr):
        sr.verify_bricks_robustness(5, 3)
        list(sr.enumerate_integral_speed_profiles(5, 3))

    def run(self, sr, inp, part):
        cells = [(n, m) for m in range(1, inp["m_max"] + 1) for n in range(1, inp["n_max"] + 1)]
        reports = {}
        for n, m in cells:
            with part(("cell", n, m)):
                reports[(n, m)] = sr.verify_bricks_robustness(n, m)
        with part("bags"):
            profiles = {(n, m): sr.robust_bags(n, m, m) for n, m in cells}
        samples = []
        for (n, m), picks in inp["samples"]:
            with part(("sample", n, m)):
                samples.append(self._sample(sr, n, m, profiles[(n, m)], picks))
        return {"reports": reports, "bags": {c: p.sizes for c, p in profiles.items()},
                "samples": samples}

    @staticmethod
    def _sample(sr, n, m, bags, picks):
        """Walk every speed profile of the cell; assign bags on the picked ones.

        The walk is not kept as a list, so peak memory does not depend on
        which cells the seed picked.
        """
        int_bags = [int(a) for a in bags.sizes]
        wanted = Counter(picks)
        rows, count = [], 0
        for count, speeds in enumerate(sr.enumerate_integral_speed_profiles(n, m), 1):
            for _ in range(wanted[count - 1]):
                a = sr.integral_assignment(int_bags, [int(s) for s in speeds.speeds], EIGHT_FIFTHS)
                rows.append((speeds.speeds, a and a.machine_of_bag, a and sr.makespan(a, bags, speeds)))
        return (n, m), count, rows

    def check(self, inp, out):
        counts = inp["counts"]
        cells = [(n, m) for m in range(1, inp["m_max"] + 1) for n in range(1, inp["n_max"] + 1)]
        v = Verdict(attempted=len(cells))
        for n, m in cells:
            report, bags = out["reports"].get((n, m)), out["bags"].get((n, m))
            if report is None or bags is None:
                v.problems.append(f"cell n={n} m={m} missing")
                continue
            if not report.ok or report.checked != counts[n][m]:
                v.problems.append(f"cell n={n} m={m}: checked {report.checked} of "
                                  f"{counts[n][m]} profiles, {len(report.failures)} failures")
            if len(bags) != m or sum(bags) != n or any(a.denominator != 1 for a in bags):
                v.problems.append(f"cell n={n} m={m}: bags {bags} are not {m} integers summing to n")
            v.checks += report.checked
        for (n, m), count, rows in out["samples"]:
            if count != counts[n][m]:
                v.problems.append(f"cell n={n} m={m}: {count} speed profiles enumerated, "
                                  f"{counts[n][m]} expected")
            bags = out["bags"].get((n, m), ())
            for speeds, owners, span in rows:
                # n unit jobs on integral speeds summing to n: the clairvoyant
                # optimum gives machine i exactly speeds[i] jobs, makespan 1.
                if (len(speeds) != m or sum(speeds) != n or any(s.denominator != 1 for s in speeds)
                        or list(speeds) != sorted(speeds, reverse=True)):
                    v.problems.append(f"cell n={n} m={m}: {speeds} is not an integral profile of n")
                elif owners is None:
                    v.problems.append(f"cell n={n} m={m}: no assignment on speeds {speeds}")
                elif span != ref.makespan(owners, bags, speeds) or span > EIGHT_FIFTHS:
                    v.problems.append(f"cell n={n} m={m}: makespan {span} on speeds {speeds}")
        return v

    def digest_view(self, out):
        return [[list(cell), report.payload(include_elapsed=False), out["bags"][cell]]
                for cell, report in out["reports"].items()] + [
            [list(cell), count, [span for _, _, span in rows]] for cell, count, rows in out["samples"]]

    corruptions = {
        "dropped cell": lambda out: out["reports"].pop((5, 3)),
        "changed rational": lambda out: out["bags"].__setitem__(
            (9, 3), (out["bags"][(9, 3)][0] + 1,) + out["bags"][(9, 3)][1:]),
        "wrong makespan": lambda out: out["samples"][0][2].__setitem__(
            0, out["samples"][0][2][0][:2] + (Fraction(9, 5),)),
    }


class SandPebbles:
    """Sand bags against adversaries and random speeds, probes, and pebbles packing."""

    name = "sand-pebbles"
    GREEDY_SAMPLES = 4

    def inputs(self, sr, seed, quick):
        m_max, trials, packings = (4, 100, 100) if quick else (6, 150, 300)
        rng = random.Random(seed)
        cells = {}
        for m in range(2, m_max + 1):
            for b in range(1, 2 * m + 1):
                speeds = []
                for _ in range(self.GREEDY_SAMPLES):
                    raw = [0]
                    while not any(raw):
                        raw = [rng.randint(0, 1000) for _ in range(m)]
                    speeds.append(sr.SpeedProfile(Fraction(r * m**b, sum(raw)) for r in raw))
                cells[(m, b)] = speeds
        pebbles = []
        for _ in range(packings):  # the small-jobs recipe of acceptance criterion 8
            q = Fraction(rng.randint(5, 100), 100)
            m = rng.randint(2, 8)
            b = m if rng.random() < 0.5 else 2 * m
            jobs, total = [], Fraction(0)
            while total < m:
                p = Fraction(rng.randint(1, 60), 60) * q
                jobs.append(p)
                total += p
            pebbles.append((sr.Instance(jobs, m, b), jobs, q, ref.sand_bound(m, b) + q))
        return {"seed": seed, "trials": trials, "cells": cells, "pebbles": pebbles}

    def warm(self, sr):
        sr.verify_sand_upper(2, 2, 5)
        sr.lower_bound_probe(2, 2, sr.sand_bags(2, 2, 4))
        sr.pebbles_bags(sr.Instance([1, 1, 1], 2, 2), Fraction(2))

    def run(self, sr, inp, part):
        cells = {}
        for (m, b), speed_samples in inp["cells"].items():
            with part((m, b)):
                cells[(m, b)] = self._cell(sr, m, b, speed_samples, inp)
        packs = []
        for i in range(0, len(inp["pebbles"]), 50):
            with part(("pebbles", i)):
                packs += [sr.pebbles_bags(instance, rho)
                          for instance, _, _, rho in inp["pebbles"][i:i + 50]]
        return {"cells": cells, "packs": packs}

    @staticmethod
    def _cell(sr, m, b, speed_samples, inp):
        bags = sr.sand_bags(m, b, m**b)
        rho = sr.sand_robustness(m, b)
        greedy = []
        for speeds in speed_samples:
            a = sr.greedy_assignment(bags, speeds, rho)
            greedy.append((speeds.speeds, a and a.machine_of_bag, a and sr.makespan(a, bags, speeds)))
        return {
            "report": sr.verify_sand_upper(m, b, inp["trials"], seed=inp["seed"]),
            "bags": bags.sizes, "rho": rho, "greedy": greedy,
            "probe": sr.lower_bound_probe(m, b, bags),
        }

    def check(self, inp, out):
        v = Verdict(attempted=len(inp["cells"]) + len(inp["pebbles"]))
        for (m, b) in inp["cells"]:
            c = out["cells"].get((m, b))
            if c is None:
                v.problems.append(f"cell m={m} b={b} missing")
                continue
            bound, report = ref.sand_bound(m, b), c["report"]
            complete = report.checked == b + inp["trials"]
            clean = (report.ok and complete and c["rho"] == bound and c["probe"] == bound
                     and len(c["bags"]) == b and sum(c["bags"]) == m**b)
            for speeds, owners, span in c["greedy"]:
                if owners is None:
                    if clean:
                        v.problems.append(f"cell m={m} b={b}: greedy failed on {speeds}")
                elif span != ref.makespan(owners, c["bags"], speeds) or span > bound:
                    v.problems.append(f"cell m={m} b={b}: greedy makespan {span} above {bound}")
            if clean:
                v.checks += report.checked
            elif 2 <= b < m and complete and any(f["kind"] == "adversary" for f in report.failures):
                v.failed.append(f"m={m} b={b}: {SAND_BAGS_FAULT}; probe {c['probe']}, bound {bound}")
            else:
                v.problems.append(f"cell m={m} b={b}: {len(report.failures)} failures, "
                                  f"probe {c['probe']}, bound {bound}")
        for (instance, jobs, q, rho), result in zip(inp["pebbles"], out["packs"], strict=True):
            m, b = instance.machine_count, instance.bag_count
            total = sum(jobs)
            sizes = result.bag_sizes
            if max(jobs) * m > q * total or not result.packed_all or len(sizes) != b \
                    or sum(sizes) != total:
                v.problems.append(f"pebbles m={m} b={b} q={q}: not a full packing of the jobs")
                continue
            bound = ref.sand_bound(m, b)
            packed = reference = Fraction(0)
            for size in sizes:
                packed += size * m / total
                reference += bound - reference / m
                if packed < reference:
                    v.problems.append(f"pebbles m={m} b={b} q={q}: prefix {packed} below {reference}")
                    break
            else:
                v.checks += 1
        return v

    def digest_view(self, out):
        return [[list(cell), c["report"].payload(include_elapsed=False), c["bags"], c["probe"],
                 [span for _, _, span in c["greedy"]]] for cell, c in out["cells"].items()] + [
            [r.bag_sizes, r.packed_all] for r in out["packs"]]

    corruptions = {
        "changed rational": lambda out: out["cells"][(2, 2)].__setitem__(
            "probe", out["cells"][(2, 2)]["probe"] + Fraction(1, 1000)),
        "failed check": lambda out: out["cells"][(3, 4)]["report"].failures.append(
            {"kind": "random", "trial": 0, "speeds": [], "reason": "injected"}),
        "short packing": lambda out: out["packs"].__setitem__(0, replace(
            out["packs"][0], bag_sizes=(out["packs"][0].bag_sizes[0] - Fraction(1, 1000),)
            + out["packs"][0].bag_sizes[1:])),
    }


class OracleCert:
    """Discretized lower-bound certificate plus deep and brute-force-checked oracle calls."""

    name = "oracle-cert"
    # (3, 4) is left out: its 4,410 profiles took 2 s, two thirds of a round,
    # too few rounds per run for the fastest-round timing to settle.
    GRIDS = [(2, 2), (2, 3), (3, 3), (2, 4), (2, 5), (4, 3)]
    # 10 bags on 5 machines: 12 on 6 gave a seed-to-seed spread of half the
    # deep-search time, too wide to compare two commits on.
    DEEP = (10, 5, 200)
    # The deep instances come from this fixed seed, not from --seed.  Search
    # time is heavy-tailed: the same recipe at seeds 1 to 8 gave totals from
    # 0.57 to 0.90 s, which would spread campaign_s by seed alone.
    DEEP_SEED = 0
    SMALL = 40

    def inputs(self, sr, seed, quick):
        grids = self.GRIDS[:3] if quick else self.GRIDS
        profiles = {(m, b): [sr.BagProfile(p) for p in ref.partitions(m**b, b)] for m, b in grids}
        bag_count, machine_count, deep_count = self.DEEP
        rng = random.Random(self.DEEP_SEED)
        deep = []
        for _ in range(10 if quick else deep_count):
            bags = [rng.randint(1, 60) for _ in range(bag_count)]
            speeds = [rng.randint(1, 9) for _ in range(machine_count)]
            deep.append((bags, speeds))
        rng = random.Random(seed)
        small = []
        for _ in range(10 if quick else self.SMALL):  # the recipe of acceptance criterion 10
            b, m = rng.randint(1, 7), rng.randint(1, 3)
            bags = [Fraction(rng.randint(0, 24), rng.randint(1, 4)) for _ in range(b)]
            speeds = [rng.randint(0, 9) for _ in range(m - 1)] + [rng.randint(1, 9)]
            small.append((bags, speeds))

        def build(pairs):
            return [(sr.BagProfile(bags), sr.SpeedProfile(speeds), sorted(bags, reverse=True),
                     sorted(speeds, reverse=True)) for bags, speeds in pairs]

        return {"profiles": profiles, "deep": build(deep), "small": build(small)}

    def warm(self, sr):
        sr.lower_bound_probe(2, 2, sr.BagProfile([3, 1]))

    def run(self, sr, inp, part):
        probes = {}
        for (m, b), profiles in inp["profiles"].items():
            probes[(m, b)] = []
            for i in range(0, len(profiles), 100):
                with part((m, b, i)):
                    probes[(m, b)] += [sr.lower_bound_probe(m, b, p) for p in profiles[i:i + 100]]
        deep = []
        for i, (bags, speeds, _, _) in enumerate(inp["deep"]):
            with part(("deep", i)):
                deep.append(sr.optimal_second_stage(bags, speeds))
        with part("small"):
            small = [sr.optimal_second_stage(bags, speeds) for bags, speeds, _, _ in inp["small"]]
        return {"probes": probes, "deep": deep, "small": small}

    def check(self, inp, out):
        v = Verdict(attempted=sum(map(len, inp["profiles"].values()))
                    + len(inp["deep"]) + len(inp["small"]))
        for (m, b) in inp["profiles"]:
            values = out["probes"].get((m, b), [])
            scale = m**b
            expected = ref.partition_counts(scale, b)[scale][b]
            if len(values) != expected or min(values, default=0) < ref.sand_bound(m, b):
                v.problems.append(f"grid m={m} b={b}: {len(values)} of {expected} profiles, "
                                  f"minimum probe {min(values, default=None)}")
            else:
                v.checks += expected
        for (_, _, bags, speeds), (value, witness) in zip(inp["deep"], out["deep"], strict=True):
            if (ref.makespan(witness.machine_of_bag, bags, speeds) != value
                    or value < Fraction(sum(bags), sum(speeds))
                    or value < Fraction(bags[0], speeds[0])
                    or value > ref.largest_first(bags, speeds)):
                v.problems.append(f"deep bags={bags} speeds={speeds}: value {value}")
            else:
                v.checks += 1
        for (_, _, bags, speeds), (value, witness) in zip(inp["small"], out["small"], strict=True):
            if (value != ref.brute_force(bags, speeds)
                    or ref.makespan(witness.machine_of_bag, bags, speeds) != value):
                v.problems.append(f"small bags={bags} speeds={speeds}: value {value}")
            else:
                v.checks += 1
        return v

    def digest_view(self, out):
        return [[list(grid), values] for grid, values in out["probes"].items()] + [
            [value for value, _ in out["deep"]], [value for value, _ in out["small"]]]

    corruptions = {
        "wrong oracle value": lambda out: out["deep"].__setitem__(
            0, (out["deep"][0][0] + Fraction(1, 1000), out["deep"][0][1])),
        "wrong small value": lambda out: out["small"].__setitem__(
            0, (out["small"][0][0] + 1, out["small"][0][1])),
        "dropped profile": lambda out: out["probes"][(3, 3)].pop(),
        "probe below bound": lambda out: out["probes"][(2, 3)].__setitem__(0, Fraction(1)),
    }


WORKLOADS = {w.name: w for w in (SuccessSweep(), RobustnessSweep(), SandPebbles(), OracleCert())}
