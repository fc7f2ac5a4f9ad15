"""Command-line front end: bag construction, assignment, probing, tables, campaigns.

Every subcommand except ``run`` prints structured data: JSON by default, CSV
with ``--format csv`` (``tables`` defaults to CSV since its tables exist to be
pasted into other tools).  Such a subcommand returns its rows, and ``main``
renders the whole document before it writes any of it, so a command that
fails leaves nothing on standard output.  ``run`` prints one summary line per
campaign of :data:`~speedrobust.verify.CAMPAIGNS`, each missed one followed by
its failure records as one JSON object per line, then the verdict; the
campaigns run one after another in this process, in table order.  Exit status
is 0 on success, 1 when a verification, assignment or bag build reports
failure or standard output closes early, 2 on usage errors.  Rationals on the
command line are ``p/q`` or plain integers; float syntax is rejected.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from functools import partial

from .bricks import (
    BRICK_ROBUSTNESS,
    bricks_bags,
    normalized_surplus,
    robust_bags,
    surplus_breakpoints,
    transformation_factor,
)
from .model import BagProfile, Instance, SpeedProfile, makespan
from .numerics import decimal_string, exact_factor, exact_rational, format_rational, parse_rational
from .pebbles import pebbles_bags
from .sand import adversary_configs, lower_bound_probe, sand_bags, sand_robustness
from .second_stage import greedy_assignment, integral_assignment, optimal_second_stage
from .verify import CAMPAIGNS


def _rational(text: str, convert=parse_rational) -> Fraction:
    """Argument type of a single rational; argparse prints the reason a literal is refused."""
    try:
        return convert(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_positive_rational = partial(_rational, convert=exact_factor)  # every --rho: above zero


def _parse_values(text: str) -> list[Fraction]:
    """Inline comma- or whitespace-separated rationals, or ``@file`` with a JSON array."""
    try:
        if not text.startswith("@"):
            return [parse_rational(part) for part in text.replace(",", " ").split()]
        with open(text[1:]) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError(f"{text[1:]} must hold a JSON array, got {type(data).__name__}")
        return [exact_rational(v) for v in data]
    except (ValueError, OSError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _json_value(value: Fraction):
    """JSON's hook for a rational in a row: a whole value as an integer, any other as ``"p/q"``."""
    return value.numerator if value.denominator == 1 else format_rational(value)


def _written(value: Fraction, places: int, exact: str = "exact", decimal: str = "decimal") -> dict:
    """The columns of one rational in a table: exact as ``p/q``, and rounded to ``places``."""
    return {exact: format_rational(value), decimal: decimal_string(value, places)}


def _check_options(args, flag: str, table: dict[str, tuple[tuple[str, ...], ...]]) -> None:
    """Refuse an option that the chosen ``--flag`` requires but lacks, or does not read but got.

    ``table`` maps each choice to the options it requires and the others it reads; the
    parser leaves each option that some choice names None unless it is given.
    """
    choice = getattr(args, flag)
    required, read = table[choice]
    given = [option for pair in table.values() for option in pair[0] + pair[1]
             if getattr(args, option.replace("-", "_")) is not None]
    for option in required:
        if option not in given:
            raise ValueError(f"--{flag} {choice} requires --{option}")
    for option in given:
        if option not in required + read:
            raise ValueError(f"--{flag} {choice} does not read --{option}")


def _rendered(rows: list[dict], fmt: str) -> str:
    """The whole document: indented JSON, or CSV whose columns are every row's keys in first-seen order."""
    if fmt == "json":
        return json.dumps(rows, indent=2, default=_json_value) + "\n"
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(dict.fromkeys(key for row in rows for key in row)),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


# -- subcommands ----------------------------------------------------------------

def _cmd_bags(args) -> tuple[list[dict], bool]:
    mode = args.mode
    _check_options(args, "mode", {"sand": (("total",), ()), "bricks": (("n",), ("rho",)),
                                  "pebbles": (("jobs", "rho"), ()), "auto": (("n",), ())})
    ok = True
    if mode == "sand":
        profile = sand_bags(args.m, args.b, args.total)
        rows = [{"bag": i, "size": a} for i, a in enumerate(profile.sizes)]
    elif mode == "bricks":
        solution = bricks_bags(args.n, args.m, args.b, args.rho or BRICK_ROBUSTNESS)
        rows = [
            {"bag": i, "size": a, "cost": z, "total": solution.total_size,
             "successful": solution.successful}
            for i, (a, z) in enumerate(zip(solution.bag_sizes, solution.bag_costs))
        ]
        ok = solution.successful
    elif mode == "pebbles":
        result = pebbles_bags(Instance(args.jobs, args.m, args.b), args.rho)
        rows = [
            {"bag": i, "size": a, "packed_all": result.packed_all}
            for i, a in enumerate(result.bag_sizes)
        ]
        ok = result.packed_all
    else:  # auto
        profile = robust_bags(args.n, args.m, args.b)
        rows = [{"bag": i, "size": a} for i, a in enumerate(profile.sizes)]
    return rows, ok


def _cmd_assign(args) -> tuple[list[dict], bool]:
    reads = ((), ("rho", "trace"))
    _check_options(args, "algo", {"greedy": reads, "integral": reads, "optimal": ((), ())})
    trace: list[dict] | None = [] if args.trace else None
    bags = BagProfile(args.bags)
    speeds = SpeedProfile(args.speeds)  # machine indices are positions in the sorted speeds
    if args.algo == "greedy":
        assignment = greedy_assignment(bags, speeds, args.rho or BRICK_ROBUSTNESS, trace)
    elif args.algo == "integral":  # the library refuses sizes and speeds that are not whole numbers
        assignment = integral_assignment(bags.sizes, speeds.speeds, args.rho or BRICK_ROBUSTNESS, trace)
    else:  # the optimum is its witness's makespan
        assignment = optimal_second_stage(bags, speeds)[1]
    value = makespan(assignment, bags, speeds) if assignment else None

    ok = assignment is not None
    owners = assignment.machine_of_bag if ok else ()
    rows = [{"bag": k, "size": size, "machine": owners[k] if k < len(owners) else None, "ok": ok,
             "makespan": value} for k, size in enumerate(bags.sizes)]
    for row, step in zip(rows, trace or ()):  # a failed trace ends at the bag it could not place
        row.update(before=step["before"], after=step["after"])
    return rows, ok


def _cmd_probe(args) -> tuple[list[dict], bool]:
    profile = BagProfile(args.bags) if args.bags is not None else None
    value = lower_bound_probe(args.m, args.b, profile)
    if profile is None:
        profile = sand_bags(args.m, args.b, args.m**args.b)
    bound = sand_robustness(args.m, args.b)
    rows = []
    for k, config in enumerate(adversary_configs(args.m, args.b)):
        rows.append({
            "config": k,
            "weight": format_rational(config.speeds[-1]),
            "speeds": " ".join(format_rational(s) for s in config.speeds),
            "best_makespan": format_rational(optimal_second_stage(profile, config)[0]),
            "probe": format_rational(value),
            "tight_bound": format_rational(bound),
        })
    return rows, True


def _cmd_tables(args) -> tuple[list[dict], bool]:
    _check_options(args, "which", {"f": ((), ("zmax", "rho")), "surplus": ((), ("lambda-max",)),
                                   "breakpoints": ((), ("lambda-max",))})
    option, bound = ("--zmax", args.zmax) if args.which == "f" else ("--lambda-max", args.lambda_max)
    bound = 60 if bound is None else bound
    if args.which == "f":
        rho = args.rho or BRICK_ROBUSTNESS
        rows = [{"z": z, **_written(transformation_factor(z, rho), 5)} for z in range(2, bound + 1)]
    elif args.which == "surplus":
        rows = [{"lambda": lam, **_written(normalized_surplus(Fraction(lam)), 3)}
                for lam in range(1, bound + 1)]
    else:  # the points up to one past --lambda-max where a bag cost drops out; none below 1
        rows = [{"bag_cost": point.dropped_cost, **_written(point.lam, 3, "lambda_exact", "lambda"),
                 **_written(point.surplus, 3, "surplus_exact", "surplus")}
                for point in surplus_breakpoints(Fraction(max(bound, 0)) + 1)
                if point.dropped_cost is not None]
    if not rows:
        raise ValueError(f"{option} {bound} gives an empty {args.which} table")
    return rows, True


def _cmd_run(args) -> tuple[None, bool]:
    unknown = [name for name in args.names if name not in CAMPAIGNS]
    if unknown:
        raise ValueError(f"unknown campaign {', '.join(unknown)}; choose from {', '.join(CAMPAIGNS)}")
    clean = True
    for name, campaign in CAMPAIGNS.items():
        if args.names and name not in args.names:
            continue
        report = campaign.run()
        met = campaign.meets(report)
        clean &= met
        expected = "a witness" if campaign.witness else "clean"
        # A reader that left (| head) makes this print raise, before the next campaign starts.
        print(f"{name:<17} : {'ok' if met else 'MISSED'} (expects {expected}) "
              f"checked={report.checked} failures={len(report.failures)} "
              f"elapsed={report.elapsed_ms}ms", flush=True)
        if not met:
            for record in report.failures:
                print(json.dumps(record, sort_keys=True, default=str), flush=True)
    print("ALL CLEAN" if clean else "FAILURES FOUND", flush=True)
    return None, clean


def _cmd_surplus(args) -> tuple[list[dict], bool]:
    value = normalized_surplus(args.lam)
    rows = [{"lambda": format_rational(args.lam), **_written(value, 3, "surplus")}]
    return rows, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speedrobust",
        description="Bag construction and verification for scheduling with unknown machine speeds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="json"):
        p.add_argument("--format", choices=["json", "csv"], default=default)

    p = sub.add_parser("bags", help="build a bag profile")
    p.add_argument("--mode", choices=["sand", "pebbles", "bricks", "auto"], required=True)
    p.add_argument("--m", type=int, required=True, help="number of machines")
    p.add_argument("--b", type=int, required=True, help="number of bags")
    p.add_argument("--n", type=int, help="number of unit jobs (bricks/auto)")
    p.add_argument("--total", type=_rational, help="total divisible load (sand)")
    p.add_argument("--jobs", type=_parse_values, help="job sizes: inline p/q,... or @file")
    p.add_argument("--rho", type=_positive_rational, help="target factor (bricks: default 8/5)")
    add_format(p)
    p.set_defaults(func=_cmd_bags)

    p = sub.add_parser("assign", help="assign bags to machines")
    p.add_argument("--algo", choices=["greedy", "integral", "optimal"], required=True)
    p.add_argument("--bags", type=_parse_values, required=True)
    p.add_argument("--speeds", type=_parse_values, required=True)
    p.add_argument("--rho", type=_positive_rational, help="target factor (default 8/5)")
    p.add_argument("--trace", action="store_true", default=None,
                   help="include per-step capacity columns")
    add_format(p)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("probe", help="probe a bag profile against the adversary family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--bags", type=_parse_values,
                   help="profile summing to m**b; defaults to the sand profile")
    add_format(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("tables", help="emit the analysis tables")
    p.add_argument("--which", choices=["f", "surplus", "breakpoints"], required=True)
    p.add_argument("--zmax", type=int, help="largest cost of the f table (default 60)")
    p.add_argument("--lambda-max", dest="lambda_max", type=int,
                   help="largest jobs-per-machine ratio (default 60)")
    p.add_argument("--rho", type=_positive_rational, help="factor of the f table (default 8/5)")
    add_format(p, "csv")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("run", help="run campaigns of the certifying table; exit 1 on a miss")
    # Names are checked in _cmd_run: with nargs="*", choices refuses an empty list before 3.12.
    p.add_argument("names", nargs="*", metavar="NAME",
                   help=f"campaigns to run, in table order (default all): {', '.join(CAMPAIGNS)}")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("surplus", help="normalized surplus at one jobs-per-machine ratio")
    p.add_argument("--lam", type=_rational, required=True,
                   help="jobs-per-machine ratio as p/q")
    add_format(p)
    p.set_defaults(func=_cmd_surplus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rows, ok = args.func(args)
        if rows is not None:  # run printed each campaign's line as it ended
            sys.stdout.write(_rendered(rows, args.format))
        return 0 if ok else 1
    except BrokenPipeError:
        # The reader left: write nothing more, and let the exit flush of stdout go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
