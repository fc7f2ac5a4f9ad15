#!/usr/bin/env python3
"""Run every campaign of ``speedrobust.verify.CAMPAIGNS`` and print one summary line each.

A campaign passes when it reports its expected count and is clean, or reports
its expected witness.  ``--quick`` runs each campaign on its smaller grid.
Exits 1 if any campaign fails.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from speedrobust.verify import CAMPAIGN_SEED, CAMPAIGNS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=CAMPAIGN_SEED)
    parser.add_argument("--quick", action="store_true", help="shrink the sweeps for a smoke run")
    args = parser.parse_args(argv)

    clean = True
    for name, campaign in CAMPAIGNS.items():
        report = campaign.run(args.quick, seed=args.seed, workers=args.workers)
        met = campaign.meets(report, args.quick)
        clean &= met
        expected = "a witness" if campaign.witness else "clean"
        print(f"{name:<17} : {'ok' if met else 'MISSED'} (expects {expected}) "
              f"checked={report.checked} failures={len(report.failures)} "
              f"elapsed={report.elapsed_ms}ms", flush=True)
    print("ALL CLEAN" if clean else "FAILURES FOUND", flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
