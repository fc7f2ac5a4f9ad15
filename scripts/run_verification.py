#!/usr/bin/env python3
"""Run the full verification campaigns and print a one-line summary each.

Covers the whole coin-construction grid (m <= 144, 60 jobs per machine), the
same grid rerun just below the target factor (which must fail, witnessing
tightness), the divisible-load tightness sweep, and an exhaustive robustness
sweep over integral adversaries.  Exits nonzero if any campaign that should
be clean reports failures.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fractions import Fraction

from speedrobust.sand import lower_bound_probe, sand_bags, sand_robustness
from speedrobust.verify import (
    verify_bricks_robustness,
    verify_bricks_success_range,
    verify_sand_upper,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--quick", action="store_true", help="shrink the sweeps for a smoke run")
    args = parser.parse_args()

    m_max, lambda_max = (20, 10) if args.quick else (144, 60)
    robust_n, robust_m = (12, 4) if args.quick else (40, 8)
    clean = True

    report = verify_bricks_success_range(m_max, lambda_max, workers=args.workers)
    clean &= report.ok
    print(f"success-range 8/5     : checked={report.checked} failures={len(report.failures)} "
          f"elapsed={report.elapsed_ms}ms", flush=True)

    shaved = verify_bricks_success_range(9, 5, rho=Fraction(159, 100))
    witnessed = any(f["n"] == 45 and f["m"] == 9 for f in shaved.failures)
    clean &= witnessed
    print(f"success-range 159/100 : failures={len(shaved.failures)} "
          f"(expected nonzero, witness at n=45 m=9: {witnessed})", flush=True)

    t0 = time.perf_counter()
    sand_ok = True
    for m in range(2, 7):
        for b in range(1, 2 * m + 1):
            rep = verify_sand_upper(m, b, trials=1000, seed=args.seed)
            sand_ok &= rep.ok
            probe = lower_bound_probe(m, b, sand_bags(m, b, m**b))
            sand_ok &= probe == sand_robustness(m, b)
    clean &= sand_ok
    print(f"sand tightness        : ok={sand_ok} elapsed={int((time.perf_counter()-t0)*1000)}ms",
          flush=True)

    t0 = time.perf_counter()
    robust_ok = True
    checked = 0
    for m in range(1, robust_m + 1):
        for n in range(1, robust_n + 1):
            rep = verify_bricks_robustness(n, m)
            robust_ok &= rep.ok
            checked += rep.checked
    clean &= robust_ok
    print(f"bricks robustness     : ok={robust_ok} profiles={checked} "
          f"elapsed={int((time.perf_counter()-t0)*1000)}ms", flush=True)

    print("ALL CLEAN" if clean else "FAILURES FOUND", flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
