#!/usr/bin/env python3
"""Compare the closed-form fundamental solution against the quadrature oracle.

Sweeps dimensions and prints per-n error statistics with timing; each n is
one vectorised tanh-sinh pass over its cloud (hgauge.bgg.compare_cloud).  A
cloud row that misses --rel-tol raises QuadratureError instead of printing
an error figure.

    python scripts/oracle_sweep.py --dims 2 3 6 8 --points 200 --seed 0
"""

import argparse
import time

from hgauge.bgg import QuadratureConfig, compare_cloud
from hgauge.group import GroupParams


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 6, 8])
    ap.add_argument("--points", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rel-tol", type=float, default=1e-11)
    args = ap.parse_args()

    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    print(f"{'n':>3} {'max rel err':>14} {'mean rel err':>14} {'secs':>7}")
    for n in args.dims:
        t0 = time.perf_counter()
        out = compare_cloud(GroupParams(n), args.points, args.seed, cfg)
        dt = time.perf_counter() - t0
        print(f"{n:>3} {out['max_rel_err']:>14.3e} {out['mean_rel_err']:>14.3e} {dt:>7.2f}")
        x = ", ".join(f"{v:.3f}" for v in out["worst_point"])
        print(f"    worst point: ({x})")


if __name__ == "__main__":
    main()
