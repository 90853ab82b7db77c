#!/usr/bin/env python3
"""Empirical check of the two value-set couplings.

The grid-growing bump kernel (encoded side u/(v-1) -> u/v, bumped to
(u+1)/v with probability (u+1)/v) has the exact uniform marginal but is
not pointwise monotone: every unbumped slot with u >= 1 tightens from
u/(v-1) to u/v, for <= and >= literals alike, so a small fraction of
satisfiable formulas acquire unsatisfiable coupled images (DECISIONS.md).
So the kernel is measured as C5 tests it, by paired counts: unsat->sat
pairs ("up") against sat->unsat pairs ("down"), overall with the sign
test up - down > 3*sqrt(up + down), and per v with
down - up <= 3*sqrt(up + down).  The dyadic ladder (shared bit streams,
truncation at increasing depth) is monotone outright; its violations are
counted too.

    python scripts/coupling_check.py --pairs 500 --n 300
"""

import argparse
import sys

sys.path.insert(0, "src")

from rsat import (
    CONTINUOUS,
    Finite,
    GenConfig,
    couple_increase_v,
    sample_formula,
    solve_2rsat_scc,
    solve_complete,
    stream_seed,
    truncate_thresholds,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=500)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--c", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    m = round(args.c * args.n)

    sat_lows = 0
    per_v = {}  # v -> [unsat->sat, sat->unsat]
    for i in range(args.pairs):
        v = 2 + i % 5
        low = sample_formula(
            GenConfig(k=2, n=args.n, m=m, vspec=Finite(v), seed=stream_seed(args.seed, i))
        )
        pair = couple_increase_v(low, seed=stream_seed(args.seed + 1, i))
        low_sat = solve_2rsat_scc(pair.low).sat
        high_sat = solve_2rsat_scc(pair.high).sat
        sat_lows += low_sat
        counts = per_v.setdefault(v, [0, 0])
        if high_sat and not low_sat:
            counts[0] += 1
        elif low_sat and not high_sat:
            counts[1] += 1
    up = sum(u for u, _ in per_v.values())
    down = sum(d for _, d in per_v.values())
    print(f"bump kernel: {sat_lows - down}/{sat_lows} satisfiable pairs stayed satisfiable")
    print(f"  unsat->sat {up}, sat->unsat {down}; "
          f"up - down > 3*sqrt(up + down): {up - down > 3 * (up + down) ** 0.5}")
    for v in sorted(per_v):
        u, d = per_v[v]
        print(f"  from v={v}: unsat->sat {u}, sat->unsat {d}; "
              f"down - up <= 3*sqrt(up + down): {d - u <= 3 * (u + d) ** 0.5}")

    ladder_checked = ladder_bad = 0
    for i in range(100):
        f = sample_formula(
            GenConfig(k=2, n=12, m=24, vspec=CONTINUOUS, seed=stream_seed(args.seed + 2, i))
        )
        previous = False
        for lam in (0, 1, 2, 3, 5, 8, 53):
            sat = solve_complete(truncate_thresholds(f, lam)).sat
            ladder_checked += 1
            if previous and not sat:
                ladder_bad += 1
            previous = sat
    print(f"dyadic ladder: {ladder_bad}/{ladder_checked} monotonicity violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
