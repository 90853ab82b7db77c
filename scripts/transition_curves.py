#!/usr/bin/env python3
"""Satisfiability-probability curves over a (vspec, c) grid, as CSV.

Desk-scale reproduction of the threshold picture for width-2 formulas:
one curve per truth-value set, p_hat against the clause-to-variable
ratio.  Feed the CSV to any plotter.

    python scripts/transition_curves.py --n 500 --trials 100 --out curves.csv
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rsat import (
    CONTINUOUS,
    Dyadic,
    Finite,
    NoCrossing,
    SweepConfig,
    estimate_crossing,
    render_sweep_csv,
    run_sweep,
    vspec_to_token,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    vspecs = (Finite(2), Finite(3), Finite(5), Dyadic(3), CONTINUOUS)
    c_grid = tuple(Fraction(num, 10) for num in range(5, 26, 2))
    cfg = SweepConfig(
        k=2,
        vspecs=vspecs,
        n_values=(args.n,),
        c_grid=c_grid,
        trials=args.trials,
        seed=args.seed,
        decider="scc",
    )
    results = run_sweep(cfg)
    csv_text = render_sweep_csv(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    for vspec in vspecs:
        slice_results = [r for r in results if r.vspec == vspec]
        token = vspec_to_token(vspec)
        try:
            crossing = estimate_crossing(slice_results, 0.5)
            print(f"# crossing {token}: c ~ {crossing:.3f}", file=sys.stderr)
        except NoCrossing as exc:
            print(f"# crossing {token}: {exc}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
