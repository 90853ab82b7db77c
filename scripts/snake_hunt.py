#!/usr/bin/env python3
"""Snake-finding experiment above the width-2 threshold.

Samples repeats-allowed instances at ratio c > 2, runs the best-effort
snake search on each, and reports the fraction of trials yielding a
verified certificate.  Every found snake is cross-checked: its formula
must be unsatisfiable per the SCC decider.

    python scripts/snake_hunt.py --n 200 --c 3 --trials 100
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rsat import (
    CONTINUOUS,
    GenConfig,
    clause_count,
    find_snake,
    sample_formula,
    snake_length,
    solve_2rsat_scc,
    stream_seed,
    verify_snake,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--c", default="3")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--budget", type=int, default=500_000)
    parser.add_argument("--seed", type=int, default=77)
    args = parser.parse_args()

    c = Fraction(args.c)
    if c <= 2:
        parser.error("snakes need c > 2")
    m = clause_count(c, args.n)
    print(f"# n={args.n} m={m} c={c} trials={args.trials} "
          f"reference snake length {snake_length(args.n, float(c))}", file=sys.stderr)

    found = unsat = 0
    for trial in range(args.trials):
        f = sample_formula(
            GenConfig(k=2, n=args.n, m=m, vspec=CONTINUOUS, seed=stream_seed(args.seed, trial))
        )
        decided_unsat = not solve_2rsat_scc(f).sat
        unsat += decided_unsat
        cert = find_snake(f, budget=args.budget)
        if cert is None:
            continue
        assert verify_snake(f, cert)
        assert decided_unsat, "verified snake on a satisfiable formula"
        found += 1
        print(f"trial {trial}: snake of length {cert.ell}")
    print(f"# snakes found in {found}/{args.trials} trials "
          f"({unsat} unsat per decider)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
