"""Independent reference implementations used only by tests.

These stay deliberately naive: full enumeration over V^n, direct
eval_formula calls, no candidate-domain tricks, so they share no code
path with the deciders they audit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from rsat import CONTINUOUS, Formula, Literal, Rel, eval_formula, vspec_values


def brute_force_solve(f) -> bool:
    """Satisfiability by exhaustive enumeration over the full value grid."""
    vals = vspec_values(f.vspec)
    variables = sorted(f.variables())
    if not variables:
        return True
    for combo in itertools.product(vals, repeat=len(variables)):
        interp = dict(zip(variables, combo))
        for var in range(1, f.n + 1):
            interp.setdefault(var, Fraction(0))
        if eval_formula(f, interp):
            return True
    return False


def brute_force_count_tight(f) -> int:
    """Slot-product tight count by direct enumeration of slot choices."""
    slots: dict[int, list[Fraction]] = {var: [] for var in range(1, f.n + 1)}
    for clause in f.clauses:
        for lit in clause:
            slots[lit.var].append(lit.bound)
    variables = sorted(slots)
    if any(not slots[var] for var in variables):
        return 0
    count = 0
    for combo in itertools.product(*[slots[var] for var in variables]):
        interp = dict(zip(variables, combo))
        if eval_formula(f, interp):
            count += 1
    return count


def three_sigma(p: float, trials: int) -> float:
    """3-sigma half width of a binomial proportion estimate."""
    return 3.0 * (p * (1.0 - p) / trials) ** 0.5


def least_squares_line(xs, ys):
    """Intercept and slope of the ordinary least-squares line through (xs, ys).

    Plain normal equations on centred data, so exact ``Fraction`` inputs
    give an exact answer.
    """
    count = len(xs)
    if count < 2 or count != len(ys):
        raise ValueError("need at least two points and as many ys as xs")
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all xs coincide; the slope is undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return mean_y - slope * mean_x, slope


def deep_pairs_formula(pairs: int):
    """SAT width-2 formula whose complete search runs ``pairs`` levels deep.

    Pair i on x_a, x_b (a = 2i+1, b = 2i+2) holds (x_a <= 1/3 or x_b <= 1/3)
    and (x_a >= 2/3 or x_b >= 2/3); no literal is a unit, so each pair costs
    one branch, and the pairs share no variable.
    """
    low, high = Fraction(1, 3), Fraction(2, 3)
    clauses = []
    for i in range(pairs):
        a, b = 2 * i + 1, 2 * i + 2
        clauses.append((Literal(a, Rel.LE, low), Literal(b, Rel.LE, low)))
        clauses.append((Literal(a, Rel.GE, high), Literal(b, Rel.GE, high)))
    return Formula(2, 2 * pairs, tuple(clauses), CONTINUOUS)
