"""Independent reference implementations used only by tests.

These stay deliberately naive: full enumeration over V^n, direct
eval_formula calls, no candidate-domain tricks, so they share no code
path with the deciders they audit.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, compress
from operator import not_

from rsat import (
    BUDGET_EXHAUSTED,
    CONTINUOUS,
    Bicycle,
    Dyadic,
    Finite,
    Formula,
    Literal,
    Rel,
    ResourceLimit,
    eval_formula,
    signs_disjoint,
    verify_bicycle,
)
from rsat.formula import vspec_grid
from rsat.solver import Ranked, _candidates, _clause_masks


def vspec_values(vspec) -> list[Fraction]:
    """All values of a finite or dyadic V, ascending."""
    grid = vspec_grid(vspec)
    if not grid:
        raise ValueError("continuous truth-value set cannot be enumerated")
    return [Fraction(u, grid) for u in range(grid + 1)]


def occurring_variables(f) -> set[int]:
    """Indices of variables that occur in at least one slot."""
    return {lit.var for clause in f.clauses for lit in clause}


def occurrence_profile(f) -> list[int]:
    """Slot counts per variable: entry j-1 is the number of slots holding x_j.

    The counts always sum to k*m.
    """
    counts = [0] * f.n
    for clause in f.clauses:
        for lit in clause:
            counts[lit.var - 1] += 1
    return counts


def brute_force_solve(f) -> bool:
    """Satisfiability by exhaustive enumeration over the full value grid."""
    vals = vspec_values(f.vspec)
    variables = sorted(occurring_variables(f))
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


def fraction_vspec_contains(vspec, x) -> bool:
    """Membership in V by Fraction arithmetic: x in [0, 1] and x times the
    grid (v-1 or 2^lam) is an integer."""
    if x < 0 or x > 1:
        return False
    if isinstance(vspec, Finite):
        return (x * (vspec.v - 1)).denominator == 1
    if isinstance(vspec, Dyadic):
        return (x * (1 << vspec.lam)).denominator == 1
    return True


def fraction_literal_error(var, rel, bound):
    """The message of the check a Literal(var, rel, bound) fails, by Fraction
    comparisons in the library's order, or None when it passes them all."""
    if var < 1:
        return f"variable index must be >= 1, got {var}"
    if not (Fraction(0) <= bound <= Fraction(1)):
        return f"bound outside [0, 1]: {bound}"
    if (rel is Rel.LE and bound == 1) or (rel is Rel.GE and bound == 0):
        return "innocuous literal (x <= 1 or x >= 0) is forbidden"
    return None


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


class _OutOfSteps(Exception):
    pass


def exhaustive_bicycle(f, budget: int):
    """Every bicycle chain, depth first, on the formula's Literals.

    Returns the first chain that passes ``verify_bicycle``, None when the
    whole chain space holds none, or BUDGET_EXHAUSTED after ``budget``
    search steps.  Chains start from each clause read in both directions,
    lead variables ascending, then clause order, and extend through
    clauses whose lead is sign-disjoint from the last trail.  Clauses on
    one variable take part in no chain.
    """
    by_lead: dict[int, list[tuple[int, Literal, Literal]]] = {}
    for idx, (u, w) in enumerate(f.clauses):
        if u.var != w.var:
            by_lead.setdefault(u.var, []).append((idx, u, w))
            by_lead.setdefault(w.var, []).append((idx, w, u))
    steps = 0

    def bicycle(chain, link_vars):
        ell = len(chain) - 1
        i0 = next((i for i in range(2, ell + 1) if link_vars[i - 1] == chain[0][1].var), None)
        i1 = next((i for i in range(1, ell) if link_vars[i - 1] == chain[-1][2].var), None)
        if i0 is None or i1 is None:
            return None
        pairs = tuple((lead, trail) for _, lead, trail in chain)
        cert = Bicycle(pairs, i0, i1, tuple(idx for idx, _, _ in chain))
        return cert if verify_bicycle(f, cert) else None

    def dfs(chain, link_vars):
        nonlocal steps
        steps += 1
        if steps > budget:
            raise _OutOfSteps
        if len(chain) >= 3:
            cert = bicycle(chain, link_vars)
            if cert is not None:
                return cert
        trail = chain[-1][2]
        if trail.var in link_vars:
            return None
        link_vars.append(trail.var)
        for cand in by_lead.get(trail.var, ()):
            if signs_disjoint(trail, cand[1]):
                chain.append(cand)
                found = dfs(chain, link_vars)
                if found is not None:
                    return found
                chain.pop()
        link_vars.pop()
        return None

    try:
        for lead_var in sorted(by_lead):
            for start in by_lead[lead_var]:
                found = dfs([start], [])
                if found is not None:
                    return found
    except _OutOfSteps:
        return BUDGET_EXHAUSTED
    return None


def ring_formula(length: int, closed: bool = True):
    """SAT width-2 formula whose chain graph is one long cycle.

    Clause i is (x_i >= 2/3 or x_{i+1} <= 1/3) for i = 1..length, with
    x_{length+1} read as x_1 when ``closed``; open, it is a path on
    length + 1 variables and no closed walk.  All x <= 1/3 satisfies both.
    """
    low, high = Fraction(1, 3), Fraction(2, 3)
    n = length if closed else length + 1
    clauses = tuple(
        (Literal(i, Rel.GE, high), Literal(i % n + 1, Rel.LE, low)) for i in range(1, length + 1)
    )
    return Formula(2, n, clauses, CONTINUOUS)


def rank_candidates(c):
    """Compiled ``c`` over every candidate, the reference ranking: one sort
    of the packed (variable, numerator) keys orders every candidate, and
    variable j's take ranks ``start[j]`` to ``start[j + 1] - 1``; candidate
    g is the bound of slot ``rep[g]``, or 0 when that is -1 (a variable
    with no literal)."""
    shift = c.bits
    keys = [(j << shift) | b for j, b in zip(c.var, c.num)]
    slot = dict(zip(keys, range(len(keys))))  # a slot of each key
    present = set(c.var)
    uniq = sorted(slot.keys() | {j << shift for j in range(1, c.n + 1) if j not in present})
    index = dict(zip(uniq, range(len(uniq))))
    start = [0, *(bisect_left(uniq, j << shift) for j in range(1, c.n + 2))]
    return Ranked(c.k, c.n, c.var, c.ge, list(map(index.__getitem__, keys)), start,
                  [slot.get(key, -1) for key in uniq])


def two_stage_reduction(c):
    """The non-dominated candidates of compiled ``c`` in two stages, the
    reference for ``reduce_candidates``: rank every candidate, then keep
    candidates by the sets of ranks that hold ``>=`` and ``<=`` literals.

    Returns the reduced rank of every slot, ``start`` and each kept
    candidate's representative slot (-1 for the 0 of a variable with no
    literal).  A maximal run of ``<=`` literals in bound order (``>=``
    before ``<=`` on ties) makes one candidate, represented by the last
    ``>=`` bound before the run, else by the run's first bound; a
    variable that ends in ``>=`` literals adds one at the last bound, and
    a variable with no literal keeps its one candidate.
    """
    full = rank_candidates(c)
    ge, rank, start = full.ge, full.rank, full.start
    size = start[-1]
    has_ge = set(compress(rank, ge))
    has_le = set(compress(rank, map(not_, ge)))
    first = set(start[1:])  # every variable's first candidate, and the end
    # candidate g starts a kept one at a <= literal that opens a run, or
    # at the top of a variable that ends in >= literals or has none
    starts = [
        (g in has_ge or g in first or g - 1 not in has_le) if g in has_le else g + 1 in first
        for g in range(size)
    ]
    before = [0, *accumulate(starts)]  # kept candidates below candidate g
    rep = [g if g in has_ge or g in first else g - 1 for g in compress(range(size), starts)]
    reduced = [before[g] if e else before[g + 1] - 1 for e, g in zip(ge, rank)]
    return reduced, [before[g] for g in start], [full.rep[g] for g in rep]


def rescan_complete(c, budget: int):
    """The complete decider's search as it stood before it kept live
    counts, the reference for its tree: at every fixpoint it rescans each
    unsatisfied clause for the first with the fewest live literals, and
    propagation rechecks every clause of each narrowed variable.

    Returns the verdict, the witness (variable to bound, None for a form
    compiled from integer draws or an UNSAT verdict) and the node count;
    raises ResourceLimit when more than ``budget`` nodes are expanded.
    """
    cands = _candidates(c)
    masks, dom = _clause_masks(c, cands)
    occ: list[list[int]] = [[] for _ in dom]  # clause ids per variable
    for cid, clause in enumerate(masks):
        for j, _ in clause:
            occ[j].append(cid)
    trail: list[tuple[int, int]] = []  # (var, mask before a narrowing)
    frames = []  # per open node: [unsatisfied clauses, branch literals, next branch, trail mark]
    active = list(range(len(masks)))
    work = [[cid for cid, clause in enumerate(masks) if len(clause) == 1]]
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            raise ResourceLimit(f"search budget of {budget} nodes exhausted")
        if _rescan_propagate(dom, trail, masks, occ, work):
            active, branch = _rescan_unsatisfied(dom, masks, active)
            if branch is None:  # every clause holds: take the lowest candidates left
                low = {j: cands[j][(d & -d).bit_length() - 1] for j, d in enumerate(dom) if j}
                value = {} if c.bounds is None else dict(zip(zip(c.var, c.num), c.bounds))
                wit = None if c.bounds is None else {j: value.get((j, b), Fraction(0))
                                                     for j, b in low.items()}
                return True, wit, nodes
            live = [(j, mask) for j, mask in masks[branch] if dom[j] & mask]
            frames.append([active, live, 0, len(trail)])
        while frames:  # undo to the deepest node with a branch left, and take it
            frame = frames[-1]
            active, live, i, mark = frame
            while len(trail) > mark:
                j, d = trail.pop()
                dom[j] = d
            if i == len(live):
                frames.pop()
                continue
            frame[2] = i + 1
            for j, mask in live[:i]:
                trail.append((j, dom[j]))
                dom[j] &= ~mask
            j, mask = live[i]
            trail.append((j, dom[j]))
            dom[j] &= mask
            work = [occ[j] for j, _ in live[: i + 1]]
            break
        else:
            return False, None, nodes


def _rescan_propagate(dom, trail, masks, occ, work) -> bool:
    """Unit propagation to fixpoint from the clause-id lists on ``work``;
    False on a clause with no live literal."""
    while work:
        for cid in work.pop():
            unit = None
            for j, mask in masks[cid]:
                d = dom[j]
                dm = d & mask
                if dm:
                    if dm == d or unit is not None:
                        break  # satisfied, or two live literals
                    unit = j, dm
            else:
                if unit is None:
                    return False
                j, dm = unit
                trail.append((j, dom[j]))
                dom[j] = dm
                work.append(occ[j])
    return True


def _rescan_unsatisfied(dom, masks, active):
    """The clauses of ``active`` still unsatisfied at a fixpoint, in order,
    and the first with the fewest live literals (None when all hold)."""
    still = []
    branch, fewest = None, len(dom)  # above any live count: a clause has at most n variables
    for cid in active:
        count = 0
        for j, mask in masks[cid]:
            d = dom[j]
            dm = d & mask
            if dm == d:
                break
            if dm:
                count += 1
        else:
            still.append(cid)
            if count < fewest:
                branch, fewest = cid, count
    return still, branch
