"""Satisfiability deciders over one compiled form.

Deciding a formula depends only on the order of the bounds within each
variable (the order view of regular signed literals; Béjar, Hähnle and
Manyà 2001).  So a formula is compiled once into flat per-slot arrays:
the variable, a ``>=`` bit and the global rank of the bound.  Variable j's
*candidates*, its bounds deduplicated and ascending ([0] when it does not
occur), hold ranks ``start[j]`` to ``start[j + 1] - 1``.  Restricting each
variable to its candidates is sound and complete: any satisfying
interpretation can be slid onto an endpoint of the interval cut out by its
satisfied literals, and those endpoints are literal bounds.
:func:`compile_formula` builds the form from a Formula, and
:func:`compile_slots` from the sampler's integer draws, so a sweep builds
no Fraction.

* :func:`solve_complete` -- for every k, backtracking with unit
  propagation over per-variable candidate bitmasks.  The search is
  iterative: an explicit stack of open nodes, so its depth does not depend
  on the interpreter's recursion limit, and a trail of (variable, old
  mask) entries undone on backtrack.  Occurrence lists send propagation
  only to the clauses of variables narrowed since the last fixpoint.  It
  branches on the first unsatisfied clause with the fewest live literals
  and takes a leaf's lowest candidates, so it builds the same tree, node
  for node, as the copy-per-branch recursion it replaced.

* :func:`solve_2rsat_scc` -- for k = 2, the 2-SAT algorithm of Aspvall,
  Plass and Tarjan (1979), on the variables' *non-dominated* candidates.
  A candidate is dominated when another candidate of its variable makes
  every literal true that it makes true; moving a satisfying value onto
  the dominating candidate keeps every clause true, so dropping dominated
  candidates keeps satisfiability, and keeps which slots on one variable
  are sign-disjoint.  :func:`reduce_candidates` keeps one candidate per
  maximal run of ``<=`` literals in bound order, plus one when the order
  ends in ``>=`` literals, about a quarter of the candidates of a
  continuous n = 2000 trial.  A variable with kept candidates
  d_0 < ... < d_{N-1} owns N - 1 node pairs of the implication digraph,
  one per gap: node 2h is ``x <= d_r`` and node 2h+1 is ``x >= d_{r+1}``,
  so a node's complement is ``id ^ 1`` and no node lacks one.  A literal
  true on every kept candidate has no node; its clause is vacuous.  UNSAT
  iff some node shares a strongly connected component with its
  complement.  The decider and both certificate finders run the same
  stages: compile, :func:`reduce_candidates`, then
  :func:`literal_components` on the reduced form.

The two stay independent so they can cross-validate; the complete
decider searches every candidate.  Both check their witness on the ranks
of every candidate before they report SAT; witnesses are *tight*, every
value a candidate of its variable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from math import lcm
from operator import eq, not_
from typing import Optional

from .errors import InvalidConfig, ResourceLimit, WrongArity
from .formula import ZERO, Formula, Rel, _not_int

DEFAULT_NODE_BUDGET = 5_000_000


def check_budget(budget: int) -> None:
    """Reject a search budget that is not an int (a TypeError; a bool is
    not one) or is below 1, which no search could spend."""
    if type(budget) is not int:
        raise _not_int("budget", budget)
    if budget < 1:
        raise InvalidConfig(f"budget must be >= 1, got {budget}")


@dataclass(frozen=True)
class SolveResult:
    sat: bool
    witness: Optional[dict[int, Fraction]] = None

    def __repr__(self):
        return "SAT" if self.sat else "UNSAT"


# ---------------------------------------------------------------------------
# Compiled form


@dataclass(frozen=True)
class CompiledFormula:
    """Slot i, in clause i // k, is ``x_var[i] <= d`` (``>=`` when ``ge[i]``)
    for the candidate d of global rank ``rank[i]``.  ``values`` lists the
    candidates by rank; it is None when compiled from integer draws, and
    then a SAT result carries no witness."""

    k: int
    n: int
    var: list[int]
    ge: list[int]
    rank: list[int]
    start: list[int]  # n + 2 entries; start[0] is unused
    values: Optional[list[Fraction]]


def _compile(k, n, var, ge, num, shift, bounds=None) -> CompiledFormula:
    """Rank integer bounds: ``num[i]`` orders like slot i's bound within its
    variable and fits in ``shift`` bits, so one sort of the packed
    (variable, bound) keys orders every variable's candidates."""
    keys = [(j << shift) | b for j, b in zip(var, num)]
    present = set(var)
    uniq = sorted(set(keys).union(j << shift for j in range(1, n + 1) if j not in present))
    index = dict(zip(uniq, range(len(uniq))))
    start = [0, *(bisect_left(uniq, j << shift) for j in range(1, n + 2))]
    values = None
    if bounds is not None:
        bound_of = dict(zip(keys, bounds))
        values = [bound_of.get(key, ZERO) for key in uniq]
    return CompiledFormula(k, n, var, ge, list(map(index.__getitem__, keys)), start, values)


def compile_formula(f: Formula) -> CompiledFormula:
    """Compile ``f``; each variable's bounds are scaled to integers by the
    least common multiple of their denominators, which keeps them exact."""
    lits = [lit for clause in f.clauses for lit in clause]
    var = [lit.var for lit in lits]
    bounds = [lit.bound for lit in lits]
    dens = [b.denominator for b in bounds]
    scale: dict[int, int] = {}
    for j, d in zip(var, dens):
        scale[j] = lcm(scale.get(j, 1), d)
    num = [b.numerator * (scale[j] // d) for j, b, d in zip(var, bounds, dens)]
    ge = [int(lit.rel is Rel.GE) for lit in lits]
    return _compile(f.k, f.n, var, ge, num, max(num, default=0).bit_length(), bounds)


def compile_slots(k: int, n: int, denominator: int, var, ge, num) -> CompiledFormula:
    """Compile integer slots: slot i bounds x_var[i] by num[i]/denominator.

    Checks what Literal and Formula would: whole clauses, variables in
    1..n, and every encoded side (the bound for ``<=``, one minus it for
    ``>=``) in [0, 1), so bounds lie in [0, 1] and none is innocuous.
    """
    if len(var) % k or not len(var) == len(ge) == len(num):
        raise ValueError(f"{len(var)} slots do not make whole width-{k} clauses")
    if var and not (1 <= min(var) and max(var) <= n):
        raise ValueError(f"variable outside 1..{n}")
    sides = [denominator - b if e else b for e, b in zip(ge, num)]
    if sides and not (0 <= min(sides) and max(sides) < denominator):
        raise ValueError("bound outside [0, 1] or innocuous literal (x <= 1 or x >= 0)")
    return _compile(k, n, var, ge, num, denominator.bit_length())


def _check_witness(c: CompiledFormula, wit: list[int]) -> None:
    """Raise unless the rank witness (a global rank per variable) satisfies every clause."""
    truth = [wit[j] >= g if e else wit[j] <= g for j, e, g in zip(c.var, c.ge, c.rank)]
    if not all(any(truth[i : i + c.k]) for i in range(0, len(truth), c.k)):
        raise AssertionError("decider produced an invalid witness")


def _result(c: CompiledFormula, wit: Optional[list[int]]) -> SolveResult:
    if wit is None:
        return SolveResult(False)
    _check_witness(c, wit)
    if c.values is None:
        return SolveResult(True)
    return SolveResult(True, {j: c.values[wit[j]] for j in range(1, c.n + 1)})


def candidate_domains(f: Formula) -> dict[int, list[Fraction]]:
    """Per-variable sorted candidate values: the bounds of the variable's own
    literals, deduplicated; [0] for variables without occurrences."""
    c = compile_formula(f)
    return {j: c.values[c.start[j] : c.start[j + 1]] for j in range(1, f.n + 1)}


# ---------------------------------------------------------------------------
# Complete backtracking decider


def _clause_masks(c: CompiledFormula):
    """Clauses as (var, candidate-bitmask) pairs; masks select satisfying
    ranks.  Clauses one variable satisfies on every candidate are dropped.
    ``full[j]`` is variable j's all-candidates mask (``full[0]`` is 0)."""
    start, k = c.start, c.k
    full = [0] + [(1 << (start[j + 1] - start[j])) - 1 for j in range(1, c.n + 1)]
    masks = []
    for i in range(0, len(c.var), k):
        per_var: dict[int, int] = {}
        for j, e, g in zip(c.var[i : i + k], c.ge[i : i + k], c.rank[i : i + k]):
            r = g - start[j]
            mask = full[j] ^ ((1 << r) - 1) if e else (1 << (r + 1)) - 1
            per_var[j] = per_var.get(j, 0) | mask
        if all(mask != full[j] for j, mask in per_var.items()):
            masks.append(tuple(per_var.items()))
    return masks, full


def solve_complete(
    f: Formula | CompiledFormula, budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Exact satisfiability over V by search on the candidate domains.

    Raises ResourceLimit when more than ``budget`` branch nodes are
    expanded, and checks ``budget`` as :func:`check_budget` does; never
    returns a wrong answer.
    """
    check_budget(budget)
    c = f if isinstance(f, CompiledFormula) else compile_formula(f)
    masks, dom = _clause_masks(c)
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
        if _propagate(dom, trail, masks, occ, work):
            active, branch = _unsatisfied(dom, masks, active)
            if branch is None:  # every clause holds: take the lowest candidates left
                return _result(c, [0] + [c.start[j] + (d & -d).bit_length() - 1
                                         for j, d in enumerate(dom) if j])
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
            # branch i makes the first i live literals false and the i-th
            # true, a complete partition that reaches conflicts far sooner
            # than blind domain splitting; no domain empties, because no
            # literal of an unsatisfied clause holds on its whole domain
            for j, mask in live[:i]:
                trail.append((j, dom[j]))
                dom[j] &= ~mask
            j, mask = live[i]
            trail.append((j, dom[j]))
            dom[j] &= mask
            work = [occ[j] for j, _ in live[: i + 1]]
            break
        else:
            return _result(c, None)


def _propagate(dom, trail, masks, occ, work) -> bool:
    """Unit propagation to fixpoint from the clause-id lists on ``work``.

    A clause left with one live literal narrows that literal's variable,
    on the trail, and queues the variable's clauses; returns False on a
    clause with no live literal.  The fixpoint, and whether it falsifies
    a clause, do not depend on the order clauses are visited in.
    """
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


def _unsatisfied(dom, masks, active):
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


# ---------------------------------------------------------------------------
# SCC decider for k = 2


@dataclass
class ImplicationDigraph:
    """The order-encoding digraph of a width-2 formula over every candidate,
    labelled for reading; the SCC decider runs on the smaller digraph over
    the non-dominated candidates.

    ``nodes[id]`` is node id's (var, rel, rank) triple, rank local to the
    variable's candidates: per gap, ``(var, LE, r)`` then
    ``(var, GE, r + 1)``.  Node id's complement is node ``id ^ 1``; no node
    lacks one.  Edges are the clause contrapositives plus the entailment chains
    within each variable and relation.
    """

    nodes: list[tuple[int, Rel, int]]
    succ: list[list[int]]


def _order_graph(c: CompiledFormula) -> tuple[list[int], list[list[int]]]:
    """The order-encoding digraph of width-2 ``c``: the node of every slot
    (-1 for a literal that holds on every candidate, whose clause is then
    vacuous) and every node's successors, the clause contrapositives plus
    each variable's entailment chains.  A width other than 2 is a
    WrongArity."""
    if c.k != 2:
        raise WrongArity(f"the implication digraph requires k = 2, got k = {c.k}")
    start = c.start
    nodes = [
        (2 * (g - j) + 1 if g != start[j] else -1)
        if e
        else (2 * (g - j) + 2 if g != start[j + 1] - 1 else -1)
        for j, e, g in zip(c.var, c.ge, c.rank)
    ]
    succ: list[list[int]] = [[] for _ in range(2 * (start[-1] - c.n))]
    for j in range(1, c.n + 1):
        # variable j's nodes are [2(start[j] - j + 1), 2(start[j + 1] - j));
        # stronger literals imply weaker ones
        for a in range(2 * (start[j] - j + 1), 2 * (start[j + 1] - j) - 2, 2):
            succ[a].append(a + 2)  # x <= d_r  implies  x <= d_{r+1}
            succ[a + 3].append(a + 1)  # x >= d_{r+2}  implies  x >= d_{r+1}
    for i in range(0, len(nodes), 2):
        u, w = nodes[i], nodes[i + 1]
        if u >= 0 and w >= 0:  # else one side holds on every candidate: vacuous
            succ[u ^ 1].append(w)
            succ[w ^ 1].append(u)
    return nodes, succ


def reduce_candidates(c: CompiledFormula) -> tuple[CompiledFormula, list[int]]:
    """``c`` over each variable's non-dominated candidates, and the global
    rank in ``c`` of every kept candidate's representative value.

    Sort a variable's literals by bound, ``>=`` before ``<=`` on ties.
    Each maximal run of ``<=`` literals makes one candidate, represented
    by the last ``>=`` bound before the run, else by the run's first
    bound; a list that ends in ``>=`` literals adds one at the last bound,
    and a variable with no literal keeps its one candidate.  A ``<=``
    literal takes its run's candidate and a ``>=`` literal the candidate
    that ends its run, so at every representative each literal is as true
    as in ``c``.
    """
    ge, rank, start = c.ge, c.rank, c.start
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
    return CompiledFormula(c.k, c.n, c.var, ge, reduced, [before[g] for g in start], None), rep


def literal_components(c: CompiledFormula) -> tuple[list[int], list[int], bool]:
    """Node of every slot (-1 where none), the component of every node, and
    whether some node shares a component with its complement, which refutes
    ``c``, in the order digraph of ``c`` over its own candidates; the
    width-2 readers pass it :func:`reduce_candidates`' form.  Components
    are numbered sinks-first.  A width other than 2 is a WrongArity.
    """
    nodes, succ = _order_graph(c)
    comp = _tarjan(succ)
    return nodes, comp, any(map(eq, comp[0::2], comp[1::2]))


def build_implication_digraph(f: Formula, domains=None) -> ImplicationDigraph:
    """The labelled order-encoding digraph of ``f`` over every candidate.
    ``domains``, if given, must be ``candidate_domains(f)``; the view
    derives them itself."""
    c = compile_formula(f)
    _, succ = _order_graph(c)
    nodes = [
        key
        for j in range(1, f.n + 1)
        for r in range(c.start[j + 1] - c.start[j] - 1)
        for key in ((j, Rel.LE, r), (j, Rel.GE, r + 1))
    ]
    return ImplicationDigraph(nodes, succ)


def _tarjan(succ: list[list[int]]) -> list[int]:
    """Component index per node; components numbered sinks-first."""
    index = [0] * len(succ)  # 0: not visited yet
    low = [0] * len(succ)
    comp = [-1] * len(succ)  # a visited node is on the stack until it gets one
    stack: list[int] = []
    counter = ncomp = 0
    for root in range(len(succ)):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return comp


def solve_2rsat_scc(f: Formula | CompiledFormula) -> SolveResult:
    """Decide a width-2 formula via the implication digraph.

    UNSAT iff some node and its complement land in one strongly connected
    component of the digraph over the non-dominated candidates.  Otherwise
    a literal counts as true when its component is closer to the sinks
    than its complement's, and each variable takes its smallest
    non-dominated candidate d_r with ``x <= d_r`` true (its largest when
    none is), checked against every clause on the full ranks.
    """
    c = f if isinstance(f, CompiledFormula) else compile_formula(f)
    d, rep = reduce_candidates(c)
    _, comp, refuted = literal_components(d)
    if refuted:
        return _result(c, None)
    start = d.start
    wit = [0] * (c.n + 1)
    for j in range(1, c.n + 1):
        g, a, last = start[j], 2 * (start[j] - j + 1), start[j + 1] - 1
        while g < last and comp[a] > comp[a + 1]:
            g += 1
            a += 2
        wit[j] = rep[g]
    return _result(c, wit)

