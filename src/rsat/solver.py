"""Satisfiability deciders over one compiled form.

Deciding a formula depends only on the order of the bounds within each
variable (the order view of regular signed literals; Béjar, Hähnle and
Manyà 2001).  So a formula is compiled once into checked per-slot arrays:
the variable, a ``>=`` bit and an integer that orders like the bound
within its variable; :func:`compile_formula` builds them from a Formula,
and :func:`compile_slots` from the sampler's draws, so a sweep builds no
Fraction.  Compiling ranks nothing.  Variable j's *candidates*, its
bounds deduplicated and ascending ([0] when it does not occur), get ranks
``start[j]`` to ``start[j + 1] - 1`` from the stage that reads them.
Restricting each variable to its candidates is sound and complete: any
satisfying interpretation can be slid onto an endpoint of the interval
cut out by its satisfied literals, and those endpoints are literal bounds.

* :func:`solve_complete` -- for every k, backtracking with unit
  propagation over bitmasks of every candidate, as
  :func:`rank_candidates` ranks them.  The search is iterative: an
  explicit stack of open nodes, so its depth does not depend on the
  interpreter's recursion limit, and a trail of (variable, old mask)
  entries undone on backtrack.  Occurrence lists send propagation only to
  the clauses of variables narrowed since the last fixpoint.  It branches
  on the first unsatisfied clause with the fewest live literals and takes
  a leaf's lowest candidates, so it builds the same tree, node for node,
  as the copy-per-branch recursion it replaced.

* :func:`solve_2rsat_scc` -- for k = 2, the 2-SAT algorithm of Aspvall,
  Plass and Tarjan (1979), on the variables' *non-dominated* candidates.
  A candidate is dominated when another candidate of its variable makes
  every literal true that it makes true; moving a satisfying value onto
  the dominating candidate keeps every clause true, so dropping dominated
  candidates keeps satisfiability, and keeps which slots on one variable
  are sign-disjoint.  :func:`reduce_candidates` ranks only those, in one
  sort and one pass of the slots: one per maximal run of ``<=`` literals
  in bound order, plus one when the order ends in ``>=`` literals, about
  a quarter of the candidates of a continuous n = 2000 trial.  A variable
  with kept candidates d_0 < ... < d_{N-1} owns N - 1 node pairs of the
  implication digraph, one per gap: node 2h is ``x <= d_r`` and node
  2h+1 is ``x >= d_{r+1}``, so a node's complement is ``id ^ 1`` and no
  node lacks one.  A literal true on every kept candidate has no node;
  its clause is vacuous.  UNSAT iff some node shares a strongly connected
  component with its complement.  The decider and both certificate
  finders run the same stages: compile, :func:`reduce_candidates`, then
  :func:`literal_components` on the reduced form.

The two stay independent so they can cross-validate; the complete
decider searches every candidate.  Both check their witness against the
numerators of every slot before they report SAT; witnesses are *tight*,
every value a candidate of its variable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import eq
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
    """Slot i, in clause i // k, is ``x_var[i] <= b`` (``>=`` when ``ge[i]``);
    ``num[i]`` < ``2**bits`` is b times a scale fixed per variable.
    ``bounds`` lists each b; it is None when compiled from integer draws,
    and then a SAT result carries no witness."""

    k: int
    n: int
    var: list[int]
    ge: list[int]
    num: list[int]
    bits: int
    bounds: Optional[list[Fraction]]


@dataclass(frozen=True)
class Ranked:
    """Slot i is ``x_var[i] <= d`` (``>=`` when ``ge[i]``) for the candidate
    d of global rank ``rank[i]``; candidate g is the bound of slot
    ``rep[g]``, or 0 when that is -1 (a variable with no literal)."""

    k: int
    n: int
    var: list[int]
    ge: list[int]
    rank: list[int]
    start: list[int]  # n + 2 entries; start[0] is unused
    rep: list[int]


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
    return CompiledFormula(f.k, f.n, var, ge, num, max(num, default=0).bit_length(), bounds)


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
    return CompiledFormula(k, n, var, ge, num, denominator.bit_length(), None)


def rank_candidates(c: CompiledFormula) -> Ranked:
    """``c`` over every candidate, for the readers of every candidate: one
    sort of the packed (variable, numerator) keys orders them all."""
    shift = c.bits
    keys = [(j << shift) | b for j, b in zip(c.var, c.num)]
    slot = dict(zip(keys, range(len(keys))))  # a slot of each key
    present = set(c.var)
    uniq = sorted(slot.keys() | {j << shift for j in range(1, c.n + 1) if j not in present})
    index = dict(zip(uniq, range(len(uniq))))
    start = [0, *(bisect_left(uniq, j << shift) for j in range(1, c.n + 2))]
    return Ranked(c.k, c.n, c.var, c.ge, list(map(index.__getitem__, keys)), start,
                  [slot.get(key, -1) for key in uniq])


def _check_witness(c: CompiledFormula, wit: list[int]) -> None:
    """Raise unless ``wit``, per variable a value on its ``num`` scale, satisfies ``c``."""
    truth = [wit[j] >= b if e else wit[j] <= b for j, e, b in zip(c.var, c.ge, c.num)]
    if not all(map(any, zip(*[iter(truth)] * c.k))):  # each clause's k slots
        raise AssertionError("decider produced an invalid witness")


def _result(c: CompiledFormula, wit: Optional[list[int]]) -> SolveResult:
    """Check and report ``wit``, per variable the slot of its bound (-1: 0)."""
    if wit is None:
        return SolveResult(False)
    _check_witness(c, [c.num[s] if s >= 0 else 0 for s in wit])
    if c.bounds is None:
        return SolveResult(True)
    return SolveResult(True, {j: c.bounds[s] if s >= 0 else ZERO
                              for j, s in enumerate(wit) if j})


def candidate_domains(f: Formula) -> dict[int, list[Fraction]]:
    """Per-variable sorted candidate values: the bounds of the variable's own
    literals, deduplicated; [0] for variables without occurrences."""
    c = compile_formula(f)
    r = rank_candidates(c)
    values = [c.bounds[s] if s >= 0 else ZERO for s in r.rep]
    return {j: values[r.start[j] : r.start[j + 1]] for j in range(1, f.n + 1)}


# ---------------------------------------------------------------------------
# Complete backtracking decider


def _clause_masks(c: Ranked):
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
    r = rank_candidates(c)
    masks, dom = _clause_masks(r)
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
                return _result(c, [-1] + [r.rep[r.start[j] + (d & -d).bit_length() - 1]
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


def _order_graph(c: Ranked) -> tuple[list[int], list[list[int]]]:
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


def reduce_candidates(c: CompiledFormula) -> Ranked:
    """``c`` over each variable's non-dominated candidates, from one sort of
    the slots (by variable, then bound, ``>=`` before ``<=`` on ties) and
    one walk; the other candidates get no rank.  A ``<=`` literal that
    opens a run makes one candidate, shared by the run and represented by
    the variable's last ``>=`` slot so far, else its own; a ``>=`` literal
    takes the next candidate.  A variable that ends in ``>=`` literals, or
    has none, adds one at its last bound (0 for none).  So at every
    representative each literal is as true as at every candidate it
    stands for.
    """
    var, ge, n = c.var, c.ge, c.n
    keys = [((j << c.bits | b) << 1) | (e ^ 1) for j, e, b in zip(var, ge, c.num)]
    order = [*sorted(range(len(var)), key=keys.__getitem__), len(var)]
    ends = [*var, n + 1]  # the last slot of order, on variable n + 1, closes the walk
    rank, start, rep = [0] * len(var), [0] * (n + 2), []
    j, last, run = 0, -1, True  # the walk's variable, its last >= slot, an open <= run
    for i in order:
        v = ends[i]
        if v != j:
            for h in range(j + 1, v + 1):  # close h - 1
                if not run:  # it ends in >= literals, or has none
                    rep.append(last)
                start[h] = len(rep)
                last, run = -1, False
            if v > n:
                break
            j = v
        if ge[i]:
            rank[i], last, run = len(rep), i, False
        elif run:
            rank[i] = len(rep) - 1
        else:  # a <= literal opens a run
            rank[i], run = len(rep), True
            rep.append(i if last < 0 else last)
    return Ranked(c.k, n, var, ge, rank, start, rep)


def literal_components(c: Ranked) -> tuple[list[int], list[int], bool]:
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
    c = rank_candidates(compile_formula(f))
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
    none is), checked against every clause on the slots' numerators.
    """
    c = f if isinstance(f, CompiledFormula) else compile_formula(f)
    d = reduce_candidates(c)
    _, comp, refuted = literal_components(d)
    if refuted:
        return _result(c, None)
    start = d.start
    wit = [-1] * (c.n + 1)
    for j in range(1, c.n + 1):
        g, a, last = start[j], 2 * (start[j] - j + 1), start[j + 1] - 1
        while g < last and comp[a] > comp[a + 1]:
            g += 1
            a += 2
        wit[j] = d.rep[g]
    return _result(c, wit)

