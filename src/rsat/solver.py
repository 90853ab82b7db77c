"""Satisfiability deciders over one compiled form.

Deciding a formula depends only on the order of the bounds within each
variable (the order view of regular signed literals; Béjar, Hähnle and
Manyà 2001).  So a formula is compiled once into checked per-slot arrays:
the variable, a ``>=`` bit and an integer that orders like the bound
within its variable; :func:`compile_formula` builds them from a Formula,
and :func:`compile_slots` from the sampler's draws, so a sweep builds no
Fraction.  Compiling ranks nothing.  Variable j's *candidates* are its
bounds deduplicated and ascending ([0] when it does not occur); each
decider orders only the candidates it reads.
Restricting each variable to its candidates is sound and complete: any
satisfying interpretation can be slid onto an endpoint of the interval
cut out by its satisfied literals, and those endpoints are literal bounds.

* :func:`solve_complete` -- for every k, backtracking with unit
  propagation over bitmasks of every candidate, bit r for its variable's
  r-th lowest numerator (:func:`_candidates`).  The search is iterative: an
  explicit stack of open nodes, so its depth does not depend on the
  interpreter's recursion limit, and a trail of (variable, old mask)
  entries undone on backtrack.  Each clause keeps a live count (its live
  literals, or *held* once one holds on its variable's whole domain),
  whose changes go on the same trail; propagation recounts only clauses
  whose literal on a narrowed variable turned false or whole.  It branches on the first clause with the fewest live literals
  and takes a leaf's lowest candidates, so it builds the same tree, node
  for node, as the recursion and the per-node rescan it replaced.

* :func:`solve_2rsat_scc` -- for k = 2, the 2-SAT algorithm of Aspvall,
  Plass and Tarjan (1979), on the variables' *non-dominated* candidates.
  A candidate is dominated when another candidate of its variable makes
  every literal true that it makes true; moving a satisfying value onto
  the dominating candidate keeps every clause true, so dropping dominated
  candidates keeps satisfiability, and keeps which slots on one variable
  are sign-disjoint.  :func:`reduce_candidates`, the one stage that
  builds a :class:`Ranked` form, ranks only those, in one sort and one
  pass of the slots: one per maximal run of ``<=`` literals in bound
  order, plus one when the order ends in ``>=`` literals, about a
  quarter of the candidates of a continuous n = 2000 trial.  A variable
  with kept candidates d_0 < ... < d_{N-1} owns N - 1 node pairs of the
  implication digraph, one per gap: node 2h is ``x <= d_r`` and node
  2h+1 is ``x >= d_{r+1}``, so a node's complement is ``id ^ 1`` and no
  node lacks one.  A literal true on every kept candidate has no node;
  its clause is vacuous.  UNSAT iff some node shares a strongly connected
  component with its complement.  The decider and both certificate
  finders run the same stages: compile, :func:`reduce_candidates`, then
  :func:`literal_components` on the reduced form;
  :func:`build_implication_digraph` labels that digraph.

The two stay independent so they can cross-validate; the complete
decider searches every candidate.  Both check their witness against the
numerators of every slot before they report SAT; witnesses are *tight*,
every value a candidate of its variable.
"""

from __future__ import annotations

import sys
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
    and then a SAT result carries no witness.  The deciders and finders
    build lists of up to n + 2 entries, so an n above ``sys.maxsize - 2``,
    where no list reaches, is an InvalidConfig."""

    k: int
    n: int
    var: list[int]
    ge: list[int]
    num: list[int]
    bits: int
    bounds: Optional[list[Fraction]]

    def __post_init__(self):
        if self.n > sys.maxsize - 2:
            raise InvalidConfig(f"n must be <= {sys.maxsize - 2} to decide, got {self.n}")


@dataclass(frozen=True)
class Ranked:
    """Slot i is ``x_var[i] <= d`` (``>=`` when ``ge[i]``) for the kept
    candidate d of rank ``rank[i]``, as :func:`reduce_candidates` keeps
    and ranks them; kept candidate g is the bound of slot ``rep[g]``, or
    0 when that is -1 (a variable with no literal)."""

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
    literals, deduplicated; [0] for variables without occurrences.  These
    are the domains :func:`solve_complete` searches."""
    c = compile_formula(f)
    value = {(j, b): x for j, b, x in zip(c.var, c.num, c.bounds)}
    return {j: [value.get((j, b), ZERO) for b in nums]
            for j, nums in enumerate(_candidates(c)) if j}


# ---------------------------------------------------------------------------
# Complete backtracking decider


def _candidates(c: CompiledFormula) -> list[list[int]]:
    """Per variable, its distinct numerators ascending, or [0] when it has
    no literal; entry 0 is empty."""
    nums: list[set[int]] = [set() for _ in range(c.n + 1)]
    for j, b in zip(c.var, c.num):
        nums[j].add(b)
    return [[], *(sorted(s) if s else [0] for s in nums[1:])]


def _clause_masks(c: CompiledFormula, cands: list[list[int]]):
    """Clauses as (var, candidate-bitmask) pairs; bit r of variable j's mask
    is its candidate ``cands[j][r]``, and masks select satisfying ones.
    Clauses one variable satisfies on every candidate are dropped.
    ``full[j]`` is variable j's all-candidates mask (``full[0]`` is 0)."""
    k = c.k
    full = [(1 << len(nums)) - 1 for nums in cands]
    rank = [dict(zip(nums, range(len(nums)))) for nums in cands]
    masks = []
    for i in range(0, len(c.var), k):
        per_var: dict[int, int] = {}
        for j, e, b in zip(c.var[i : i + k], c.ge[i : i + k], c.num[i : i + k]):
            r = rank[j][b]
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
    cands = _candidates(c)
    masks, dom = _clause_masks(c, cands)
    occ = [[] for _ in dom]  # per variable: (clause id, mask)
    for cid, clause in enumerate(masks):
        for j, mask in clause:
            occ[j].append((cid, mask))
    held = c.k + 1  # above any live count: a clause has at most k literals
    live = [len(clause) for clause in masks]  # per clause: live literals, or held
    work = []  # variables narrowed since the last fixpoint
    for clause in masks:  # a clause on one variable narrows it at the root
        if len(clause) == 1:
            (j, mask), = clause
            dom[j] &= mask  # may empty it; propagation then finds the clause false
            work.append(j)
    trail: list[tuple[int, int]] = []  # (var, old mask) or (~clause id, old live entry)
    frames = []  # per open node: [branch literals, next branch, trail mark]
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            raise ResourceLimit(f"search budget of {budget} nodes exhausted")
        if _propagate(dom, live, held, trail, masks, occ, work):
            branch = _branch(live, held)
            if branch is None:  # every clause holds: take the lowest candidates left
                slot = {(j, b): i for i, (j, b) in enumerate(zip(c.var, c.num))}
                return _result(c, [-1] + [slot.get((j, cands[j][(d & -d).bit_length() - 1]), -1)
                                          for j, d in enumerate(dom) if j])
            lits = [(j, mask) for j, mask in masks[branch] if dom[j] & mask]
            frames.append([lits, 0, len(trail)])
        while frames:  # undo to the deepest node with a branch left, and take it
            frame = frames[-1]
            lits, i, mark = frame
            while len(trail) > mark:
                j, d = trail.pop()
                if j < 0:
                    live[~j] = d
                else:
                    dom[j] = d
            if i == len(lits):
                frames.pop()
                continue
            frame[1] = i + 1
            # branch i makes the first i live literals false and the i-th
            # true, a complete partition that reaches conflicts far sooner
            # than blind domain splitting; no domain empties, because no
            # literal of an unsatisfied clause holds on its whole domain
            for j, mask in lits[:i]:
                trail.append((j, dom[j]))
                dom[j] &= ~mask
            j, mask = lits[i]
            trail.append((j, dom[j]))
            dom[j] &= mask
            work = [j for j, _ in lits[: i + 1]]
            break
        else:
            return _result(c, None)


def _propagate(dom, live, held, trail, masks, occ, work) -> bool:
    """Unit propagation to fixpoint from the narrowed variables on ``work``.

    Recounts into ``live`` (on the trail) only a clause whose literal on
    a narrowed variable turned false or whole, never a held one, since
    domains only shrink; a unit narrows its variable, on the trail, and
    queues it.  False on a clause with no live literal.  The fixpoint
    does not depend on the order clauses are visited in.
    """
    while work:
        j = work.pop()
        d = dom[j]  # recounts from j's entries never narrow j itself
        for cid, mask in occ[j]:
            dm = d & mask
            if dm and dm != d or live[cid] == held:
                continue
            count = 0
            for v, m in masks[cid]:
                dv = dom[v]
                dm = dv & m
                if dm:
                    if dm == dv:
                        count = held
                        break
                    count += 1
                    unit = v, dm
            if not count:
                return False
            if count == 1:
                v, dm = unit
                trail.append((v, dom[v]))
                dom[v] = dm
                work.append(v)
                count = held
            if count != live[cid]:
                trail.append((~cid, live[cid]))
                live[cid] = count
    return True


def _branch(live, held):
    """The first clause with the fewest live literals, or None when every
    clause holds."""
    fewest = min(live, default=held)
    return None if fewest == held else live.index(fewest)


# ---------------------------------------------------------------------------
# SCC decider for k = 2


@dataclass
class ImplicationDigraph:
    """The order-encoding digraph that :func:`solve_2rsat_scc` runs on a
    width-2 formula, over its non-dominated candidates, labelled for reading.

    ``nodes[id]`` is node id's (var, rel, rank) triple, rank local to the
    variable's kept candidates: per gap, ``(var, LE, r)`` then
    ``(var, GE, r + 1)``.  Node id's complement is node ``id ^ 1``; no node
    lacks one.  Edges are the clause contrapositives plus the entailment chains
    within each variable and relation.
    """

    nodes: list[tuple[int, Rel, int]]
    succ: list[list[int]]


def _order_graph(c: Ranked) -> tuple[list[int], list[list[int]]]:
    """The order-encoding digraph of width-2 ``c`` over its kept candidates:
    the node of every slot (-1 for a literal that holds on every kept
    candidate, whose clause is then vacuous) and every node's successors,
    the clause contrapositives plus each variable's entailment chains.  A
    width other than 2 is a WrongArity."""
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
    """The labelled order-encoding digraph of ``f`` that
    :func:`solve_2rsat_scc` runs, over the non-dominated candidates.
    ``domains`` is accepted and not read."""
    d = reduce_candidates(compile_formula(f))
    _, succ = _order_graph(d)
    nodes = [key for j in range(1, f.n + 1) for r in range(d.start[j + 1] - d.start[j] - 1)
             for key in ((j, Rel.LE, r), (j, Rel.GE, r + 1))]
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

