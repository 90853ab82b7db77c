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

* :func:`solve_complete` -- backtracking with unit propagation over
  candidate bitmasks, for every k; intended for oracle scale.

* :func:`solve_2rsat_scc` -- for k = 2, the 2-SAT algorithm of Aspvall,
  Plass and Tarjan (1979).  A variable with candidates d_0 < ... < d_{N-1}
  owns N - 1 node pairs of the implication digraph, one per gap: node 2h
  is ``x <= d_r`` and node 2h+1 is ``x >= d_{r+1}``, so a node's
  complement is ``id ^ 1`` and no node lacks one.  A literal true on every
  candidate has no node; its clause is vacuous.  UNSAT iff some node
  shares a strongly connected component with its complement.

The two stay independent so they can cross-validate.  Both check their
witness on ranks before they report SAT; witnesses are *tight*, every
value a candidate of its variable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import lcm
from operator import eq, rshift
from typing import Optional

from .errors import ResourceLimit, WrongArity
from .formula import ZERO, Formula, Rel

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_COUNT_BUDGET = 2_000_000


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
    first = dict(zip(map(rshift, reversed(uniq), repeat(shift)), range(len(uniq) - 1, -1, -1)))
    start = [0, *map(first.__getitem__, range(1, n + 1)), len(uniq)]
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
    ranks.  Clauses one variable satisfies on every candidate are dropped."""
    start, k = c.start, c.k
    full = {j: (1 << (start[j + 1] - start[j])) - 1 for j in range(1, c.n + 1)}
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
    expanded; never returns a wrong answer.
    """
    c = f if isinstance(f, CompiledFormula) else compile_formula(f)
    masks, full = _clause_masks(c)
    found = _search(dict(full), list(range(len(masks))), masks, [0], budget)
    if found is None:
        return _result(c, None)
    return _result(c, [0] + [c.start[j] + found[j].bit_length() - 1 for j in range(1, c.n + 1)])


def _search(dom, active, compiled, nodes, budget):
    nodes[0] += 1
    if nodes[0] > budget:
        raise ResourceLimit(f"search budget of {budget} nodes exhausted")

    # unit propagation to fixpoint
    while True:
        changed = False
        still = []
        for cid in active:
            satisfied = False
            live = []
            for var, mask in compiled[cid]:
                d = dom[var]
                dm = d & mask
                if dm == d:
                    satisfied = True
                    break
                if dm:
                    live.append((var, mask))
            if satisfied:
                continue
            if not live:
                return None
            if len(live) == 1:
                var, mask = live[0]
                dom[var] &= mask
                changed = True
            else:
                still.append(cid)
        active = still
        if not changed:
            break

    if not active:
        return {var: d & (-d) for var, d in dom.items()}  # lowest remaining value

    # branch on the tightest unsatisfied clause: branch i makes its first
    # i-1 live literals false and the i-th true, a complete partition that
    # reaches conflicts far sooner than blind domain splitting
    branch_cid = min(
        active,
        key=lambda cid: sum(1 for var, mask in compiled[cid] if dom[var] & mask),
    )
    live = [(var, mask) for var, mask in compiled[branch_cid] if dom[var] & mask]
    for i, (var, mask) in enumerate(live):
        child = dict(dom)
        feasible = True
        for prev_var, prev_mask in live[:i]:
            narrowed = child[prev_var] & ~prev_mask
            if narrowed == 0:
                feasible = False
                break
            child[prev_var] = narrowed
        if not feasible:
            continue
        child[var] &= mask
        found = _search(child, active, compiled, nodes, budget)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# SCC decider for k = 2


@dataclass
class ImplicationDigraph:
    """The SCC decider's digraph of a width-2 formula, labelled for reading.

    ``nodes[id]`` is node id's (var, rel, rank) triple, rank local to the
    variable's candidates: per gap, ``(var, LE, r)`` then
    ``(var, GE, r + 1)``.  ``complement[id]`` is ``id ^ 1``; no node lacks
    one.  Edges are the clause contrapositives plus the entailment chains
    within each variable and relation.
    """

    nodes: list[tuple[int, Rel, int]]
    succ: list[list[int]]
    complement: list[int]


def _literal_nodes(c: CompiledFormula) -> list[int]:
    """Node of every slot; -1 for a literal that holds on every candidate."""
    start = c.start
    return [
        (2 * (g - j) + 1 if g != start[j] else -1)
        if e
        else (2 * (g - j) + 2 if g != start[j + 1] - 1 else -1)
        for j, e, g in zip(c.var, c.ge, c.rank)
    ]


def _implication_succ(c: CompiledFormula, nodes: list[int]) -> list[list[int]]:
    start = c.start
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
    return succ


def literal_components(c: CompiledFormula) -> tuple[list[int], list[int]]:
    """Node of every slot (-1 where none) and the component of every node.

    Components are numbered sinks-first.  ``c`` must have width 2.
    """
    nodes = _literal_nodes(c)
    return nodes, _tarjan(_implication_succ(c, nodes))


def build_implication_digraph(f: Formula, domains=None) -> ImplicationDigraph:
    """The SCC decider's digraph of ``f``.  ``domains``, if given, must be
    ``candidate_domains(f)``; the view derives them itself."""
    if f.k != 2:
        raise WrongArity(f"implication digraph requires k = 2, got k = {f.k}")
    c = compile_formula(f)
    succ = _implication_succ(c, _literal_nodes(c))
    nodes = [
        key
        for j in range(1, f.n + 1)
        for r in range(c.start[j + 1] - c.start[j] - 1)
        for key in ((j, Rel.LE, r), (j, Rel.GE, r + 1))
    ]
    return ImplicationDigraph(nodes, succ, [nid ^ 1 for nid in range(len(nodes))])


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
    component.  Otherwise a literal counts as true when its component is
    closer to the sinks than its complement's, and each variable takes
    its smallest candidate d_r with ``x <= d_r`` true (its largest when
    none is).
    """
    if f.k != 2:
        raise WrongArity(f"solve_2rsat_scc requires k = 2, got k = {f.k}")
    c = f if isinstance(f, CompiledFormula) else compile_formula(f)
    _, comp = literal_components(c)
    if any(map(eq, comp[0::2], comp[1::2])):
        return _result(c, None)
    start = c.start
    wit = [0] * (c.n + 1)
    for j in range(1, c.n + 1):
        g, a, last = start[j], 2 * (start[j] - j + 1), start[j + 1] - 1
        while g < last and comp[a] > comp[a + 1]:
            g += 1
            a += 2
        wit[j] = g
    return _result(c, wit)


# ---------------------------------------------------------------------------
# Tight-interpretation counting


def count_tight_satisfying(f: Formula, budget: int = DEFAULT_COUNT_BUDGET) -> int:
    """Number of satisfying slot-tight interpretations.

    Counts assignments x_j = (right-hand side found in one of x_j's own
    slots), with slot multiplicity: two slots carrying the same bound
    contribute two choices.  A variable with no occurrence has no slot to
    pick from, so the count is 0 by convention.
    """
    c = compile_formula(f)
    mult = Counter(c.rank)  # slots per candidate
    spans = [range(c.start[j], c.start[j + 1]) for j in range(1, f.n + 1)]

    total = 1
    for span in spans:
        total *= sum(mult[g] for g in span)
        if total == 0:
            return 0
        if total > budget:
            raise ResourceLimit(f"tight-interpretation space exceeds budget of {budget}")

    masks, _ = _clause_masks(c)
    count = 0
    for combo in product(*spans):
        bits = {j: 1 << (g - span.start) for j, g, span in zip(range(1, f.n + 1), combo, spans)}
        if all(any(bits[j] & mask for j, mask in clause) for clause in masks):
            weight = 1
            for g in combo:
                weight *= mult[g]
            count += weight
    return count
