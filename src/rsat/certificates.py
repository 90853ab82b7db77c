"""Combinatorial unsatisfiability witnesses for width-2 formulas.

Two certificate shapes, both checkable with nothing but clause lookup and
sign disjointness (the checkers never consult a decider).  Each object is
its chain and nothing more: ``pairs[i]`` is clause ``clause_indices[i]``
as written in the chain, a (lead, trail) pair of literals, and the length
``ell`` (one less than the number of pairs) and a snake's variables ``b``
are derived from it:

* a *bicycle* is a chain of clauses linked through disjoint literal pairs
  on distinct variables, with both chain ends folding back onto interior
  variables.  Every unsatisfiable width-2 formula with distinct variables
  per clause contains one that the finder reads off one walk, so its None
  certifies satisfiability on that model.

* a *snake* is a closed double chain through a distinguished middle
  variable; its presence forces the middle literal to be neither
  satisfiable nor violable, so a verified snake certifies
  unsatisfiability outright.

Both checkers read one link rule: each trail sits on the next lead's
variable and is sign-disjoint from it.  A check returns a verdict: for
any certificate that can be built, it answers True or False against a
width-2 formula, so a clause index outside the formula or a snake whose
ell is odd or below 6 certifies nothing and gets False; only a formula of
another width raises (WrongArity).

Both finders run the SCC decider's stages, compile, then
:func:`rsat.solver.reduce_candidates` and
:func:`rsat.solver.literal_components`, and walk one *chain graph* on the
reduced form alone.  Its nodes are the orientations of the two-variable
clauses that lie on a closed walk of the decider's digraph, each named
by its lead slot; an arc runs from s to t when t's lead is sign-disjoint
from s's trail, which the reduced ranks decide without a Fraction (the
reduction keeps sign-disjointness).  A walk through a dropped
candidate's nodes passes the same clause arcs as one through the
candidate that dominates it, so the graph over every candidate keeps the
same orientations.  The snake finder tests a walk's closing conditions
with the same rank rule.  A chain of orientations becomes a certificate by
reading each orientation's lead and trail off its clause, and the one
certificate a finder returns must pass its checker, which reads the
formula's Literals, not the ranks.  The bicycle finder is a greedy walk,
not an exhaustive search; the snake finder is best effort (None proves
nothing).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

from .analytics import snake_length
from .errors import WrongArity
from .formula import Formula, Literal, signs_disjoint
from .solver import Ranked, check_budget, compile_formula, literal_components, reduce_candidates


class _BudgetExhausted:
    __slots__ = ()

    def __repr__(self):
        return "BUDGET_EXHAUSTED"

    def __bool__(self):
        return False


BUDGET_EXHAUSTED = _BudgetExhausted()

DEFAULT_FIND_BUDGET = 2_000_000


class _Chain:
    """The shape both certificates share: ``pairs`` and one clause index per
    pair, with ``ell`` at least the class's ``_least_ell``."""

    _least_ell: int

    @classmethod
    def check_ell(cls, ell: int) -> None:
        """Raise a ValueError when ``ell`` is below the kind's least length."""
        if ell < cls._least_ell:
            raise ValueError(f"{cls.__name__.lower()} needs ell >= {cls._least_ell}, got {ell}")

    def __post_init__(self):
        self.check_ell(self.ell)
        if len(self.clause_indices) != len(self.pairs):
            kind = type(self).__name__.lower()
            raise ValueError(f"{kind} of ell={self.ell} needs {self.ell + 1} clause indices")

    @property
    def ell(self) -> int:
        return len(self.pairs) - 1


# ---------------------------------------------------------------------------
# Bicycle


@dataclass(frozen=True)
class Bicycle(_Chain):
    """Chain certificate f0 t1, f1 t2, ..., f_ell t_{ell+1}.

    ``pairs[i] = (f_i, t_{i+1})`` is clause ``clause_indices[i]`` as written
    in the chain, for i = 0..ell.  ``i0`` and ``i1`` locate the variables
    of the two end literals f_0 and t_{ell+1} among the interior
    t-variables t_1..t_ell.
    """

    pairs: tuple[tuple[Literal, Literal], ...]
    i0: int
    i1: int
    clause_indices: tuple[int, ...]
    _least_ell = 2


def _clauses_match(f: Formula, cert: Bicycle | Snake, kind: str) -> bool:
    """Whether clause ``clause_indices[i]`` of width-2 ``f`` holds exactly
    ``pairs[i]``, for every i; an index outside 0..m-1 names no clause, so
    it fails.  Raises WrongArity on another width."""
    if f.k != 2:
        raise WrongArity(f"{kind}s are defined for k = 2, got k = {f.k}")
    return all(0 <= ci < f.m and Counter(f.clauses[ci]) == Counter(pair)
               for ci, pair in zip(cert.clause_indices, cert.pairs))


def _linked(pairs) -> bool:
    """Whether each pair's trail sits on the next pair's lead variable and is
    sign-disjoint from that lead: the link rule of both certificates."""
    return all(trail.var == lead.var and signs_disjoint(trail, lead)
               for (_, trail), (lead, _) in zip(pairs, pairs[1:]))


def verify_bicycle(f: Formula, cert: Bicycle) -> bool:
    """Check the five bicycle conditions literally against ``f``."""
    ell, pairs = cert.ell, cert.pairs
    if not (_clauses_match(f, cert, "bicycle")  # bc4
            and 2 <= cert.i0 <= ell and 1 <= cert.i1 <= ell - 1):
        return False
    t_vars = [trail.var for _, trail in pairs[:-1]]  # t_1..t_ell
    # bc1, then bc2 + bc5, then bc3: f_0 folds onto t_{i0}, t_{ell+1} onto t_{i1}
    return len(set(t_vars)) == ell and _linked(pairs) and \
        pairs[0][0].var == t_vars[cert.i0 - 1] and pairs[-1][1].var == t_vars[cert.i1 - 1]


def _chain_graph(d: Ranked, nodes: list[int], comp: list[int]):
    """The closed-walk chain graph of width-2 ``d``, a reduced form, from
    the slot nodes and components ``literal_components(d)`` gives: its
    successor lists and the disjointness rule.

    An orientation of clause i is named by its lead slot s (2i or 2i+1);
    its trail is slot ``s ^ 1``.  It is kept when its clause arc, from the
    complement of its lead to its trail, lies inside one strongly connected
    component of ``d``'s digraph, so that some closed walk uses it, and
    when its clause joins two variables, as a chain certificate's clauses
    do.  ``successors`` maps every kept orientation, in start order (lead
    variable ascending, then slot order), to the kept orientations, in
    slot order, whose lead is disjoint from its trail.
    ``disjoint(a, b)``, for slots on one variable, holds when the
    relations differ and the ``>=`` rank is strictly greater than the
    ``<=`` rank (a tie is not disjoint).
    """
    var, ge, rank = d.var, d.ge, d.rank
    by_lead: dict[int, list[int]] = {}
    for s in range(len(var)):
        u, w = nodes[s], nodes[s ^ 1]
        if var[s] != var[s ^ 1] and u >= 0 and w >= 0 and comp[u ^ 1] == comp[w]:
            by_lead.setdefault(var[s], []).append(s)

    def disjoint(a, b):
        return ge[a] != ge[b] and (rank[a] > rank[b] if ge[a] else rank[b] > rank[a])

    successors = {s: [t for t in by_lead.get(var[s ^ 1], ()) if disjoint(s ^ 1, t)]
                  for j in sorted(by_lead) for s in by_lead[j]}
    return successors, disjoint


def _certificate(f: Formula, chain: list[int], make, verify):
    """``make(pairs=..., clause_indices=...)`` for the chain of orientations,
    each named by its lead slot, once ``verify`` accepts it against ``f``."""
    pairs = tuple((f.clauses[s >> 1][s & 1], f.clauses[s >> 1][(s ^ 1) & 1]) for s in chain)
    cert = make(pairs=pairs, clause_indices=tuple(s >> 1 for s in chain))
    if not verify(f, cert):
        kind = type(cert).__name__.lower()
        raise AssertionError(f"{kind} finder produced an invalid certificate")
    return cert


def find_bicycle(f: Formula):
    """Read a bicycle off one greedy walk on the closed-walk chain graph.

    The walk starts from the first key of the chain graph's successor dict,
    the first kept orientation in start order (lead variables ascending,
    then slot order), and always steps to the first successor.
    Its run of variables from just after the first repeated variable up to
    the next repeat is a bicycle: the repeat gives i0 >= 2, and the end
    folds back with i1 <= ell - 1 because a clause joins two variables.

    A kept orientation's way back from its trail to its lead's complement
    stays in one component and leaves the trail's variable through a clause
    arc, so it has a kept successor unless that clause is on one variable.
    A walk that dead-ends there is dropped and the next key is tried, so
    with repeated variables the work can grow to the number of starts
    times the walk length.  With distinct variables per clause no walk
    dead-ends, and an unsatisfiable formula, whose x and not-x share a
    component, has a kept orientation; so there None certifies
    satisfiability.  In general None means only that no walk reached a
    bicycle.

    Returns a Bicycle that ``verify_bicycle`` accepted, or None.
    """
    d = reduce_candidates(compile_formula(f))
    var = d.var
    successors, _ = _chain_graph(d, *literal_components(d)[:2])
    for start in successors:
        # chain[i] leads on the walk's i-th variable; pos maps a variable
        # to where the walk last reached it, and the bicycle's chain
        # starts at q, the first visit of the first repeated variable
        chain, pos, q = [start], {var[start]: 0}, None
        while True:
            r, v = len(chain), var[chain[-1] ^ 1]
            j = pos.get(v, -1)
            if q is not None and j > q:  # repeat inside the run: t_{ell+1} folds onto t_{i1}
                return _certificate(f, chain[q:], partial(Bicycle, i0=i0, i1=j - q), verify_bicycle)
            if q is None and j >= 0:  # first repeat: f_0 folds onto t_{i0}
                q, i0 = j, r - j
            pos[v] = r
            nxt = successors[chain[-1]]
            if not nxt:
                break
            chain.append(nxt[0])
    return None


# ---------------------------------------------------------------------------
# Snake


@dataclass(frozen=True)
class Snake(_Chain):
    """Closed double-chain certificate.

    ``pairs[i] = (lead_i, trail_i)`` is clause ``clause_indices[i]`` as
    written in the chain: lead_i sits on variable b_i, trail_i on b_{i+1},
    for i = 0..ell, with the conventions b_0 = b_{ell/2} = b_{ell+1}.
    """

    pairs: tuple[tuple[Literal, Literal], ...]
    clause_indices: tuple[int, ...]
    _least_ell = 0

    @property
    def b(self) -> tuple[int, ...]:
        """b_1..b_ell: the lead variables of clauses 1..ell."""
        return tuple(lead.var for lead, _ in self.pairs[1:])


def verify_snake(f: Formula, cert: Snake) -> bool:
    """Check clause membership, an even ell >= 6, distinct b_1..b_ell, the
    links sk1 and sk2 (sk2 links the last trail to lead 0), lead 0 on the
    middle variable b_{ell/2}, and sk3."""
    ell, pairs = cert.ell, cert.pairs
    if not (_clauses_match(f, cert, "snake") and ell >= 6 and ell % 2 == 0):
        return False
    half = ell // 2
    return len(set(cert.b)) == ell and _linked(pairs + pairs[:1]) and \
        pairs[0][0].var == pairs[half][0].var and \
        signs_disjoint(pairs[half - 1][1], pairs[ell][1]) and \
        signs_disjoint(pairs[half][0], pairs[0][0])  # sk3


def find_snake(f: Formula, budget: int = DEFAULT_FIND_BUDGET):
    """Best-effort closed-chain search; None proves nothing.

    Walks disjointness-linked clause chains out of a candidate middle
    variable; a walk that returns to the middle twice with half lengths
    (d, d+1) closes into a snake of length 2d if, on ranks, the last trail
    is disjoint from the first lead and sk3 holds; the walk has kept the
    rest.  ``verify_snake`` guards the one snake returned.  Every literal
    of a snake clause sits in a disjointness link on its variable, so the
    walk's implication cycle puts the complement of each lead in one
    strongly connected component with its trail; the closed-walk chain
    graph holds only such orientations.  A snake certifies
    unsatisfiability, so the SCC decider's components come first: a
    formula they leave satisfiable is not searched, and its chain graph is
    not built.  Middle variables and starts are tried in the successor
    dict's key order.  The first half is at most a small margin above
    log n / log(m/2n) long.  ``budget`` is checked as :func:`check_budget`
    does, before any search.
    """
    check_budget(budget)
    d = reduce_candidates(compile_formula(f))
    var = d.var
    nodes, comp, refuted = literal_components(d)
    if not refuted or f.m < 7:
        return None
    successors, disjoint = _chain_graph(d, nodes, comp)
    if f.m > 2 * f.n and f.n >= 2:
        max_half = 2 + snake_length(f.n, f.m / f.n) // 2
    else:
        max_half = f.n
    steps = 0

    # Depth first on a stack of successor iterators, the root one yielding
    # start.  Visiting orientation t at depth len(chain) + 1 costs one step;
    # only a node that may grow the walk joins chain and used and gets a
    # frame.  d1 is None during the first half, else its length.
    for start in successors:
        mid = var[start]
        chain, used, frames, d1 = [], {mid}, [iter((start,))], None
        while frames:
            for t in frames[-1]:  # the next child to visit
                nv = var[t ^ 1]
                if nv == mid or nv not in used:
                    break
            else:  # pop the spent frame
                frames.pop()
                if chain:
                    nv = var[chain.pop() ^ 1]
                    if nv != mid:
                        used.remove(nv)
                    if d1 is not None and len(chain) < d1:
                        d1 = None
                continue
            steps += 1
            if steps > budget:
                return None
            depth = len(chain) + 1
            if d1 is None and depth > max_half:
                continue
            if nv == mid:
                if d1 is not None:
                    # the closing link and sk3 test the same slots whether
                    # the split is (d1, d1+1) or rotated to (d1-1, d1)
                    d2 = depth - d1
                    if (d2 == d1 + 1 or d2 == d1 - 1 >= 3) and disjoint(t ^ 1, start) and \
                            disjoint(chain[d1 - 1] ^ 1, t ^ 1) and disjoint(chain[d1], start):
                        snake = chain + [t] if d2 > d1 else chain[d1:] + [t] + chain[:d1]
                        return _certificate(f, snake, Snake, verify_snake)
                    continue
                if depth < 3:
                    continue
                d1 = depth  # the first half closed; walk the second
            elif d1 is not None and depth - d1 >= d1 + 1:
                continue  # the second half can be at most one clause longer
            chain.append(t)
            if nv != mid:
                used.add(nv)
            frames.append(iter(successors[t]))
    return None
