"""Combinatorial unsatisfiability witnesses for width-2 formulas.

Two certificate shapes, both checkable with nothing but clause lookup and
sign disjointness (the checkers never consult a decider):

* a *bicycle* is a chain of clauses linked through disjoint literal pairs
  on distinct variables, with both chain ends folding back onto interior
  variables.  Every unsatisfiable width-2 formula with enough structure
  contains one, so an exhaustive search that comes back empty certifies
  satisfiability.

* a *snake* is a closed double chain through a distinguished middle
  variable; its presence forces the middle literal to be neither
  satisfiable nor violable, so a verified snake certifies
  unsatisfiability outright.

Finders return certificates that pass their checker; the bicycle finder
is exhaustive within budget (NONE is a definitive answer), the snake
finder is best effort (NONE proves nothing).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import IndexOutOfRange, OddLength, WrongArity
from .formula import Formula, Literal, signs_disjoint
from .solver import compile_formula, literal_components


class _BudgetExhausted:
    __slots__ = ()

    def __repr__(self):
        return "BUDGET_EXHAUSTED"

    def __bool__(self):
        return False


BUDGET_EXHAUSTED = _BudgetExhausted()

DEFAULT_FIND_BUDGET = 2_000_000


class _BudgetHit(Exception):
    pass


# ---------------------------------------------------------------------------
# Bicycle


@dataclass(frozen=True)
class Bicycle:
    """Chain certificate: literals f0, t1, f1, t2, f2, ..., t_ell, f_ell, t_{ell+1}.

    ``clause_indices[i]`` names the formula clause containing exactly
    { f_i, t_{i+1} }, for i = 0..ell.  ``i0`` and ``i1`` locate the
    variables of the two end literals among the interior t-variables.
    """

    ell: int
    literals: tuple[Literal, ...]
    i0: int
    i1: int
    clause_indices: tuple[int, ...]

    def __post_init__(self):
        if self.ell < 2:
            raise ValueError(f"bicycle needs ell >= 2, got {self.ell}")
        if len(self.literals) != 2 * self.ell + 2:
            raise ValueError(
                f"bicycle of ell={self.ell} needs {2 * self.ell + 2} literals, "
                f"got {len(self.literals)}"
            )
        if len(self.clause_indices) != self.ell + 1:
            raise ValueError(
                f"bicycle of ell={self.ell} needs {self.ell + 1} clause indices"
            )

    def wf(self, i: int) -> Literal:
        """f-literal i, 0 <= i <= ell."""
        return self.literals[0] if i == 0 else self.literals[2 * i]

    def wt(self, i: int) -> Literal:
        """t-literal i, 1 <= i <= ell + 1."""
        return self.literals[2 * i - 1]


def verify_bicycle(f: Formula, cert: Bicycle) -> bool:
    """Check the five bicycle conditions literally against ``f``."""
    if f.k != 2:
        raise WrongArity(f"bicycles are defined for k = 2, got k = {f.k}")
    ell = cert.ell
    for ci in cert.clause_indices:
        if not (0 <= ci < f.m):
            raise IndexOutOfRange(f"clause index {ci} outside 0..{f.m - 1}")

    if not (2 <= cert.i0 <= ell and 1 <= cert.i1 <= ell - 1):
        return False
    t_vars = [cert.wt(i).var for i in range(1, ell + 1)]
    if len(set(t_vars)) != ell:  # bc1
        return False
    for i in range(1, ell + 1):  # bc2 + bc5
        if cert.wt(i).var != cert.wf(i).var:
            return False
        if not signs_disjoint(cert.wt(i), cert.wf(i)):
            return False
    if cert.wf(0).var != cert.wt(cert.i0).var:  # bc3
        return False
    if cert.wt(ell + 1).var != cert.wt(cert.i1).var:
        return False
    for i in range(ell + 1):  # bc4
        expected = Counter((cert.wf(i), cert.wt(i + 1)))
        if Counter(f.clauses[cert.clause_indices[i]]) != expected:
            return False
    return True


def _oriented_clauses(f: Formula):
    """Each two-variable clause in both (lead, trail) orders, keyed by lead var.

    Clauses with both literals on one variable can never participate in a
    chain certificate (the interior variables must be distinct), so they
    are dropped here.
    """
    by_lead: dict[int, list[tuple[int, Literal, Literal]]] = {}
    for idx, clause in enumerate(f.clauses):
        u, w = clause
        if u.var == w.var:
            continue
        by_lead.setdefault(u.var, []).append((idx, u, w))
        by_lead.setdefault(w.var, []).append((idx, w, u))
    return by_lead


def find_bicycle(f: Formula, budget: int = DEFAULT_FIND_BUDGET):
    """Exhaustive chain search.

    Returns a verified Bicycle, or None after the full chain space was
    searched (then no bicycle exists), or BUDGET_EXHAUSTED when the budget
    ran out first.
    """
    if f.k != 2:
        raise WrongArity(f"bicycles are defined for k = 2, got k = {f.k}")
    by_lead = _oriented_clauses(f)
    steps = [0]

    def assemble(chain, link_vars):
        ell = len(chain) - 1
        first0_var = chain[0][1].var
        last_var = chain[-1][2].var
        i0 = next((i for i in range(2, ell + 1) if link_vars[i - 1] == first0_var), None)
        i1 = next((i for i in range(1, ell) if link_vars[i - 1] == last_var), None)
        if i0 is None or i1 is None:
            return None
        literals = [chain[0][1]]
        for i in range(1, ell + 1):
            literals.append(chain[i - 1][2])
            literals.append(chain[i][1])
        literals.append(chain[ell][2])
        cert = Bicycle(
            ell=ell,
            literals=tuple(literals),
            i0=i0,
            i1=i1,
            clause_indices=tuple(entry[0] for entry in chain),
        )
        return cert if verify_bicycle(f, cert) else None

    def dfs(chain, link_vars, link_var_set):
        steps[0] += 1
        if steps[0] > budget:
            raise _BudgetHit
        if len(chain) >= 3:
            cert = assemble(chain, link_vars)
            if cert is not None:
                return cert
        next_var = chain[-1][2].var
        if next_var in link_var_set:
            return None
        trail = chain[-1][2]
        for cand in by_lead.get(next_var, ()):
            if not signs_disjoint(trail, cand[1]):
                continue
            chain.append(cand)
            link_vars.append(next_var)
            link_var_set.add(next_var)
            found = dfs(chain, link_vars, link_var_set)
            if found is not None:
                return found
            chain.pop()
            link_vars.pop()
            link_var_set.remove(next_var)
        return None

    try:
        for lead_var in sorted(by_lead):
            for start in by_lead[lead_var]:
                found = dfs([start], [], set())
                if found is not None:
                    return found
    except _BudgetHit:
        return BUDGET_EXHAUSTED
    return None


# ---------------------------------------------------------------------------
# Snake


@dataclass(frozen=True)
class Snake:
    """Closed double-chain certificate.

    ``pairs[i] = (lead_i, trail_i)`` is clause i as written in the chain:
    lead_i sits on variable b_i, trail_i on b_{i+1}, for i = 0..ell, with
    the conventions b_0 = b_{ell/2} = b_{ell+1}.  ``b`` lists b_1..b_ell.
    """

    ell: int
    b: tuple[int, ...]
    pairs: tuple[tuple[Literal, Literal], ...]
    clause_indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) != self.ell:
            raise ValueError(f"snake needs {self.ell} variables, got {len(self.b)}")
        if len(self.pairs) != self.ell + 1:
            raise ValueError(f"snake of ell={self.ell} needs {self.ell + 1} clause pairs")
        if len(self.clause_indices) != self.ell + 1:
            raise ValueError(f"snake of ell={self.ell} needs {self.ell + 1} clause indices")

    def b_full(self, i: int) -> int:
        """b_i for 0 <= i <= ell + 1, applying the boundary identifications."""
        if i == 0 or i == self.ell + 1:
            i = self.ell // 2
        return self.b[i - 1]


def verify_snake(f: Formula, cert: Snake) -> bool:
    """Check sk1-sk3, variable consistency and clause membership."""
    if f.k != 2:
        raise WrongArity(f"snakes are defined for k = 2, got k = {f.k}")
    ell = cert.ell
    if ell < 6 or ell % 2 != 0:
        raise OddLength(f"snake length must be an even integer >= 6, got {ell}")
    for ci in cert.clause_indices:
        if not (0 <= ci < f.m):
            raise IndexOutOfRange(f"clause index {ci} outside 0..{f.m - 1}")

    if len(set(cert.b)) != ell:
        return False
    for i in range(ell + 1):
        lead, trail = cert.pairs[i]
        if lead.var != cert.b_full(i) or trail.var != cert.b_full(i + 1):
            return False
        if Counter(f.clauses[cert.clause_indices[i]]) != Counter((lead, trail)):
            return False
    for i in range(1, ell + 1):  # sk1: trail of clause i-1 vs lead of clause i
        if not signs_disjoint(cert.pairs[i - 1][1], cert.pairs[i][0]):
            return False
    if not signs_disjoint(cert.pairs[ell][1], cert.pairs[0][0]):  # sk2
        return False
    half = ell // 2
    if not signs_disjoint(cert.pairs[half - 1][1], cert.pairs[ell][1]):  # sk3
        return False
    if not signs_disjoint(cert.pairs[half][0], cert.pairs[0][0]):
        return False
    return True


def _filtered_oriented_clauses(f: Formula):
    """Oriented clauses that can take part in a closed snake walk.

    Every literal of a snake clause sits in a disjointness link on its
    variable, so its domain-complement exists, and the walk's implication
    cycle forces complement(lead) and trail into one strongly connected
    component.  Orientations failing that necessary condition are dropped.
    """
    nodes, comp = literal_components(compile_formula(f))
    by_lead: dict[int, list[tuple[int, Literal, Literal]]] = {}
    for idx, (u, w) in enumerate(f.clauses):
        nu, nw = nodes[2 * idx], nodes[2 * idx + 1]
        if u.var == w.var or nu < 0 or nw < 0:
            continue
        if comp[nu ^ 1] == comp[nw]:
            by_lead.setdefault(u.var, []).append((idx, u, w))
        if comp[nw ^ 1] == comp[nu]:
            by_lead.setdefault(w.var, []).append((idx, w, u))
    return by_lead


def find_snake(f: Formula, budget: int = DEFAULT_FIND_BUDGET, max_half: int | None = None):
    """Best-effort closed-chain search; None proves nothing.

    Walks disjointness-linked clause chains out of a candidate middle
    variable; a walk that returns to the middle twice with half lengths
    (d, d+1) closes into a snake of length 2d, which is then verified.
    Only clauses living inside a strongly connected component of the
    implication digraph can appear in a closed walk, so everything else
    is pruned up front.  ``max_half`` caps the first half's length
    (default: a small margin above log n / log(m/2n), where closed walks
    become plentiful).
    """
    if f.k != 2:
        raise WrongArity(f"snakes are defined for k = 2, got k = {f.k}")
    if f.m < 7:
        return None
    by_lead = _filtered_oriented_clauses(f)
    if max_half is None:
        if f.m > 2 * f.n and f.n >= 2:
            max_half = 2 + math.ceil(math.log(f.n) / math.log(f.m / (2 * f.n)))
        else:
            max_half = f.n
    steps = [0]

    def assemble(chain):
        ell = len(chain) - 1
        b = tuple(entry[1].var for entry in chain[1:])
        cert = Snake(
            ell=ell,
            b=b,
            pairs=tuple((entry[1], entry[2]) for entry in chain),
            clause_indices=tuple(entry[0] for entry in chain),
        )
        return cert if verify_snake(f, cert) else None

    def dfs(mid, chain, used, d1):
        # d1 is None during the first half, else the first half's length
        steps[0] += 1
        if steps[0] > budget:
            raise _BudgetHit
        if d1 is None and len(chain) > max_half:
            return None
        trail = chain[-1][2]
        next_var = trail.var
        if next_var == mid:
            if d1 is None:
                d = len(chain)
                if d < 3:
                    return None
                for cand in by_lead.get(mid, ()):
                    if not signs_disjoint(trail, cand[1]):
                        continue
                    if cand[2].var in used:
                        continue
                    chain.append(cand)
                    used.add(cand[2].var)
                    found = dfs(mid, chain, used, d)
                    if found is not None:
                        return found
                    used.remove(cand[2].var)
                    chain.pop()
                return None
            d2 = len(chain) - d1
            if d2 == d1 + 1:
                return assemble(chain)
            if d2 == d1 - 1 and d2 >= 3:  # same closed walk, rotated split
                return assemble(chain[d1:] + chain[:d1])
            return None
        if d1 is not None and len(chain) - d1 >= d1 + 1:
            return None  # second half can be at most one clause longer
        for cand in by_lead.get(next_var, ()):
            nv = cand[2].var
            if not signs_disjoint(trail, cand[1]):
                continue
            if nv != mid and nv in used:
                continue
            chain.append(cand)
            if nv != mid:
                used.add(nv)
            found = dfs(mid, chain, used, d1)
            if found is not None:
                return found
            if nv != mid:
                used.remove(nv)
            chain.pop()
        return None

    try:
        for mid in sorted(by_lead):
            for start in by_lead[mid]:
                found = dfs(mid, [start], {mid, start[2].var}, None)
                if found is not None:
                    return found
    except _BudgetHit:
        return None
    return None
