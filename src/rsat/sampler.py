"""Uniform random formula generation and the value-set couplings.

Sampling is driven entirely by :class:`rsat.rng.Stream`; a configuration
plus its seed determines the produced formula bit for bit.  Draw order is
fixed: for each clause, first the k variable slots, then for each slot a
relation bit followed by the encoded right-hand side.  One integer loop
makes every draw (:func:`draw_slots`); sweeps compile its output straight
to ranks, and :func:`sample_formula` turns it into literals, which share
one Fraction per distinct bound.

Every slot receives an encoded right-hand side ``a`` uniform over
``V \\ {1}``, drawn as a numerator over the value set's common
denominator D (:func:`slot_denominator`).  A ``<=`` slot stores bound
``a`` directly; a ``>=`` slot stores bound ``1 - a`` (uniform over
``V \\ {0}``), so no innocuous literal is ever produced.  With
``distinct_thresholds`` a used side is redrawn, with no cap on redraws:
:class:`GenConfig` refuses a request with fewer than k*m sides before the
first draw.

Two couplings relate formulas over different value sets.  Each is an
integer map of one slot's encoded side, applied in slot order by one loop
(:func:`_map_sides`) that hands the slots to the sampler's builder.  The
bump kernel (:func:`couple_increase_v`) keeps the uniform marginals but is
not pointwise monotone: it tightens some literals.  Only the dyadic ladder
(:func:`truncate_thresholds` at increasing depth) is monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import DuplicateThresholds, InvalidConfig, WrongVspec
from .formula import (
    CONTINUOUS,
    ONE,
    Dyadic,
    Finite,
    Formula,
    Rel,
    TruthValueSpec,
    _not_int,
    literals,
    vspec_grid,
)
from .rng import Stream


@dataclass(frozen=True)
class GenConfig:
    """One sampling request.  Nine rules are checked when it is built, before
    any draw: k, n, m and seed are ints (a bool is not; else a TypeError);
    the two clause-model flags are bools (else a TypeError); k >= 2; n >= 1;
    m >= 0; k <= n with ``distinct_vars_per_clause``; n and the slot
    denominator D (:func:`slot_denominator`) at most 2^64, since one 64-bit
    draw picks each variable and makes each encoded side; and D >= k*m with
    ``distinct_thresholds``, since V \\ {1} holds only D encoded sides."""

    k: int
    n: int
    m: int
    vspec: TruthValueSpec = CONTINUOUS
    distinct_vars_per_clause: bool = False
    seed: int = 0
    distinct_thresholds: bool = False

    def __post_init__(self):
        for name in ("k", "n", "m", "seed"):
            if type(getattr(self, name)) is not int:
                raise _not_int(name, getattr(self, name))
        for name in ("distinct_vars_per_clause", "distinct_thresholds"):
            if type(getattr(self, name)) is not bool:
                raise TypeError(f"{name} must be a bool, got {type(getattr(self, name)).__name__}")
        if self.k < 2:
            raise InvalidConfig(f"k must be >= 2, got {self.k}")
        if self.n < 1:
            raise InvalidConfig(f"n must be >= 1, got {self.n}")
        if self.m < 0:
            raise InvalidConfig(f"m must be >= 0, got {self.m}")
        if self.distinct_vars_per_clause and self.k > self.n:
            raise InvalidConfig(
                f"distinct variables per clause impossible: k={self.k} > n={self.n}"
            )
        if self.n > 1 << 64:
            raise InvalidConfig(
                f"n must be <= 2^64, got {self.n}; one 64-bit draw picks each variable"
            )
        sides = slot_denominator(self.vspec)
        if sides > 1 << 64:
            raise InvalidConfig(
                f"{self.vspec} has more than 2^64 encoded sides; one 64-bit draw makes each side"
            )
        if self.distinct_thresholds and sides < self.k * self.m:
            raise InvalidConfig(
                f"distinct thresholds impossible: {self.vspec} has {sides} encoded sides"
                f" for k*m = {self.k * self.m} slots"
            )


def slot_denominator(vspec: TruthValueSpec) -> int:
    """D, with every encoded side a/D for a uniform over 0..D-1: the grid of
    V (v-1 or 2^lam), or 2^53 for the continuous set (53 random bits)."""
    return vspec_grid(vspec) or 1 << 53


def _draw_distinct_vars(picks) -> list[int]:
    # sparse partial Fisher-Yates over 0..n-1, picks[i] drawing below(n - i); O(k) memory
    swapped: dict[int, int] = {}
    out = []
    for i, pick_i in enumerate(picks):
        j = i + pick_i()
        aj = swapped.get(j, j)
        out.append(aj + 1)
        swapped[j] = swapped.get(i, i)
    return out


def draw_slots(cfg: GenConfig) -> tuple[int, list[int], list[int], list[int]]:
    """The draws of :func:`sample_formula` as integers (D, var, ge, num): slot
    i is x_var[i] >= num[i]/D when ge[i], else x_var[i] <= num[i]/D.

    The one draw loop: per clause the k variables, then per slot the
    relation coin and the encoded side a.  With ``distinct_thresholds`` a
    used side is redrawn until a new one comes, with no cap:
    :class:`GenConfig` has checked that enough sides exist."""
    stream = Stream(cfg.seed)
    k, n = cfg.k, cfg.n
    denominator = slot_denominator(cfg.vspec)
    side, pick, coin = stream.below_fn(denominator), stream.below_fn(n), stream.next_u64
    picks = [stream.below_fn(n - i) for i in range(k)] if cfg.distinct_vars_per_clause else None
    used: Optional[set] = set() if cfg.distinct_thresholds else None
    var, ge, num = [], [], []  # per slot: variable, >= bit, bound numerator
    for _ in range(cfg.m):
        if picks is not None:
            vs = _draw_distinct_vars(picks)
        else:
            vs = [pick() + 1 for _ in range(k)]
        for j in vs:
            e = coin() >> 63
            a = side()
            if used is not None:
                while a in used:
                    a = side()
                used.add(a)
            var.append(j)
            ge.append(e)
            num.append(denominator - a if e else a)
    return denominator, var, ge, num


def _formula(shape: GenConfig | Formula, denominator: int, var, ge, num) -> Formula:
    """The sampler's one formula builder: slot i is x_var[i] >= num[i]/D when
    ge[i], else <=; k, n, V and the clause model come from ``shape``."""
    values = {b: Fraction(b, denominator) for b in set(num)}  # one Fraction per bound
    rels = list(map((Rel.LE, Rel.GE).__getitem__, ge))
    lits = literals(var, rels, list(map(values.__getitem__, num)))
    k = shape.k
    clauses = tuple(zip(*[iter(lits)] * k))
    return Formula(k, shape.n, clauses, shape.vspec, shape.distinct_vars_per_clause)


def sample_formula(cfg: GenConfig) -> Formula:
    """Draw one formula; fully determined by ``cfg`` including its seed."""
    return _formula(cfg, *draw_slots(cfg))


# ---------------------------------------------------------------------------
# Value-set couplings


def _map_sides(f: Formula, vspec: TruthValueSpec, side) -> Formula:
    """``f`` over ``vspec`` with each encoded side p/q replaced by side(p, q)/D,
    D = slot_denominator(vspec); ``side`` is called once per slot, in slot
    order.  Variables and relations stay."""
    denominator = slot_denominator(vspec)
    var, ge, num = [], [], []
    for clause in f.clauses:
        for lit in clause:
            p, q = lit.bound.numerator, lit.bound.denominator
            e = lit.rel is Rel.GE
            a = side(q - p if e else p, q)
            var.append(lit.var)
            ge.append(e)
            num.append(denominator - a if e else a)
    return _formula(replace(f, clauses=(), vspec=vspec), denominator, var, ge, num)


def couple_increase_v(f: Formula, seed: int) -> Formula:
    """The Finite(v+1) image of a Finite(v) formula under one bump step.

    Each encoded side u/(v-1) is rescaled to u/v and bumped to (u+1)/v with
    probability (u+1)/v, one ``Stream(seed)`` draw per slot.  This preserves
    the uniform marginal on the larger set, but it is not pointwise
    monotone, so the image may be unsatisfiable where ``f`` is satisfiable.
    A bumped slot weakens, since (u+1)/v > u/(v-1).  An unbumped slot with
    u >= 1 tightens, since u/v < u/(v-1), for ``<=`` and ``>=`` literals
    alike.  No coupling of these marginals can avoid that for v >= 3: the
    image's side reaches (v-2)/(v-1) or more with probability 1/v, the
    original's with 1/(v-1).
    """
    if not isinstance(f.vspec, Finite):
        raise WrongVspec(f"couple_increase_v needs a Finite formula, got {f.vspec}")
    v = f.vspec.v
    if v > 1 << 64:  # each bump is one below(v) draw from a 64-bit word
        raise WrongVspec(f"couple_increase_v needs v <= 2^64, got {f.vspec}")
    below_v = Stream(seed).below_fn(v)

    def bump(p: int, q: int) -> int:
        u = p * (v - 1) // q  # q divides v - 1
        return u + 1 if below_v() <= u else u

    return _map_sides(f, Finite(v + 1), bump)


def truncate_thresholds(f: Formula, lam: int) -> Formula:
    """Keep the first ``lam`` binary digits of every encoded side.

    The result lives over Dyadic(lam).  Truncation only ever strengthens a
    literal (<= bounds drop, >= bounds rise), so satisfiability at lam
    implies satisfiability at every lam' >= lam under shared bit streams.
    """
    vspec = Dyadic(lam)  # checks lam before the shift
    scale = 1 << lam
    return _map_sides(f, vspec, lambda p, q: p * scale // q)


def min_safe_lambda(f: Formula) -> int:
    """Smallest truncation depth that provably preserves satisfiability.

    The first depth lam >= 0 at which the floor map a -> floor(a * 2^lam)
    that :func:`truncate_thresholds` applies keeps the complement-closed
    set of encoded sides S = {a} union {1-a} injective.  Closure under
    a -> 1-a is needed because >=-literals compare through their direct
    bound 1-a; without it a cross pair like sides {0.011, 0.110} would
    truncate to disjointness.
    """
    lits = [lit for clause in f.clauses for lit in clause]
    sides = [lit.encoded_rhs() for lit in lits]
    if len(set(sides)) < len(sides):
        raise DuplicateThresholds("two literals share an encoded right-hand side")
    # An exact tie between a <=-bound and a >=-bound (a_le = 1 - a_ge) cannot
    # survive truncation unless the value is on the target grid; reject it.
    le_bounds = {lit.bound for lit in lits if lit.rel is Rel.LE}
    ge_bounds = {lit.bound for lit in lits if lit.rel is Rel.GE}
    if le_bounds & ge_bounds:
        raise DuplicateThresholds(
            "a <=-literal and a >=-literal meet at the same bound (a + a' = 1)"
        )
    closed = set(sides) | {ONE - a for a in sides}
    lam = 0
    while len({(a.numerator << lam) // a.denominator for a in closed}) < len(closed):
        lam += 1
    return lam
