"""Uniform random formula generation and the value-set couplings.

Sampling is driven entirely by :class:`rsat.rng.Stream`; a configuration
plus its seed determines the produced formula bit for bit.  Draw order is
fixed: for each clause, first the k variable slots, then for each slot a
relation bit followed by the encoded right-hand side.  One integer loop
makes every draw (:func:`draw_slots`); sweeps compile its output straight
to ranks, and :func:`sample_formula` turns it into one Fraction per slot.

Every slot receives an encoded right-hand side ``a`` uniform over
``V \\ {1}``, drawn as a numerator over the value set's common
denominator D (:func:`slot_denominator`).  A ``<=`` slot stores bound
``a`` directly; a ``>=`` slot stores bound ``1 - a`` (uniform over
``V \\ {0}``), so no innocuous literal is ever produced.

Two couplings relate formulas over different value sets.  The bump kernel
(:func:`couple_increase_v`) keeps the uniform marginals but is not
pointwise monotone: it tightens some literals.  Only the dyadic ladder
(:func:`truncate_thresholds` at increasing depth) is monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DuplicateThresholds, InvalidConfig, ProfileMismatch, WrongVspec
from .formula import (
    CONTINUOUS,
    ONE,
    Dyadic,
    Finite,
    Formula,
    Literal,
    Rel,
    TruthValueSpec,
)
from .rng import Stream

OccurrenceProfile = Sequence[int]


@dataclass(frozen=True)
class GenConfig:
    k: int
    n: int
    m: int
    vspec: TruthValueSpec = CONTINUOUS
    distinct_vars_per_clause: bool = False
    seed: int = 0
    distinct_thresholds: bool = False

    def __post_init__(self):
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


def slot_denominator(vspec: TruthValueSpec) -> int:
    """D, with every encoded side a/D for a uniform over 0..D-1: v-1, 2^lam,
    or 2^53 for the continuous set (53 random bits)."""
    if isinstance(vspec, Finite):
        return vspec.v - 1
    if isinstance(vspec, Dyadic):
        return 1 << vspec.lam
    return 1 << 53


def _draw_distinct_vars(n: int, k: int, stream: Stream) -> list[int]:
    # sparse partial Fisher-Yates over 0..n-1; O(k) memory
    swapped: dict[int, int] = {}
    out = []
    for i in range(k):
        j = i + stream.below(n - i)
        aj = swapped.get(j, j)
        out.append(aj + 1)
        swapped[j] = swapped.get(i, i)
    return out


def _draw_slots(cfg: GenConfig, stream: Stream, copies: Optional[list[int]]):
    """The one draw loop: per clause the k variables (unless ``copies`` fixes
    them), then per slot the relation coin and the encoded side a."""
    k, n = cfg.k, cfg.n
    denominator = slot_denominator(cfg.vspec)
    side, pick, coin = stream.below_fn(denominator), stream.below_fn(n), stream.next_u64
    used: Optional[set] = set() if cfg.distinct_thresholds else None
    var, ge, num = [], [], []  # per slot: variable, >= bit, bound numerator
    for ci in range(cfg.m):
        if copies is not None:
            vs = copies[ci * k : (ci + 1) * k]
        elif cfg.distinct_vars_per_clause:
            vs = _draw_distinct_vars(n, k, stream)
        else:
            vs = [pick() + 1 for _ in range(k)]
        for j in vs:
            e = coin() >> 63
            a = side()
            if used is not None:
                for _ in range(1000):
                    if a not in used:
                        break
                    a = side()
                if a in used:
                    raise InvalidConfig("cannot draw globally distinct right-hand sides")
                used.add(a)
            var.append(j)
            ge.append(e)
            num.append(denominator - a if e else a)
    return denominator, var, ge, num


def draw_slots(cfg: GenConfig) -> tuple[int, list[int], list[int], list[int]]:
    """The draws of :func:`sample_formula` as integers (D, var, ge, num): slot
    i is x_var[i] >= num[i]/D when ge[i], else x_var[i] <= num[i]/D."""
    return _draw_slots(cfg, Stream(cfg.seed), None)


def _formula(cfg: GenConfig, denominator: int, var, ge, num) -> Formula:
    lits = [Literal(j, Rel.GE if e else Rel.LE, Fraction(b, denominator))
            for j, e, b in zip(var, ge, num)]
    clauses = tuple(tuple(lits[i : i + cfg.k]) for i in range(0, len(lits), cfg.k))
    return Formula(cfg.k, cfg.n, clauses, cfg.vspec, cfg.distinct_vars_per_clause)


def sample_formula(cfg: GenConfig) -> Formula:
    """Draw one formula; fully determined by ``cfg`` including its seed."""
    return _formula(cfg, *draw_slots(cfg))


def sample_formula_given_profile(
    cfg: GenConfig, profile: OccurrenceProfile, seed: Optional[int] = None
) -> Formula:
    """Draw a formula conditioned on the occurrence profile.

    Variable copies (R_j copies of x_j) are matched to the k*m slots by a
    uniform random permutation; constraint parts are drawn slot by slot as
    in :func:`sample_formula`.  The bucket construction allows clause-
    internal repeats, so ``distinct_vars_per_clause`` must be off.
    """
    if cfg.distinct_vars_per_clause:
        raise InvalidConfig("profile-conditioned sampling requires repeats allowed")
    if len(profile) != cfg.n:
        raise ProfileMismatch(f"profile has {len(profile)} entries, expected n={cfg.n}")
    km = cfg.k * cfg.m
    if any(r < 0 for r in profile) or sum(profile) != km:
        raise ProfileMismatch(f"profile must be nonnegative and sum to k*m = {km}")

    stream = Stream(cfg.seed if seed is None else seed)
    copies = [j + 1 for j, r in enumerate(profile) for _ in range(r)]
    for i in range(km - 1, 0, -1):  # Fisher-Yates: uniform matching of copies to slots
        j = stream.below(i + 1)
        copies[i], copies[j] = copies[j], copies[i]
    return _formula(cfg, *_draw_slots(cfg, stream, copies))


# ---------------------------------------------------------------------------
# Value-set couplings


@dataclass(frozen=True)
class CoupledPair:
    """Same-shape formulas over adjacent truth-value sets.

    ``high`` differs from ``low`` only in thresholds: each encoded side of
    ``low`` was rescaled from u/(v-1) to u/v and then bumped to (u+1)/v
    with probability (u+1)/v.  This preserves the uniform marginal on the
    larger set, but it is not pointwise monotone.  A bumped slot weakens,
    since (u+1)/v > u/(v-1).  An unbumped slot with u >= 1 tightens, since
    u/v < u/(v-1), for ``<=`` and ``>=`` literals alike.  No coupling of
    these marginals can avoid that for v >= 3: the high side reaches
    (v-2)/(v-1) or more with probability 1/v, the low side with 1/(v-1).
    """

    low: Formula
    high: Formula


def couple_increase_v(f: Formula, seed: int) -> CoupledPair:
    """Couple a Finite(v) formula with a Finite(v+1) copy (one bump step).

    Both sides are uniform samples, but ``high`` may be unsatisfiable where
    ``low`` is satisfiable; see :class:`CoupledPair`.
    """
    if not isinstance(f.vspec, Finite):
        raise WrongVspec(f"couple_increase_v needs a Finite formula, got {f.vspec}")
    v = f.vspec.v
    stream = Stream(seed)
    clauses = []
    for clause in f.clauses:
        lits = []
        for lit in clause:
            a = lit.encoded_rhs()
            u = int(a * (v - 1))  # encoded side is u/(v-1), u in 0..v-2
            if stream.below(v) < u + 1:
                u += 1
            a_hi = Fraction(u, v)
            bound = a_hi if lit.rel is Rel.LE else ONE - a_hi
            lits.append(Literal(lit.var, lit.rel, bound))
        clauses.append(tuple(lits))
    high = Formula(f.k, f.n, tuple(clauses), Finite(v + 1), f.distinct_vars_per_clause)
    return CoupledPair(low=f, high=high)


def truncate_thresholds(f: Formula, lam: int) -> Formula:
    """Keep the first ``lam`` binary digits of every encoded side.

    The result lives over Dyadic(lam).  Truncation only ever strengthens a
    literal (<= bounds drop, >= bounds rise), so satisfiability at lam
    implies satisfiability at every lam' >= lam under shared bit streams.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    scale = 1 << lam
    clauses = []
    for clause in f.clauses:
        lits = []
        for lit in clause:
            a = lit.encoded_rhs()
            a_t = Fraction((a.numerator * scale) // a.denominator, scale)
            bound = a_t if lit.rel is Rel.LE else ONE - a_t
            lits.append(Literal(lit.var, lit.rel, bound))
        clauses.append(tuple(lits))
    return Formula(f.k, f.n, tuple(clauses), Dyadic(lam), f.distinct_vars_per_clause)


def _common_prefix_bits(x: Fraction, y: Fraction) -> int:
    """Number of leading binary digits on which x, y in [0, 1) agree."""
    bits = 0
    while True:
        shift = 1 << (bits + 1)
        if (x.numerator * shift) // x.denominator != (y.numerator * shift) // y.denominator:
            return bits
        bits += 1


def min_safe_lambda(f: Formula) -> int:
    """Smallest truncation depth that provably preserves satisfiability.

    Computed over the complement-closed set of encoded sides
    S = {a} union {1-a}: the largest number of leading bits shared by any
    two distinct values of S, plus one.  Closure under a -> 1-a is needed
    because >=-literals compare through their direct bound 1-a; without it
    a cross pair like sides {0.011, 0.110} would truncate to disjointness.
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
    side_set = set(sides)
    closed = sorted(side_set | {ONE - a for a in side_set})
    if len(closed) <= 1:
        return 1 if closed else 0
    worst = 0
    for x, y in zip(closed, closed[1:]):
        worst = max(worst, _common_prefix_bits(x, y))
    return worst + 1
