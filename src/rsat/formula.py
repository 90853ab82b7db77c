"""Exact representation and semantics of regular signed k-SAT formulas.

A formula is a conjunction of clauses; a clause is a disjunction of exactly
``k`` inequality literals ``x <= a`` or ``x >= a`` with ``a`` drawn from an
ordered truth-value set ``V`` inside the unit interval.  All thresholds are
exact rationals (`fractions.Fraction`), so comparisons, ties and ordering
are reproducible bit for bit; no floating point enters the semantics.
The checks read a bound's integer numerator and denominator (a Fraction is
in lowest terms with a positive denominator), so each is an exact integer
test, and a bound without them, such as a float, is a TypeError; so is a
variable index, k, n, v or lam that is not exactly an int (a bool is not),
and a V that is not a Finite, Dyadic or Continuous.  Each rule is checked
once: a `Literal` checks its variable, relation and bound range, and a
`Formula` only what needs k, n or V (the width, x <= n, a bound denominator
that divides V's grid, and repeats where they are forbidden).

A `Literal` is an immutable, checked ``(var, rel, bound)`` tuple: it
compares and hashes like that plain tuple (so it equals one with the same
fields) and unpacks as ``var, rel, bound = lit``.  Every way to build one
(the constructor, ``_replace``, ``_make``, pickle, ``copy``) runs the
constructor's checks; :func:`literals` runs the same checks in bulk,
once per distinct bound object, for the sampler and the parser.

Truth-value sets come in three families:

* ``Finite(v)``   -- V = {u/(v-1) : u = 0..v-1}, v >= 2;
* ``Dyadic(lam)`` -- V = {u/2^lam : u = 0..2^lam}, i.e. 2^lam + 1 values;
* ``Continuous``  -- V = [0, 1].

All families are symmetric (V = 1 - V) and contain 0 and 1.

Literals store their bound directly: ``Literal(j, Rel.GE, b)`` means
``x_j >= b``.  Samplers that draw a right-hand side ``a`` for a ``>=``
relation perform the ``b = 1 - a`` flip once at sampling time, so nothing
downstream ever needs to undo an encoding.  The *innocuous* literals
``x <= 1`` and ``x >= 0`` (satisfied by every value) are rejected at
construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

from .errors import MissingAssignment

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Truth-value sets


def _not_int(what: str, x) -> TypeError:
    return TypeError(f"{what} must be an int, got {type(x).__name__}")


@dataclass(frozen=True)
class Finite:
    v: int

    def __post_init__(self):
        if type(self.v) is not int:
            raise _not_int("Finite v", self.v)
        if self.v < 2:
            raise ValueError(f"Finite truth-value set needs v >= 2, got {self.v}")


@dataclass(frozen=True)
class Dyadic:
    lam: int

    def __post_init__(self):
        if type(self.lam) is not int:
            raise _not_int("Dyadic lam", self.lam)
        if self.lam < 0:
            raise ValueError(f"Dyadic truth-value set needs lam >= 0, got {self.lam}")


@dataclass(frozen=True)
class Continuous:
    pass


TruthValueSpec = Union[Finite, Dyadic, Continuous]

CONTINUOUS = Continuous()


def vspec_grid(vspec: TruthValueSpec) -> int:
    """The grid g of V: v-1 for Finite(v), 2^lam for Dyadic(lam), 0 for
    Continuous; any other object is a TypeError.

    A finite or dyadic V is {u/g : u = 0..g}.  A bound in [0, 1] lies in V
    iff its reduced denominator divides g; every denominator divides 0, so
    the continuous set needs only the range check.
    """
    if isinstance(vspec, Finite):
        return vspec.v - 1
    if isinstance(vspec, Dyadic):
        return 1 << vspec.lam
    if isinstance(vspec, Continuous):
        return 0
    raise TypeError(f"not a truth-value set: {vspec!r}")


def _not_rational(x) -> TypeError:
    return TypeError(f"bound must be an exact rational (Fraction or int), got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Literals, clauses, formulas


class Rel(enum.Enum):
    LE = "le"
    GE = "ge"

    def __repr__(self):  # noqa: D105 - compact reprs help test output
        return self.value


class _LiteralFields(NamedTuple):
    var: int
    rel: Rel
    bound: Fraction


class Literal(_LiteralFields):
    """Inequality literal on variable ``var`` (1-based): value REL bound."""

    __slots__ = ()

    def __new__(cls, var: int, rel: Rel, bound: Fraction):
        if type(var) is not int:
            raise _not_int("variable index", var)
        if var < 1:
            raise ValueError(f"variable index must be >= 1, got {var}")
        if type(rel) is not Rel:
            raise TypeError(f"relation must be a Rel, got {type(rel).__name__}")
        try:
            num, den = bound.numerator, bound.denominator
        except AttributeError:
            raise _not_rational(bound) from None
        if not 0 <= num <= den:
            raise ValueError(f"bound outside [0, 1]: {bound}")
        if (rel is Rel.LE and num == den) or (rel is Rel.GE and num == 0):
            raise ValueError("innocuous literal (x <= 1 or x >= 0) is forbidden")
        return tuple.__new__(cls, (var, rel, bound))

    @classmethod
    def _make(cls, iterable):  # namedtuple's _replace builds through it
        return cls(*iterable)

    def encoded_rhs(self) -> Fraction:
        """Right-hand side in the sampling encoding: bound for <=, 1-bound for >=.

        Always lies in V \\ {1}; the encoded side is what the value-set
        couplings rescale, bump and truncate.  For both relations a smaller
        encoded side is a tighter literal, so a coupling weakens a literal
        exactly when it raises the encoded side.
        """
        return self.bound if self.rel is Rel.LE else ONE - self.bound

    def __repr__(self):
        op = "<=" if self.rel is Rel.LE else ">="
        return f"(x{self.var} {op} {self.bound})"


def _pass_in_bulk(var: list, rel: list, bound: list) -> bool:
    """True only if every ``Literal(*t) for t in zip(var, rel, bound)`` passes
    the constructor's checks; False also for input it leaves to them."""
    from itertools import compress, repeat
    from operator import is_

    if var and (set(map(type, var)) != {int} or min(var) < 1):
        return False
    if not set(map(type, rel)) <= {Rel}:
        return False
    objects = dict(zip(map(id, bound), bound))  # each distinct bound object once
    if not set(map(type, objects.values())) <= {int, Fraction}:
        return False
    ones, zeros = set(), set()  # ids of the bounds at 1 and at 0
    for key, b in objects.items():
        num, den = b.numerator, b.denominator
        if not 0 <= num <= den:
            return False
        if num == den:
            ones.add(key)
        elif not num:
            zeros.add(key)
    le = map(id, compress(bound, map(is_, rel, repeat(Rel.LE))))  # read lazily
    ge = map(id, compress(bound, map(is_, rel, repeat(Rel.GE))))
    # no innocuous x <= 1 or x >= 0
    return (not ones or ones.isdisjoint(le)) and (not zeros or zeros.isdisjoint(ge))


def literals(var: list, rel: list, bound: list) -> list[Literal]:
    """``[Literal(*t) for t in zip(var, rel, bound)]``, checked in bulk: the
    same list, or the same first error.

    The variables are checked by their set of types and their minimum, the
    relations by their set of types, and each distinct bound object once: an
    exact int or Fraction in [0, 1], where one at 1 carries no <= literal and
    one at 0 no >= literal.  Input that fails a bulk check goes through the
    constructor, so an error is the first literal's.
    """
    from itertools import repeat

    if not _pass_in_bulk(var, rel, bound):
        return [Literal(*t) for t in zip(var, rel, bound)]
    return list(map(tuple.__new__, repeat(Literal), zip(var, rel, bound)))


Clause = tuple[Literal, ...]

Interpretation = Mapping[int, Fraction]


class ClauseError(ValueError):
    """Clause ``index`` of a formula breaks a clause rule; ``reason`` says which."""

    def __init__(self, index: int, reason: str):
        super().__init__(index, reason)  # both in args, so the error pickles
        self.index, self.reason = index, reason

    def __str__(self):
        return f"clause {self.index}: {self.reason}"


@dataclass(frozen=True)
class Formula:
    """A regular signed k-SAT formula: conjunction of m width-k clauses.

    ``distinct_vars_per_clause`` records which sampling model produced the
    formula (True: clause variables forced distinct; False: repeats
    allowed).  It is provenance metadata and excluded from equality.
    """

    k: int
    n: int
    clauses: tuple[Clause, ...]
    vspec: TruthValueSpec
    distinct_vars_per_clause: bool = field(default=False, compare=False)

    def __post_init__(self):
        if type(self.k) is not int:
            raise _not_int("clause width k", self.k)
        if type(self.n) is not int:
            raise _not_int("variable count", self.n)
        if type(self.distinct_vars_per_clause) is not bool:
            raise TypeError(
                "distinct_vars_per_clause must be a bool,"
                f" got {type(self.distinct_vars_per_clause).__name__}"
            )
        if self.k < 2:
            raise ValueError(f"clause width k must be >= 2, got {self.k}")
        if self.n < 0:
            raise ValueError(f"variable count must be >= 0, got {self.n}")
        grid = vspec_grid(self.vspec)
        for ci, clause in enumerate(self.clauses):
            if len(clause) != self.k:
                raise ClauseError(ci, f"width {len(clause)}, expected k = {self.k}")
            seen = set()
            for lit in clause:  # a Literal has checked var >= 1 and 0 <= bound <= 1
                if lit.var > self.n:
                    raise ClauseError(ci, f"variable x{lit.var} outside 1..{self.n}")
                if grid % lit.bound.denominator:
                    raise ClauseError(ci, f"bound {lit.bound} not in V of {self.vspec}")
                if self.distinct_vars_per_clause:
                    if lit.var in seen:
                        raise ClauseError(ci, f"repeated variable x{lit.var}")
                    seen.add(lit.var)

    @property
    def m(self) -> int:
        return len(self.clauses)


# ---------------------------------------------------------------------------
# Semantics


def eval_literal(lit: Literal, value: Fraction) -> bool:
    """Closed-half-line semantics: boundary values satisfy the literal."""
    if lit.rel is Rel.LE:
        return value <= lit.bound
    return value >= lit.bound


def eval_formula(f: Formula, interp: Interpretation) -> bool:
    """True iff every clause has at least one satisfied literal.

    Raises MissingAssignment when any variable occurring in the formula
    has no value, even if short-circuiting would never read it.
    """
    for clause in f.clauses:
        for lit in clause:
            if lit.var not in interp:
                raise MissingAssignment(f"no value for variable x{lit.var}")
    for clause in f.clauses:
        sat = False
        for lit in clause:
            if eval_literal(lit, interp[lit.var]):
                sat = True
                break
        if not sat:
            return False
    return True


def signs_disjoint(l1: Literal, l2: Literal) -> bool:
    """True iff no value of V satisfies both literals.

    With closed half-lines this happens exactly when the relations differ
    and the >=-bound strictly exceeds the <=-bound; a tie (equal bounds) is
    satisfied by the shared boundary point.
    """
    if l1.rel is l2.rel:
        return False
    le, ge = (l1, l2) if l1.rel is Rel.LE else (l2, l1)
    return ge.bound > le.bound

