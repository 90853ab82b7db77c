"""Bit-exact text formats for formulas and certificates.

Formula files::

    c free-form comment
    p rsat <k> <n> <m> <vspec>
    <var>:<le|ge>:<num>/<den>  ...   (exactly k literal tokens per line,
    ...                               exactly m clause lines)

with ``<vspec>`` one of ``finite:<v>``, ``dyadic:<lambda>``,
``continuous``.  Fractions must be in lowest terms with positive
denominator; innocuous literals, bounds outside the header's value set,
out-of-range variables and wrong-arity clauses are rejected with the
offending line number.

Certificate files::

    cert bicycle <ell> <i0> <i1>          cert snake <ell>
    <clause_index> <lit> <lit>            <clause_index> <lit> <lit>
    ... (ell+1 chain lines, clause indices 0-based into the formula)

Rendering then parsing reproduces every object exactly (the formula's
model-provenance flag is recomputed, not stored, and is excluded from
equality).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .certificates import Bicycle, Snake
from .errors import ParseError
from .formula import (
    CONTINUOUS,
    Clause,
    Dyadic,
    Finite,
    Formula,
    Literal,
    Rel,
    TruthValueSpec,
    on_grid,
    vspec_grid,
)

_RELS = {"le": Rel.LE, "ge": Rel.GE}


def vspec_to_token(vspec: TruthValueSpec) -> str:
    if isinstance(vspec, Finite):
        return f"finite:{vspec.v}"
    if isinstance(vspec, Dyadic):
        return f"dyadic:{vspec.lam}"
    return "continuous"


def vspec_from_token(token: str, line: int | None = None) -> TruthValueSpec:
    if token == "continuous":
        return CONTINUOUS
    kind, sep, arg = token.partition(":")
    if sep:
        try:
            value = int(arg)
        except ValueError:
            raise ParseError(f"bad truth-value-set parameter {arg!r}", line) from None
        try:
            if kind == "finite":
                return Finite(value)
            if kind == "dyadic":
                return Dyadic(value)
        except ValueError as exc:
            raise ParseError(str(exc), line) from None
    raise ParseError(f"unknown truth-value set {token!r}", line)


def literal_to_token(lit: Literal) -> str:
    return f"{lit.var}:{lit.rel.value}:{lit.bound.numerator}/{lit.bound.denominator}"


def literal_from_token(token: str, line: int | None = None) -> Literal:
    parts = token.split(":")
    if len(parts) != 3:
        raise ParseError(f"bad literal token {token!r}", line)
    var_s, rel_s, frac_s = parts
    try:
        var = int(var_s)
    except ValueError:
        raise ParseError(f"bad variable index {var_s!r}", line) from None
    rel = _RELS.get(rel_s)
    if rel is None:
        raise ParseError(f"bad relation {rel_s!r} (expected le or ge)", line)
    num_s, sep, den_s = frac_s.partition("/")
    if not sep:
        raise ParseError(f"bad fraction {frac_s!r} (expected num/den)", line)
    try:
        num, den = int(num_s), int(den_s)
    except ValueError:
        raise ParseError(f"bad fraction {frac_s!r}", line) from None
    if den <= 0:
        raise ParseError(f"fraction denominator must be positive in {frac_s!r}", line)
    if num < 0:
        raise ParseError(f"fraction must be nonnegative in {frac_s!r}", line)
    if math.gcd(num, den) != 1:
        raise ParseError(f"fraction {frac_s!r} is not in lowest terms", line)
    try:
        return Literal(var, rel, Fraction(num, den))
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


# ---------------------------------------------------------------------------
# Formulas


def _content_lines(text: str):
    """(line number, stripped line) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("c ") and line != "c":
            yield lineno, line


def render_formula(f: Formula) -> str:
    lines = [f"p rsat {f.k} {f.n} {f.m} {vspec_to_token(f.vspec)}"]
    for clause in f.clauses:
        lines.append(" ".join(literal_to_token(lit) for lit in clause))
    return "\n".join(lines) + "\n"


def parse_formula(text: str) -> Formula:
    header = None
    clauses: list[Clause] = []
    k = n = m = 0
    vspec: TruthValueSpec = CONTINUOUS
    grid = 0
    for lineno, line in _content_lines(text):
        if header is None:
            fields = line.split()
            if len(fields) != 6 or fields[0] != "p" or fields[1] != "rsat":
                raise ParseError("expected header 'p rsat <k> <n> <m> <vspec>'", lineno)
            try:
                k, n, m = int(fields[2]), int(fields[3]), int(fields[4])
            except ValueError:
                raise ParseError("header k, n, m must be integers", lineno) from None
            vspec = vspec_from_token(fields[5], lineno)
            grid = vspec_grid(vspec)
            header = lineno
            continue
        tokens = line.split()
        if len(tokens) != k:
            raise ParseError(f"clause has {len(tokens)} literals, expected {k}", lineno)
        lits = []
        for token in tokens:
            lit = literal_from_token(token, lineno)
            if not (1 <= lit.var <= n):
                raise ParseError(f"variable x{lit.var} outside 1..{n}", lineno)
            if not on_grid(grid, lit.bound):
                raise ParseError(f"bound {lit.bound} not in V of {vspec}", lineno)
            lits.append(lit)
        clauses.append(tuple(lits))
    if header is None:
        raise ParseError("missing 'p rsat' header")
    if len(clauses) != m:
        raise ParseError(f"expected {m} clause lines, found {len(clauses)}", header)
    distinct = all(len({lit.var for lit in cl}) == len(cl) for cl in clauses)
    try:
        return Formula(k, n, tuple(clauses), vspec, distinct)
    except ValueError as exc:  # each clause passed its checks above: the header is at fault
        raise ParseError(str(exc), header) from None


# ---------------------------------------------------------------------------
# Certificates


def render_certificate(cert: Bicycle | Snake) -> str:
    if isinstance(cert, Bicycle):
        lines = [f"cert bicycle {cert.ell} {cert.i0} {cert.i1}"]
        links = zip(cert.literals[0::2], cert.literals[1::2])  # (f_i, t_{i+1})
    else:
        lines = [f"cert snake {cert.ell}"]
        links = cert.pairs
    for ci, (lead, trail) in zip(cert.clause_indices, links):
        lines.append(f"{ci} {literal_to_token(lead)} {literal_to_token(trail)}")
    return "\n".join(lines) + "\n"


def _parse_chain_lines(entries: list[tuple[int, str]], expected: int, header_line: int):
    if len(entries) != expected:
        raise ParseError(f"expected {expected} chain lines, found {len(entries)}", header_line)
    chain = []
    for lineno, line in entries:
        fields = line.split()
        if len(fields) != 3:
            raise ParseError("expected '<clause_index> <lit> <lit>'", lineno)
        try:
            ci = int(fields[0])
        except ValueError:
            raise ParseError(f"bad clause index {fields[0]!r}", lineno) from None
        lead = literal_from_token(fields[1], lineno)
        trail = literal_from_token(fields[2], lineno)
        chain.append((ci, lead, trail))
    return chain


def parse_certificate(text: str) -> Bicycle | Snake:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("missing 'cert' header")
    (header_line, first), *entries = lines
    header = first.split()
    if len(header) < 2 or header[0] != "cert" or header[1] not in ("bicycle", "snake"):
        raise ParseError("expected header 'cert bicycle ...' or 'cert snake ...'", header_line)

    if header[1] == "bicycle":
        if len(header) != 5:
            raise ParseError("expected 'cert bicycle <ell> <i0> <i1>'", header_line)
        try:
            ell, i0, i1 = int(header[2]), int(header[3]), int(header[4])
        except ValueError:
            raise ParseError("bicycle header fields must be integers", header_line) from None
        chain = _parse_chain_lines(entries, ell + 1, header_line)
        try:
            return Bicycle.from_links(chain, i0, i1)
        except ValueError as exc:  # the chain lines parsed: the header is at fault
            raise ParseError(str(exc), header_line) from None

    if len(header) != 3:
        raise ParseError("expected 'cert snake <ell>'", header_line)
    try:
        ell = int(header[2])
    except ValueError:
        raise ParseError("snake header field must be an integer", header_line) from None
    chain = _parse_chain_lines(entries, ell + 1, header_line)
    try:
        return Snake.from_links(chain)
    except ValueError as exc:
        raise ParseError(str(exc), header_line) from None
