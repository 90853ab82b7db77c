"""Bit-exact text formats for formulas and certificates.

Formula files::

    c free-form comment
    p rsat <k> <n> <m> <vspec>
    <var>:<le|ge>:<num>/<den>  ...   (exactly k literal tokens per line,
    ...                               exactly m clause lines)

with ``<vspec>`` one of ``finite:<v>``, ``dyadic:<lambda>``,
``continuous``.  Fractions must be in lowest terms with positive
denominator, and every integer is written as ``str(int(field))`` gives
it.  The literals of one file share one Fraction per bound text, so one
per distinct bound, and rendering writes each bound object's text once.
Clause lines, and the tokens of chain lines, are each read with one match
of a k-token pattern, compiled only once a line has k tokens, and their
literals are built in one checked `rsat.formula.literals` call.  When that
fails, the same reader takes one token at a time in file order, so the
first bad token, or an integer too long for ``int()``, names its line.
`Formula` checks the clause rules (width k, variables in 1..n, bounds in
V) and the parser names the offending line.  Errors come in this order:
token errors (innocuous literals among them) in file order, then the
first clause that breaks a clause rule, then a clause count other than
the header's m.

Certificate files::

    cert bicycle <ell> <i0> <i1>          cert snake <ell>
    <clause_index> <lit> <lit>            <clause_index> <lit> <lit>
    ... (ell+1 chain lines, clause indices 0-based into the formula)

Rendering then parsing reproduces every object exactly (the formula's
model-provenance flag is recomputed, not stored, and is excluded from
equality).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .certificates import Bicycle, Snake
from .errors import ParseError
from .formula import (
    CONTINUOUS,
    ClauseError,
    Continuous,
    Dyadic,
    Finite,
    Formula,
    Literal,
    Rel,
    TruthValueSpec,
    literals,
)

_CERT_HEADERS = {"bicycle": "cert bicycle <ell> <i0> <i1>", "snake": "cert snake <ell>"}

# an integer field is read only in the form str(int(field)) gives it: no
# sign "+", underscore, leading zero, "-0" or non-ASCII digit; a literal
# token's variable and denominator are positive, its numerator is not negative
_POS = "[1-9][0-9]*"
_INT_RE = re.compile(f"0|-?{_POS}")
_TOKEN = f"{_POS}:(?:le|ge):(?:0|{_POS})/{_POS}"


def _int(field: str, what: str, line: int | None) -> int:
    if _INT_RE.fullmatch(field) is None:
        raise ParseError(f"bad {what} {field!r} (expected a canonical integer)", line)
    try:
        return int(field)
    except ValueError as exc:  # longer than int()'s digit limit
        raise ParseError(str(exc), line) from None


def vspec_to_token(vspec: TruthValueSpec) -> str:
    if isinstance(vspec, Finite):
        return f"finite:{vspec.v}"
    if isinstance(vspec, Dyadic):
        return f"dyadic:{vspec.lam}"
    if isinstance(vspec, Continuous):
        return "continuous"
    raise TypeError(f"not a truth-value set: {vspec!r}")


def vspec_from_token(token: str, line: int | None = None) -> TruthValueSpec:
    if token == "continuous":
        return CONTINUOUS
    kind, sep, arg = token.partition(":")
    if sep:
        value = _int(arg, "truth-value-set parameter", line)
        try:
            if kind == "finite":
                return Finite(value)
            if kind == "dyadic":
                return Dyadic(value)
        except ValueError as exc:
            raise ParseError(str(exc), line) from None
    raise ParseError(f"unknown truth-value set {token!r}", line)


def _tokens(lits, texts: dict[int, str]) -> str:
    """The literals' tokens, space-separated.  ``texts`` maps id(bound) to
    its "num/den", so each bound object's text is written once per render
    (keyed by id, as Fraction.__hash__ is Python code)."""
    tokens = []
    for var, rel, bound in lits:
        text = texts.get(id(bound))
        if text is None:
            text = texts[id(bound)] = f"{bound.numerator}/{bound.denominator}"
        tokens.append(f"{var}:{'le' if rel is Rel.LE else 'ge'}:{text}")
    return " ".join(tokens)


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
    texts: dict[int, str] = {}
    lines.extend(_tokens(clause, texts) for clause in f.clauses)
    return "\n".join(lines) + "\n"


def _slots(lines: list[str]):
    """(var, rel, bound) lists of the slots of clause lines that hold only
    literal tokens, one Fraction per bound text.  A ValueError when a bound
    text is not in lowest terms or an integer is too long for int()."""
    # one relation digit per slot: split then makes no string for it
    fields = " ".join(lines).replace(":le:", " 0 ").replace(":ge:", " 1 ").split()
    values = {}
    for text in set(fields[2::3]):
        num, den = map(int, text.split("/"))
        bound = values[text] = Fraction(num, den)
        if bound.denominator != den:
            raise ValueError(f"fraction {text!r} is not in lowest terms")
    return (
        list(map(int, fields[0::3])),
        list(map({"0": Rel.LE, "1": Rel.GE}.__getitem__, fields[1::3])),
        list(map(values.__getitem__, fields[2::3])),
    )


def _read_clauses(lines: list[str], k: int) -> tuple[tuple, bool] | None:
    """(clauses, whether no clause repeats a variable) of clause lines that
    each hold k literal tokens and whose literals pass their checks; None
    when some line or literal does not."""
    if not lines:
        return (), True
    if len(lines[0].split()) != k:  # compile no pattern for a k that no line has
        return None
    # one match per line; re caches the compiled pattern per k
    if not all(map(re.compile(rf"{_TOKEN}(?:\s+{_TOKEN}){{{k - 1}}}").fullmatch, lines)):
        return None
    try:
        var, rel, bound = _slots(lines)
        lits = literals(var, rel, bound)
    except ValueError:  # read again a token at a time, which names the line
        return None
    distinct = all(map(k.__eq__, map(len, map(set, zip(*[iter(var)] * k)))))
    return tuple(zip(*[iter(lits)] * k)), distinct


def _line_literals(tokens: list[str], line: int) -> list[Literal]:
    """The literals of one line's tokens, each read alone and in order by the
    bulk reader, so the first bad token raises its error with the line."""
    lits = []
    for token in tokens:
        if re.fullmatch(_TOKEN, token) is None:
            raise ParseError(
                f"bad literal token {token!r} (expected <var>:<le|ge>:<num>/<den> in canonical"
                " integers, with <var> and <den> positive)",
                line,
            )
        try:
            lits += literals(*_slots([token]))
        except ValueError as exc:
            raise ParseError(str(exc), line) from None
    return lits


def _clause_rows(text: str) -> list[tuple[int, str]]:
    """(line number, line) of each clause line: the content after the header.
    Read again only on an error, so a valid file keeps no row per line."""
    return list(_content_lines(text))[1:]


def parse_formula(text: str) -> Formula:
    lines = _content_lines(text)
    header, line = next(lines, (None, ""))
    if header is None:
        raise ParseError("missing 'p rsat' header")
    fields = line.split()
    if len(fields) != 6 or fields[0] != "p" or fields[1] != "rsat":
        raise ParseError("expected header 'p rsat <k> <n> <m> <vspec>'", header)
    k, n, m = (_int(field, "header field", header) for field in fields[2:5])
    vspec = vspec_from_token(fields[5], header)
    read = _read_clauses([line for _, line in lines], k)
    if read is None:  # a token at a time, which raises the first token error
        rows = _clause_rows(text)
        clauses = tuple(tuple(_line_literals(line.split(), lineno)) for lineno, line in rows)
        read = clauses, all(len({lit.var for lit in clause}) == len(clause) for clause in clauses)
    clauses, distinct = read
    try:
        f = Formula(k, n, clauses, vspec, distinct)
    except ClauseError as exc:
        raise ParseError(exc.reason, _clause_rows(text)[exc.index][0]) from None
    except ValueError as exc:  # no clause is at fault: the header is
        raise ParseError(str(exc), header) from None
    if f.m != m:
        raise ParseError(f"expected {m} clause lines, found {f.m}", header)
    return f


# ---------------------------------------------------------------------------
# Certificates


def render_certificate(cert: Bicycle | Snake) -> str:
    if isinstance(cert, Bicycle):
        lines = [f"cert bicycle {cert.ell} {cert.i0} {cert.i1}"]
    else:
        lines = [f"cert snake {cert.ell}"]
    texts: dict[int, str] = {}
    for ci, pair in zip(cert.clause_indices, cert.pairs):
        lines.append(f"{ci} {_tokens(pair, texts)}")
    return "\n".join(lines) + "\n"


def _parse_chain_lines(entries: list[tuple[int, str]], expected: int, header_line: int):
    """(pairs, clause_indices) of the chain lines after a certificate header.
    The literals are read in bulk; when that fails, the lines are read again
    one at a time, which raises the first error in file order (per line: the
    field count, then the clause index, then the tokens)."""
    if len(entries) != expected:
        raise ParseError(f"expected {expected} chain lines, found {len(entries)}", header_line)
    rows = [line.split(None, 1) for _, line in entries]
    read = _read_clauses([row[-1] for row in rows], 2)
    if read is None:
        pairs = []
        for lineno, line in entries:
            fields = line.split()
            if len(fields) != 3:
                raise ParseError("expected '<clause_index> <lit> <lit>'", lineno)
            _int(fields[0], "clause index", lineno)
            pairs.append(tuple(_line_literals(fields[1:], lineno)))
        read = tuple(pairs), False
    indices = (_int(row[0], "clause index", lineno) for (lineno, _), row in zip(entries, rows))
    return read[0], tuple(indices)


def parse_certificate(text: str) -> Bicycle | Snake:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("missing 'cert' header")
    (header_line, first), *entries = lines
    header = first.split()
    usage = _CERT_HEADERS.get(header[1]) if len(header) >= 2 and header[0] == "cert" else None
    if usage is None:
        raise ParseError("expected header 'cert bicycle ...' or 'cert snake ...'", header_line)
    if len(header) != len(usage.split()):
        raise ParseError(f"expected {usage!r}", header_line)
    ell, *ends = (_int(field, f"{header[1]} header field", header_line) for field in header[2:])
    kind = Bicycle if header[1] == "bicycle" else Snake
    try:  # before the chain lines are counted, which a negative ell would miscount
        kind.check_ell(ell)
    except ValueError as exc:
        raise ParseError(str(exc), header_line) from None
    pairs, clause_indices = _parse_chain_lines(entries, ell + 1, header_line)
    return kind(pairs, *ends, clause_indices)
