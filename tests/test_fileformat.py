import copy
import cProfile
import pickle
import pstats
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsat
from rsat import (
    CONTINUOUS,
    Dyadic,
    Finite,
    GenConfig,
    ParseError,
    parse_certificate,
    parse_formula,
    render_certificate,
    render_formula,
    sample_formula,
    vspec_from_token,
    vspec_to_token,
)


def test_vspec_tokens():
    assert vspec_to_token(Finite(5)) == "finite:5"
    assert vspec_to_token(Dyadic(3)) == "dyadic:3"
    assert vspec_to_token(CONTINUOUS) == "continuous"
    assert vspec_from_token("finite:5") == Finite(5)
    assert vspec_from_token("dyadic:0") == Dyadic(0)
    assert vspec_from_token("continuous") == CONTINUOUS
    for bad in ("finite", "finite:x", "finite:1", "dyadic:-2", "interval", ""):
        with pytest.raises(ParseError):
            vspec_from_token(bad)


@pytest.mark.parametrize("vspec", ["finite:3", None], ids=["token", "None"])
def test_only_a_value_set_has_a_token(vspec):
    # only CONTINUOUS renders as "continuous"
    with pytest.raises(TypeError, match="^not a truth-value set: "):
        vspec_to_token(vspec)


@pytest.mark.parametrize(
    "vspec", [Finite(2), Finite(7), Dyadic(0), Dyadic(4), CONTINUOUS]
)
def test_formula_round_trip(vspec):
    f = sample_formula(GenConfig(k=3, n=9, m=15, vspec=vspec, seed=7))
    text = render_formula(f)
    again = parse_formula(text)
    assert again == f
    assert render_formula(again) == text


def test_formula_round_trip_distinct_model():
    f = sample_formula(GenConfig(k=2, n=9, m=15, seed=8, distinct_vars_per_clause=True))
    again = parse_formula(render_formula(f))
    assert again == f
    assert again.distinct_vars_per_clause  # recomputed from the clauses


def test_formula_survives_pickle_deepcopy_and_text():
    f = sample_formula(GenConfig(k=2, n=20, m=40, vspec=Finite(5), seed=3))
    for again in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f),
                  parse_formula(render_formula(f))):
        assert again == f and type(again.clauses[0][0]) is rsat.Literal


def test_equal_bounds_render_alike_whether_shared_or_not():
    f = sample_formula(GenConfig(k=2, n=20, m=40, vspec=Finite(5), seed=3))
    unshared = tuple(tuple(lit._replace(bound=F(lit.bound.numerator, lit.bound.denominator))
                           for lit in clause) for clause in f.clauses)
    g = rsat.Formula(f.k, f.n, unshared, f.vspec)
    assert g.clauses[0][0].bound is not f.clauses[0][0].bound
    assert render_formula(g) == render_formula(f)


@st.composite
def formulas(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=6))
    denominators = st.integers(min_value=1, max_value=60)

    def literal():
        var = draw(st.integers(min_value=1, max_value=n))
        rel = draw(st.sampled_from([rsat.Rel.LE, rsat.Rel.GE]))
        den = draw(denominators)
        if rel is rsat.Rel.LE:
            num = draw(st.integers(min_value=0, max_value=den - 1))
        else:
            num = draw(st.integers(min_value=1, max_value=den))
        return rsat.Literal(var, rel, F(num, den))

    clauses = tuple(tuple(literal() for _ in range(k)) for _ in range(m))
    return rsat.Formula(k, n, clauses, CONTINUOUS)


@given(formulas())
@settings(max_examples=150, deadline=None)
def test_round_trip_arbitrary_formulas(f):
    text = render_formula(f)
    again = parse_formula(text)
    assert again == f
    assert render_formula(again) == text


def test_parse_accepts_comments_and_blank_lines():
    text = "c a comment\n\np rsat 2 2 1 continuous\nc another\n1:le:1/2 2:ge:1/2\n"
    f = parse_formula(text)
    assert f.m == 1 and f.n == 2


def _base_text():
    return "p rsat 2 2 2 continuous\n1:le:1/2 2:ge:1/2\n2:le:1/4 1:ge:3/4\n"


@pytest.mark.parametrize(
    "mutation, line",
    [
        (lambda t: t.replace("1:le:1/2", "1:le:1/1"), 2),  # innocuous
        (lambda t: t.replace("2:ge:1/2", "2:ge:0/1"), 2),  # innocuous
        (lambda t: t.replace("1:le:1/2", "3:le:1/2"), 2),  # out of range
        (lambda t: t.replace("1:le:1/2", "1:le:2/4"), 2),  # not reduced
        (lambda t: t.replace("1:le:1/2", "1:le:1/0"), 2),  # zero denominator
        (lambda t: t.replace("1:le:1/2 ", ""), 2),  # wrong arity
        (lambda t: t.replace("2:le:1/4 1:ge:3/4\n", ""), None),  # clause count
        (lambda t: t.replace("le", "lt"), 2),  # unknown relation
        # integer fields only in the form str(int(field)) gives them
        (lambda t: t.replace("1:le:1/2", "+1:le:1/2"), 2),
        (lambda t: t.replace("2:ge:1/2", "\u0662:ge:1/2"), 2),  # ARABIC-INDIC DIGIT TWO
        (lambda t: t.replace("2:ge:1/2", "2:ge:01/2"), 2),
        (lambda t: t.replace("1:le:1/2", "1:le:1/0_2"), 2),
        (lambda t: t.replace("p rsat 2 2 2", "p rsat 2 0_2 2"), 1),
        (lambda t: t.replace("p rsat 2 2 2", "p rsat 02 2 2"), 1),
        (lambda t: t.replace("p rsat 2 2 2", "p rsat 2 2 \u0662"), 1),
        (lambda t: t.replace("continuous", "finite:+3"), 1),
        # a bad clause is reported ahead of a wrong clause count
        (lambda t: t.replace("p rsat 2 2 2", "p rsat 2 2 5").replace("1:ge:3/4", "3:ge:3/4"), 3),
    ],
)
def test_parse_rejections_carry_line_numbers(mutation, line):
    with pytest.raises(ParseError) as err:
        parse_formula(mutation(_base_text()))
    if line is None:  # no clause line is at fault: the error points at the header's m
        line = 1
    assert err.value.line == line
    assert f"line {line}" in str(err.value)


def test_parse_header_errors():
    for text in ("", "p rsat 2 2 continuous\n", "p cnf 2 2 2 continuous\n", "junk\n"):
        with pytest.raises(ParseError):
            parse_formula(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("c x\np rsat 1 2 0 continuous\n", "clause width k must be >= 2, got 1"),
        ("c x\np rsat 2 -1 0 continuous\n", "variable count must be >= 0, got -1"),
        # the header's k, not the clause after it, is at fault
        ("c x\np rsat 1 2 1 continuous\n1:le:1/2 2:ge:1/2\n", "clause width k must be >= 2, got 1"),
        ("c x\np rsat 0 2 1 continuous\n1:le:1/2 2:ge:1/2\n", "clause width k must be >= 2, got 0"),
    ],
)
def test_header_value_errors_carry_header_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.line == 2
    assert message in str(err.value)


def test_parse_bound_outside_v():
    text = "p rsat 2 2 2 finite:3\n1:le:1/2 2:ge:1/2\n1:le:1/3 2:ge:1/2\n"
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.line == 3
    assert "line 3" in str(err.value) and "bound 1/3 not in V of Finite(v=3)" in str(err.value)


def _calls(profile, fn) -> int:
    """Calls of the Python function ``fn`` a cProfile run recorded."""
    stats = pstats.Stats(profile).stats  # (file, line, name) -> (cc, ncalls, ...)
    code = fn.__code__
    return stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]


def _fraction_count(profile) -> int:
    """Fraction constructions a cProfile run recorded."""
    stats = pstats.Stats(profile).stats  # (file, line, name) -> (cc, ncalls, ...)
    return sum(s[1] for key, s in stats.items()
               if key[0].endswith("fractions.py") and key[2] == "__new__")


def test_parse_checks_each_bound_once():
    f = sample_formula(GenConfig(k=3, n=9, m=15, vspec=Finite(5), seed=7))
    profile = cProfile.Profile()
    assert profile.runcall(parse_formula, render_formula(f)) == f
    assert _calls(profile, rsat.Formula.__post_init__) == 1
    # a valid file's literals are built in one bulk call, without the constructor
    assert _calls(profile, rsat.formula.literals) == 1
    assert _calls(profile, rsat.Literal.__new__) == 0
    bounds = {lit.bound for clause in f.clauses for lit in clause}
    assert _fraction_count(profile) == len(bounds)


def test_sample_builds_each_literal_once_and_one_fraction_per_bound():
    cfg = GenConfig(k=3, n=9, m=15, vspec=Finite(5), seed=7)
    profile = cProfile.Profile()
    f = profile.runcall(sample_formula, cfg)
    assert _calls(profile, rsat.Formula.__post_init__) == 1
    assert _calls(profile, rsat.formula.literals) == 1  # one bulk build, no constructor
    assert _calls(profile, rsat.Literal.__new__) == 0
    bounds = {lit.bound for clause in f.clauses for lit in clause}
    assert _fraction_count(profile) == len(bounds)


def _fractions_built(fn, *args):
    """(result, number of Fraction constructions) of fn(*args)."""
    profile = cProfile.Profile()
    return profile.runcall(fn, *args), _fraction_count(profile)


@pytest.mark.parametrize("vspec, per_formula", [(Finite(5), 5), (CONTINUOUS, None)])
def test_sample_and_parse_build_one_fraction_per_value(vspec, per_formula):
    # k*m = 45 >= |V| = 5: one shared Fraction per value; a continuous V has
    # no table, so one Fraction per slot
    cfg = GenConfig(k=3, n=9, m=15, vspec=vspec, seed=7)
    f, sampled = _fractions_built(sample_formula, cfg)
    again, parsed = _fractions_built(parse_formula, render_formula(f))
    assert again == f
    if per_formula is None:
        assert sampled == parsed == f.k * f.m
    else:
        assert sampled <= per_formula and parsed <= per_formula


def test_a_large_header_m_builds_no_values_up_front():
    # k*m comes from the header, which is checked only after the clauses, so
    # the shared values are the ones the tokens name, not all of V
    text = "p rsat 2 1 1000000 dyadic:20\n1:le:0/1 1:ge:1/1\n"
    profile = cProfile.Profile()
    with pytest.raises(ParseError, match="expected 1000000 clause lines, found 1"):
        profile.runcall(parse_formula, text)
    assert _fraction_count(profile) == 2


# (V, k, m) with |V| just below, at and just above k*m
_TABLE_EDGES = [
    (Finite(7), 2, 4), (Finite(8), 2, 4), (Finite(9), 2, 4),
    (Dyadic(3), 2, 5), (Dyadic(3), 3, 3), (Dyadic(3), 2, 4),
]


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("vspec, k, m", _TABLE_EDGES)
def test_round_trip_at_the_shared_value_edge(vspec, k, m, distinct):
    f = sample_formula(GenConfig(k=k, n=6, m=m, vspec=vspec, seed=11,
                                 distinct_vars_per_clause=distinct))
    text = render_formula(f)
    again = parse_formula(text)
    assert again == f and render_formula(again) == text
    for g in (f, again):
        objects = len({id(lit.bound) for clause in g.clauses for lit in clause})
        assert objects == len({lit.bound for clause in g.clauses for lit in clause})


def test_a_repeated_continuous_bound_text_parses_to_one_object():
    f = parse_formula("p rsat 2 2 1 continuous\n1:le:1/3 2:le:1/3\n")
    (a, b), = f.clauses
    assert a.bound == F(1, 3) and a.bound is b.bound


_FINITE5 = "p rsat 2 3 3 finite:5\n1:le:1/4 2:ge:1/1\n2:le:3/4 3:ge:1/4\n3:le:1/2 1:ge:3/4\n"


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("1:le:1/4", "1:le:2/8", 2, "fraction '2/8' is not in lowest terms"),
        ("3:ge:1/4", "3:ge:1/3", 3, "bound 1/3 not in V of Finite(v=5)"),
        # 1/1 was read on line 2, so this token's bound comes from the shared dict
        ("1:ge:3/4", "1:le:1/1", 4, "innocuous literal (x <= 1 or x >= 0) is forbidden"),
    ],
)
def test_shared_value_rejections_name_their_line(old, new, line, message):
    # k*m = 6 >= |V| = 5 shares values; the same lines under m = 2 (k*m = 4 < 5)
    # take the per-slot path and must fail the same way, ahead of the clause count
    errors = []
    for header in ("p rsat 2 3 3 finite:5", "p rsat 2 3 2 finite:5"):
        with pytest.raises(ParseError) as err:
            parse_formula(_FINITE5.replace(old, new).replace("p rsat 2 3 3 finite:5", header))
        errors.append(str(err.value))
        assert err.value.line == line and message in str(err.value)
    assert errors[0] == errors[1]


_AFTER_WIDTH = "p rsat 2 3 3 finite:5\n1:le:1/4 2:ge:1/4\n2:le:3/4\n3:le:1/2 1:ge:3/4\n"


@pytest.mark.parametrize(
    "new, line, message",
    [
        ("1:ge:3/4", 3, "width 1, expected k = 2"),
        ("1:le:1/1", 4, "innocuous literal (x <= 1 or x >= 0) is forbidden"),
        ("1:ge:5/4", 4, "bound outside [0, 1]: 5/4"),
        ("1:ge:6/8", 4, "fraction '6/8' is not in lowest terms"),
    ],
    ids=["width", "innocuous", "out-of-range", "not-reduced"],
)
def test_a_token_error_after_a_wrong_width_line_names_its_own_line(new, line, message):
    # line 3 breaks a clause rule, which comes after every token error
    with pytest.raises(ParseError) as err:
        parse_formula(_AFTER_WIDTH.replace("1:ge:3/4", new))
    assert err.value.line == line and message in str(err.value)


@pytest.mark.parametrize(
    "clauses, line, message",
    [
        ("1:le:2/4 2:ge:1/4\n2:le:3/4 3:lt:1/4\n", 2, "fraction '2/4' is not in lowest terms"),
        ("1:le:2/4 2:ge:x\n2:le:3/4 3:ge:1/4\n", 2, "fraction '2/4' is not in lowest terms"),
        ("1:le:x 2:ge:2/4\n2:le:3/4 3:ge:1/4\n", 2, "bad literal token '1:le:x'"),
        ("1:le:1/4 2:ge:1/4\n2:le:4/2 3:le:1/1\n", 3, "fraction '4/2' is not in lowest terms"),
    ],
    ids=["earlier-line", "earlier-token", "later-token", "before-innocuous"],
)
def test_token_errors_come_in_file_order(clauses, line, message):
    with pytest.raises(ParseError) as err:
        parse_formula("p rsat 2 3 2 finite:5\n" + clauses)
    assert err.value.line == line and message in str(err.value)


@pytest.mark.parametrize("gap", ["\t", "   ", " \t ", "\u2003", "\xa0\t"],
                         ids=["tab", "spaces", "mixed", "em-space", "nbsp-tab"])
def test_any_run_of_whitespace_separates_tokens(gap):
    profile = cProfile.Profile()
    f = profile.runcall(parse_formula, _FINITE5.replace(" ", gap))
    assert f == parse_formula(_FINITE5) and render_formula(f) == _FINITE5
    assert f.distinct_vars_per_clause  # read in bulk: one match per line, no constructor
    assert _calls(profile, rsat.Literal.__new__) == 0


def test_a_huge_header_k_compiles_no_pattern(monkeypatch):
    # the header is untrusted: its k must not size a pattern that no line needs
    compiled = []
    compile_pattern = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: compiled.append(args) or compile_pattern(*args))
    with pytest.raises(ParseError) as err:
        parse_formula("p rsat 1000000000 3 1 continuous\n1:le:1/2 2:ge:1/2\n")
    assert err.value.line == 2 and "width 2, expected k = 1000000000" in str(err.value)
    assert compiled == []


# ---------------------------------------------------------------------------
# certificates


def _bicycle_fixture():
    from test_certificates import handmade_bicycle

    return handmade_bicycle()


def _snake_fixture():
    from test_certificates import planted_snake

    return planted_snake(6)


def test_bicycle_round_trip():
    f, cert = _bicycle_fixture()
    text = render_certificate(cert)
    again = parse_certificate(text)
    assert again == cert
    assert render_certificate(again) == text
    assert rsat.verify_bicycle(f, again)


def test_snake_round_trip():
    f, cert = _snake_fixture()
    text = render_certificate(cert)
    again = parse_certificate(text)
    assert again == cert
    assert render_certificate(again) == text
    assert rsat.verify_snake(f, again)


def test_certificate_parse_errors():
    with pytest.raises(ParseError):
        parse_certificate("")
    with pytest.raises(ParseError):
        parse_certificate("cert tricycle 2 2 1\n")
    with pytest.raises(ParseError):
        parse_certificate("cert bicycle 2 2\n")  # missing i1
    with pytest.raises(ParseError):
        parse_certificate("cert bicycle -1 2 1\n")  # no chain lines at all
    _, cert = _bicycle_fixture()
    text = render_certificate(cert)
    with pytest.raises(ParseError):
        parse_certificate(text.rsplit("\n", 2)[0] + "\n")  # truncated chain
    with pytest.raises(ParseError):
        parse_certificate(text.replace("0 ", "x ", 1))


def test_certificate_header_errors_carry_header_line():
    _, cert = _bicycle_fixture()
    text = "c truncated\n" + render_certificate(cert).rsplit("\n", 2)[0] + "\n"
    two_links = "\n".join(text.splitlines()[2:4]) + "\n"
    cases = [
        (text, 2, "chain lines"),  # one chain line short of the header's ell
        ("cert bicycle 1 2 1\n" + two_links, 1, "ell >= 2"),
        ("c x\ncert snake -1\n", 2, "snake needs ell >= 0, got -1"),
        ("c x\ncert snake 0_6\n", 2, "bad snake header field '0_6'"),
        ("cert snake 0\n0 1:le:1/2\n", 2, "line 2: expected '<clause_index> <lit> <lit>'"),
        # a negative ell is checked before the chain lines are counted
        ("cert snake -3\n", 1, "line 1: snake needs ell >= 0, got -3"),
        ("c x\ncert bicycle -5 2 1\n", 2, "line 2: bicycle needs ell >= 2, got -5"),
    ]
    for body, line, message in cases:
        with pytest.raises(ParseError) as err:
            parse_certificate(body)
        assert err.value.line == line
        assert message in str(err.value)


_SNAKE6 = ("cert snake 6\n0 3:le:1/5 1:le:3/10\n1 1:ge:7/10 2:le:3/10\n2 2:ge:7/10 3:le:3/10\n"
           "3 3:ge:4/5 4:le:3/10\n4 4:ge:7/10 5:le:3/10\n5 5:ge:7/10 6:le:3/10\n"
           "6 6:ge:7/10 3:ge:7/10\n")


@pytest.mark.parametrize(
    "edits, line, message",
    [
        ([("1 1:ge:7/10 2:le:3/10", "1 1:ge:7/10")], 3, "expected '<clause_index> <lit> <lit>'"),
        ([("1 1:ge:7/10 2:le:3/10", "1 1:ge:7/10 2:le:3/10 2:le:3/10")], 3,
         "expected '<clause_index> <lit> <lit>'"),
        ([("1 1:ge:7/10", "01 1:ge:7/10")], 3,
         "bad clause index '01' (expected a canonical integer)"),
        ([("1 1:ge:7/10", "1 1:gt:7/10")], 3, "bad literal token '1:gt:7/10' (expected <var>"),
        ([("1 1:ge:7/10", "1 1:ge:14/20")], 3, "fraction '14/20' is not in lowest terms"),
        ([("1 1:ge:7/10", "1 1:ge:0/1")], 3, "innocuous literal (x <= 1 or x >= 0) is forbidden"),
        ([("1 1:ge:7/10", "1 1:ge:3/2")], 3, "bound outside [0, 1]: 3/2"),
        # errors come in file order: a bad token on line 2, then a bad index on line 3
        ([("0 3:le:1/5", "0 3:le:2/10"), ("1 1:ge:7/10", "x 1:ge:7/10")], 2,
         "fraction '2/10' is not in lowest terms"),
        ([("0 3:le:1/5", "0 3:le:1/1"), ("1 1:ge:7/10", "x 1:ge:7/10")], 2,
         "innocuous literal (x <= 1 or x >= 0) is forbidden"),
        ([("0 3:le:1/5", "-0 3:le:1/5"), ("1 1:ge:7/10", "1 1:ge:7/0")], 2,
         "bad clause index '-0' (expected a canonical integer)"),
        ([("0 3:le:1/5", "0 3:le:1/5 7"), ("1 1:ge:7/10", "x 1:ge:7/10")], 2,
         "expected '<clause_index> <lit> <lit>'"),
        # on one line the clause index comes before the tokens
        ([("1 1:ge:7/10", "x 1:ge:14/20")], 3, "bad clause index 'x'"),
    ],
    ids=["too-few-fields", "too-many-fields", "index", "malformed", "not-reduced",
         "innocuous", "out-of-range", "token-before-later-index",
         "innocuous-before-later-index", "index-before-later-token",
         "fields-before-later-index", "index-before-token"],
)
def test_certificate_errors_name_their_line_in_file_order(edits, line, message):
    text = _SNAKE6
    for old, new in edits:
        text = text.replace(old, new, 1)
    with pytest.raises(ParseError) as err:
        parse_certificate(text)
    assert err.value.line == line and message in str(err.value)


def test_a_repeated_chain_bound_text_parses_to_one_object():
    cert = parse_certificate("cert snake 1\n0 1:le:1/3 2:ge:2/3\n1 2:le:1/3 1:ge:2/3\n")
    (a, c), (b, d) = cert.pairs
    assert a.bound == F(1, 3) and a.bound is b.bound and c.bound is d.bound
    assert parse_certificate(_SNAKE6) == _snake_fixture()[1]
