from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsat
from oracles import fraction_literal_error, fraction_vspec_contains, occurrence_profile, vspec_values
from rsat import (
    CONTINUOUS,
    ClauseError,
    Dyadic,
    Finite,
    Formula,
    Literal,
    MissingAssignment,
    Rel,
    eval_formula,
    eval_literal,
    signs_disjoint,
)
from rsat.formula import literals, vspec_grid


def le(var, num, den=1):
    return Literal(var, Rel.LE, F(num, den))


def ge(var, num, den=1):
    return Literal(var, Rel.GE, F(num, den))


# ---------------------------------------------------------------------------
# truth-value sets


def test_vspec_families():
    assert vspec_values(Finite(2)) == [F(0), F(1)]
    assert vspec_values(Finite(4)) == [F(0), F(1, 3), F(2, 3), F(1)]
    assert vspec_values(Dyadic(0)) == [F(0), F(1)]
    assert vspec_values(Dyadic(2)) == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    with pytest.raises(ValueError):
        vspec_values(CONTINUOUS)


@given(st.integers(min_value=2, max_value=40))
def test_vspec_symmetric_and_bounded(v):
    vals = vspec_values(Finite(v))
    assert vals[0] == 0 and vals[-1] == 1
    assert sorted(1 - x for x in vals) == vals  # V = 1 - V


def admits(vspec, bound) -> bool:
    """Whether a formula over ``vspec`` accepts a literal x1 <= bound."""
    try:
        lit = Literal(1, Rel.LE, bound)
        Formula(2, 1, ((lit, lit),), vspec)
    except ValueError:
        return False
    return True


def test_vspec_contains():
    assert admits(Finite(3), F(1, 2))
    assert not admits(Finite(3), F(1, 3))
    assert admits(Dyadic(2), F(3, 4))
    assert not admits(Dyadic(2), F(1, 3))
    assert admits(CONTINUOUS, F(12345, 54321))
    assert not admits(CONTINUOUS, F(3, 2))


VSPECS = st.one_of(
    st.integers(min_value=2, max_value=40).map(Finite),
    st.integers(min_value=0, max_value=12).map(Dyadic),
    st.just(CONTINUOUS),
)
BOUNDS = st.one_of(
    st.integers(min_value=1, max_value=200).flatmap(
        lambda den: st.integers(min_value=-2, max_value=den + 2).map(lambda num: F(num, den))
    ),
    st.sampled_from([0, 1]),
)


@settings(max_examples=1000)
@given(VSPECS, BOUNDS, st.sampled_from([Rel.LE, Rel.GE]), st.integers(min_value=0, max_value=2))
def test_integer_checks_match_fraction_arithmetic(vspec, bound, rel, var):
    expected = fraction_literal_error(var, rel, bound)
    try:
        lit = Literal(var, rel, bound)
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    other = Literal(2, Rel.LE, F(0))
    if fraction_vspec_contains(vspec, bound):
        assert Formula(2, 2, ((lit, other),), vspec).clauses == ((lit, other),)
    else:
        with pytest.raises(ValueError) as err:
            Formula(2, 2, ((lit, other),), vspec)
        assert str(err.value) == f"clause 0: bound {bound} not in V of {vspec}"


def test_bound_without_integer_parts_is_a_type_error():
    with pytest.raises(TypeError, match="float"):
        Literal(1, Rel.LE, 0.5)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Literal(1.5, Rel.LE, F(1, 2)), "variable index must be an int, got float"),
        (lambda: Literal(True, Rel.LE, F(1, 2)), "variable index must be an int, got bool"),
        (lambda: Literal(0.5, Rel.LE, F(1, 2)), "variable index must be an int, got float"),
        (lambda: Literal(1, "le", F(1, 2)), "relation must be a Rel, got str"),
        (lambda: Literal(1, None, F(1, 2)), "relation must be a Rel, got NoneType"),
        (lambda: Formula(2.0, 2, (), CONTINUOUS), "clause width k must be an int, got float"),
        (lambda: Formula(2, 2.0, (), CONTINUOUS), "variable count must be an int, got float"),
        (lambda: Formula(2, True, (), CONTINUOUS), "variable count must be an int, got bool"),
        (lambda: Formula(2, 3, ((le(1, 1, 2), ge(1, 1, 2)),), CONTINUOUS, "no"),
         "distinct_vars_per_clause must be a bool, got str"),
        (lambda: Formula(2, 3, (), CONTINUOUS, 0.0),
         "distinct_vars_per_clause must be a bool, got float"),
    ],
    ids=["var-float", "var-bool", "var-float-below-1", "rel-str", "rel-None",
         "k-float", "n-float", "n-bool", "distinct-str", "distinct-float"],
)
def test_indices_and_sizes_must_be_ints(make, message):
    # each was once accepted (or met a range check first) and rendered a file
    # the parser rejects, such as "1.5:le:1/2" or "p rsat 2 2.0 0 continuous";
    # a "le" relation printed as ">=" and failed to render
    with pytest.raises(TypeError, match=f"^{message}$"):
        make()


def test_vspec_validation():
    with pytest.raises(ValueError):
        Finite(1)
    with pytest.raises(ValueError):
        Dyadic(-1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Finite(3.0), "Finite v must be an int, got float"),
        (lambda: Finite(True), "Finite v must be an int, got bool"),
        (lambda: Dyadic(2.0), "Dyadic lam must be an int, got float"),
    ],
    ids=["v-float", "v-bool", "lam-float"],
)
def test_value_set_parameters_must_be_ints(make, message):
    # a float v renders "finite:3.0", which the parser rejects
    with pytest.raises(TypeError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("vspec", ["finite:3", None], ids=["token", "None"])
def test_an_object_that_is_not_a_value_set_is_a_type_error(vspec):
    # only CONTINUOUS is the continuous set; nothing else falls through to it
    with pytest.raises(TypeError, match="^not a truth-value set: "):
        vspec_grid(vspec)
    with pytest.raises(TypeError, match="^not a truth-value set: "):
        Formula(2, 1, (), vspec)


# ---------------------------------------------------------------------------
# literals


def test_eval_literal_closed_half_lines():
    assert eval_literal(le(1, 3, 10), F(3, 10))  # boundary included
    assert not eval_literal(ge(1, 7, 10), F(1, 2))
    assert eval_literal(le(1, 1, 2), F(0))  # 0 satisfies every <=


def test_innocuous_literals_rejected():
    with pytest.raises(ValueError):
        Literal(1, Rel.LE, F(1))
    with pytest.raises(ValueError):
        Literal(1, Rel.GE, F(0))
    with pytest.raises(ValueError):
        Literal(0, Rel.LE, F(1, 2))
    with pytest.raises(ValueError):
        Literal(1, Rel.LE, F(3, 2))


def test_every_way_to_build_a_literal_runs_its_checks():
    lit = le(1, 1, 2)
    with pytest.raises(ValueError, match="^variable index must be >= 1, got 0$"):
        lit._replace(var=0)
    with pytest.raises(ValueError, match="^innocuous literal"):
        Literal._make((1, Rel.LE, F(1)))
    assert lit._replace(bound=F(1, 3)) == le(1, 1, 3)


HALF = F(1, 2)
# (rel, bound) of valid literals: two equal halves that are distinct objects,
# int bounds, and bounds at 0 and 1 on the side where they are not innocuous
_SIDES = [(Rel.LE, HALF), (Rel.GE, F(1, 2)), (Rel.GE, F(1, 4)), (Rel.GE, F(1)),
          (Rel.LE, F(0)), (Rel.GE, 1), (Rel.LE, 0)]
# entries the constructor rejects, and a bool bound, which it accepts
_ODD = [(True, Rel.LE, HALF), (0, Rel.LE, HALF), (-2, Rel.GE, HALF), (1.0, Rel.LE, HALF),
        (1, "le", HALF), (1, None, HALF), (1, Rel.LE, 0.5), (1, Rel.GE, F(3, 2)),
        (1, Rel.LE, F(-1, 2)), (1, Rel.LE, F(1)), (1, Rel.GE, F(0)), (1, Rel.LE, 1),
        (1, Rel.GE, 0), (1, Rel.GE, True)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([1, 2, 7, 2000]), st.sampled_from(_SIDES)), max_size=8),
    st.lists(st.tuples(st.integers(0, 8), st.sampled_from(_ODD)), max_size=2),
)
def test_bulk_literals_match_the_constructor(good, odd):
    entries = [(var, *side) for var, side in good]
    for at, entry in odd:
        entries.insert(at, entry)
    columns = [list(column) for column in zip(*entries)] or [[], [], []]
    try:
        expected = [Literal(*entry) for entry in entries]
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as err:
            literals(*columns)
        assert str(err.value) == str(exc)
    else:
        built = literals(*columns)
        assert built == expected
        assert all(type(a) is Literal and a.bound is b.bound for a, b in zip(built, expected))


def test_a_literal_is_its_fields_tuple():
    lit = ge(3, 2, 5)
    var, rel, bound = lit
    assert (var, rel, bound) == (lit.var, lit.rel, lit.bound) == (3, Rel.GE, F(2, 5))
    assert hash(lit) == hash((lit.var, lit.rel, lit.bound))
    assert lit == (3, Rel.GE, F(2, 5)) and repr(lit) == "(x3 >= 2/5)"


def test_encoded_rhs_is_the_sampling_side():
    assert le(1, 3, 10).encoded_rhs() == F(3, 10)
    assert ge(1, 7, 10).encoded_rhs() == F(3, 10)  # bound 7/10 encodes side 3/10


# ---------------------------------------------------------------------------
# formulas and evaluation


def test_eval_formula_examples():
    f = Formula(2, 1, ((le(1, 3, 10), ge(1, 7, 10)),), CONTINUOUS)
    assert eval_formula(f, {1: F(0)})

    two_units = Formula(
        2, 1, ((le(1, 3, 10), le(1, 3, 10)), (ge(1, 7, 10), ge(1, 7, 10))), CONTINUOUS
    )
    for num in range(0, 11):
        assert not eval_formula(two_units, {1: F(num, 10)})

    classical = Formula(2, 2, ((ge(1, 1), le(2, 0)),), Finite(2))
    assert eval_formula(classical, {1: F(0), 2: F(0)})


def test_eval_formula_missing_assignment():
    f = Formula(2, 2, ((le(1, 1, 2), ge(2, 1, 2)),), CONTINUOUS)
    with pytest.raises(MissingAssignment):
        eval_formula(f, {1: F(0)})


def test_formula_validation():
    with pytest.raises(ValueError):  # variable out of range
        Formula(2, 1, ((le(1, 1, 2), ge(2, 1, 2)),), CONTINUOUS)
    with pytest.raises(ValueError):  # wrong arity
        Formula(2, 2, ((le(1, 1, 2),),), CONTINUOUS)
    with pytest.raises(ValueError):  # bound outside V
        Formula(2, 2, ((le(1, 1, 3), ge(2, 1, 2)),), Finite(3))
    with pytest.raises(ValueError):  # repeated variable under the distinct flag
        Formula(2, 2, ((le(1, 1, 2), ge(1, 1, 2)),), CONTINUOUS, True)


@pytest.mark.parametrize(
    "bad, vspec, distinct, reason",
    [
        ((le(1, 1, 2),), CONTINUOUS, False, "width 1, expected k = 2"),
        ((le(3, 1, 2), ge(2, 1, 2)), CONTINUOUS, False, "variable x3 outside 1..2"),
        ((le(1, 1, 3), ge(2, 1, 2)), Finite(3), False, "bound 1/3 not in V of Finite(v=3)"),
        ((le(2, 1, 2), ge(2, 1, 2)), CONTINUOUS, True, "repeated variable x2"),
    ],
)
def test_formula_names_the_clause_that_breaks_a_rule(bad, vspec, distinct, reason):
    good = (le(1, 1, 2), ge(2, 1, 2))
    with pytest.raises(ClauseError) as err:
        Formula(2, 2, (good, bad, good), vspec, distinct)
    assert (err.value.index, err.value.reason) == (1, reason)
    assert str(err.value) == f"clause 1: {reason}"
    assert isinstance(err.value, ValueError)


def test_distinct_flag_not_part_of_equality():
    clause = (le(1, 1, 2), ge(2, 1, 2))
    a = Formula(2, 2, (clause,), CONTINUOUS, False)
    b = Formula(2, 2, (clause,), CONTINUOUS, True)
    assert a == b


# ---------------------------------------------------------------------------
# disjointness


def test_signs_disjoint_examples():
    assert signs_disjoint(le(1, 3, 10), ge(1, 7, 10))
    assert not signs_disjoint(le(1, 3, 10), le(1, 9, 10))  # 0 satisfies both
    assert not signs_disjoint(le(1, 1, 2), ge(1, 1, 2))  # tie: 1/2 satisfies both
    assert signs_disjoint(ge(1, 7, 10), le(1, 3, 10))  # symmetric


@given(st.integers(min_value=2, max_value=9), st.data())
@settings(max_examples=200)
def test_signs_disjoint_matches_grid_enumeration(v, data):
    vals = vspec_values(Finite(v))
    def draw_literal(label):
        rel = data.draw(st.sampled_from([Rel.LE, Rel.GE]), label=label)
        pool = vals[:-1] if rel is Rel.LE else vals[1:]
        return Literal(1, rel, data.draw(st.sampled_from(pool), label=label + "-bound"))
    l1, l2 = draw_literal("l1"), draw_literal("l2")
    expected = not any(eval_literal(l1, x) and eval_literal(l2, x) for x in vals)
    assert signs_disjoint(l1, l2) == expected


# ---------------------------------------------------------------------------
# occurrence profiles


def test_occurrence_profile_examples():
    empty = Formula(2, 3, (), CONTINUOUS)
    assert occurrence_profile(empty) == [0, 0, 0]

    f = Formula(2, 3, ((le(1, 1, 2), le(2, 1, 2)), (le(1, 1, 2), le(3, 1, 2))), CONTINUOUS)
    assert occurrence_profile(f) == [2, 1, 1]
    assert sum(occurrence_profile(f)) == f.k * f.m


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_occurrence_profile_sums_to_km(seed):
    cfg = rsat.GenConfig(k=3, n=7, m=10, seed=seed)
    f = rsat.sample_formula(cfg)
    prof = occurrence_profile(f)
    assert sum(prof) == 30
    assert all(r >= 0 for r in prof)
