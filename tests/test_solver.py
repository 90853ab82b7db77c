from fractions import Fraction as F

import pytest

import rsat
from rsat import (
    CONTINUOUS,
    Dyadic,
    Finite,
    Formula,
    GenConfig,
    Literal,
    Rel,
    ResourceLimit,
    WrongArity,
    build_implication_digraph,
    candidate_domains,
    count_tight_satisfying,
    eval_formula,
    eval_literal,
    sample_formula,
    solve_2rsat_scc,
    solve_complete,
)
from oracles import brute_force_count_tight, brute_force_solve


def le(var, num, den=1):
    return Literal(var, Rel.LE, F(num, den))


def ge(var, num, den=1):
    return Literal(var, Rel.GE, F(num, den))


def unit_pair(lit):
    return (lit, lit)


# ---------------------------------------------------------------------------
# candidate domains


def test_candidate_domains():
    f = Formula(2, 3, ((le(1, 3, 10), ge(2, 7, 10)), (ge(1, 1, 2), le(1, 3, 10))), CONTINUOUS)
    doms = candidate_domains(f)
    assert doms[1] == [F(3, 10), F(1, 2)]
    assert doms[2] == [F(7, 10)]
    assert doms[3] == [F(0)]  # non-occurring variable


# ---------------------------------------------------------------------------
# complete decider


def test_solve_complete_examples():
    contradiction = Formula(2, 1, (unit_pair(le(1, 3, 10)), unit_pair(ge(1, 7, 10))), CONTINUOUS)
    assert not solve_complete(contradiction).sat

    tautologyish = Formula(2, 1, ((le(1, 3, 10), ge(1, 7, 10)),), CONTINUOUS)
    res = solve_complete(tautologyish)
    assert res.sat
    assert res.witness[1] in (F(3, 10), F(7, 10))  # tight

    # classical unsat 2-SAT: (a|b)(~a|b)(a|~b)(~a|~b) over {0,1}
    a_pos, a_neg = ge(1, 1), le(1, 0)
    b_pos, b_neg = ge(2, 1), le(2, 0)
    classical = Formula(
        2, 2, ((a_pos, b_pos), (a_neg, b_pos), (a_pos, b_neg), (a_neg, b_neg)), Finite(2)
    )
    assert not solve_complete(classical).sat
    assert not brute_force_solve(classical)


def test_budget_exhaustion():
    f = sample_formula(GenConfig(k=3, n=14, m=50, vspec=CONTINUOUS, seed=60))
    with pytest.raises(ResourceLimit):
        solve_complete(f, budget=1)


@pytest.mark.parametrize("seed", range(150))
def test_complete_matches_brute_force(seed):
    k = 2 + seed % 2
    cfg = GenConfig(
        k=k,
        n=k + seed % 4,
        m=1 + (5 * seed) % 11,
        vspec=Finite(2 + seed % 4),
        seed=4_000 + seed,
    )
    f = sample_formula(cfg)
    result = solve_complete(f)
    assert result.sat == brute_force_solve(f)
    if result.sat:
        assert eval_formula(f, result.witness)


def test_witnesses_are_tight():
    for seed in range(40):
        f = sample_formula(GenConfig(k=2, n=8, m=18, vspec=CONTINUOUS, seed=70 + seed))
        doms = candidate_domains(f)
        for solver in (solve_complete, solve_2rsat_scc):
            res = solver(f)
            if res.sat:
                assert eval_formula(f, res.witness)
                for var, value in res.witness.items():
                    assert value in doms[var]


# ---------------------------------------------------------------------------
# SCC decider


def test_scc_examples():
    contradiction = Formula(2, 1, (unit_pair(le(1, 3, 10)), unit_pair(ge(1, 7, 10))), CONTINUOUS)
    assert not solve_2rsat_scc(contradiction).sat

    # every clause contains its variable's maximal bound as a <=-literal
    f = Formula(2, 2, ((le(1, 9, 10), ge(2, 1, 2)), (le(2, 3, 4), ge(1, 1, 2))), CONTINUOUS)
    assert solve_2rsat_scc(f).sat

    with pytest.raises(WrongArity):
        solve_2rsat_scc(sample_formula(GenConfig(k=3, n=4, m=4, seed=1)))


def test_scc_disjoint_pair_in_one_component_can_still_be_sat():
    # (x >= 1/2 | x >= 1) and (x <= 1/2 | x <= 0) are both equivalent to a
    # tie at 1/2; the implication cycle puts (x <= 0) and (x >= 1) in one
    # component, yet x = 1/2 satisfies the formula.  Only a literal sharing
    # a component with its own complement certifies UNSAT.
    f = Formula(2, 1, ((ge(1, 1, 2), ge(1, 1)), (le(1, 1, 2), le(1, 0))), Finite(3))
    graph = build_implication_digraph(f)
    comp_of = {}
    from rsat.solver import _tarjan

    comp = _tarjan(graph.succ)
    for nid, key in enumerate(graph.nodes):
        comp_of[key] = comp[nid]
    assert comp_of[(1, Rel.LE, 0)] == comp_of[(1, Rel.GE, 2)]  # disjoint pair together
    assert solve_2rsat_scc(f).sat
    assert solve_complete(f).sat
    assert brute_force_solve(f)


@pytest.mark.parametrize("vspec", [Finite(2), Finite(5), Dyadic(2), CONTINUOUS])
def test_scc_agrees_with_complete(vspec):
    for seed in range(400):
        f = sample_formula(GenConfig(k=2, n=7, m=16, vspec=vspec, seed=100_000 + seed))
        assert solve_2rsat_scc(f).sat == solve_complete(f).sat


def test_scc_agrees_on_vacuous_clause_formulas():
    # a clause satisfied by every candidate value contributes no edges
    f = Formula(2, 2, ((le(1, 9, 10), le(2, 1, 2)), (ge(1, 9, 10), ge(1, 9, 10))), CONTINUOUS)
    assert solve_2rsat_scc(f).sat == solve_complete(f).sat is True


def test_digraph_edge_semantics():
    # distinct clause variables, so every same-variable edge is an entailment
    f = sample_formula(
        GenConfig(k=2, n=6, m=14, vspec=Finite(4), seed=81, distinct_vars_per_clause=True)
    )
    doms = candidate_domains(f)
    graph = build_implication_digraph(f, doms)

    def sat_set(key):
        var, rel, rank = key
        lit = Literal(var, rel, doms[var][rank])
        return {x for x in doms[var] if eval_literal(lit, x)}

    for nid, key in enumerate(graph.nodes):
        cid = graph.complement[nid]
        if cid != -1:
            ckey = graph.nodes[cid]
            assert ckey[0] == key[0]
            assert sat_set(ckey) == set(doms[key[0]]) - sat_set(key)
        for succ in graph.succ[nid]:
            skey = graph.nodes[succ]
            if skey[0] == key[0]:  # entailment edge: satisfying sets nest
                assert sat_set(key) <= sat_set(skey)


# ---------------------------------------------------------------------------
# tight counting


def test_count_tight_examples():
    unsat = Formula(2, 1, (unit_pair(le(1, 3, 10)), unit_pair(ge(1, 7, 10))), CONTINUOUS)
    assert count_tight_satisfying(unsat) == 0
    assert not solve_complete(unsat).sat

    single = Formula(2, 2, ((le(1, 3, 10), le(2, 1, 2)),), CONTINUOUS)
    assert count_tight_satisfying(single) == 1

    # slot multiplicity: both copies of the side count as separate choices
    doubled = Formula(2, 1, (unit_pair(le(1, 3, 10)),), CONTINUOUS)
    assert count_tight_satisfying(doubled) == 2

    # a variable with no occurrence leaves no tight choice at all
    dangling = Formula(2, 2, (unit_pair(le(1, 3, 10)),), CONTINUOUS)
    assert count_tight_satisfying(dangling) == 0


@pytest.mark.parametrize("seed", range(60))
def test_count_tight_matches_enumeration(seed):
    cfg = GenConfig(k=2, n=3 + seed % 3, m=2 + seed % 6, vspec=CONTINUOUS, seed=5_000 + seed)
    f = sample_formula(cfg)
    assert count_tight_satisfying(f) == brute_force_count_tight(f)


def test_count_tight_budget():
    f = sample_formula(GenConfig(k=2, n=4, m=40, vspec=CONTINUOUS, seed=91))
    with pytest.raises(ResourceLimit):
        count_tight_satisfying(f, budget=10)


def test_expected_tight_count_below_closed_form_bound():
    # E[number of satisfying tight interpretations] at (k=2, n=4, m=8) is
    # bounded by (k c (1 - 2^-k)^(c-1))^n = 81; Monte Carlo mean stays below
    from rsat import expected_tight_bound

    bound = expected_tight_bound(4, 8, 2)
    assert bound == 81.0
    samples = 10_000
    total = total_sq = 0.0
    for seed in range(samples):
        f = sample_formula(GenConfig(k=2, n=4, m=8, vspec=CONTINUOUS, seed=8_000_000 + seed))
        y = count_tight_satisfying(f)
        total += y
        total_sq += y * y
    mean = total / samples
    sigma = max(total_sq / samples - mean * mean, 0.0) ** 0.5 / samples**0.5
    assert mean <= bound + 3 * sigma
    assert mean > 0  # the bound is not vacuous at this size


def test_empty_formula_and_solvers():
    f = Formula(2, 3, (), CONTINUOUS)
    for solver in (solve_complete, solve_2rsat_scc):
        res = solver(f)
        assert res.sat
        assert res.witness == {1: F(0), 2: F(0), 3: F(0)}
    assert count_tight_satisfying(f) == 0  # no slots means no tight choice


def test_count_tight_consistent_with_solver():
    for seed in range(60):
        f = sample_formula(GenConfig(k=2, n=4, m=9, vspec=CONTINUOUS, seed=6_000 + seed))
        count = count_tight_satisfying(f)
        if len(f.variables()) < f.n:
            assert count == 0  # a variable without slots leaves no tight choice
        else:
            assert (count > 0) == solve_complete(f).sat


@pytest.mark.parametrize(
    "var, ge, num",
    [
        ([1, 3], [0, 0], [1, 1]),  # variable outside 1..n
        ([0, 1], [0, 0], [1, 1]),
        ([1, 2], [0, 0], [4, 1]),  # x <= 1 is innocuous
        ([1, 2], [1, 0], [0, 1]),  # x >= 0 is innocuous
        ([1, 2], [1, 0], [5, 1]),  # bound above 1
        ([1, 2], [0, 0], [-1, 1]),  # bound below 0
        ([1, 2, 1], [0, 0, 0], [1, 1, 1]),  # not whole clauses
    ],
)
def test_compile_slots_rejects_what_literal_and_formula_reject(var, ge, num):
    from rsat.solver import compile_slots

    assert compile_slots(2, 2, 4, [1, 2], [1, 0], [4, 0]).rank == [0, 1]
    with pytest.raises(ValueError):
        compile_slots(2, 2, 4, var, ge, num)
