import hashlib
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

from rsat import (
    CONTINUOUS,
    Dyadic,
    Finite,
    Formula,
    GenConfig,
    InvalidConfig,
    Literal,
    Rel,
    ResourceLimit,
    WrongArity,
    build_implication_digraph,
    candidate_domains,
    eval_formula,
    eval_literal,
    sample_formula,
    solve_2rsat_scc,
    solve_complete,
    thm1_value,
    vspec_from_token,
)
from rsat.formula import signs_disjoint
from rsat.sampler import draw_slots
from rsat.solver import (DEFAULT_NODE_BUDGET, _candidates, _clause_masks, _order_graph, _tarjan,
                         compile_formula, compile_slots, literal_components, reduce_candidates)
from oracles import (brute_force_count_tight, brute_force_solve, deep_pairs_formula,
                     occurring_variables, rank_candidates, rescan_complete, two_stage_reduction)


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


def assert_candidates_match_reference(c, domains=None):
    """The complete decider's candidates of compiled ``c`` against the
    reference ranking: per variable as many as its span, each the
    numerator at its representative slot (0 for none), and, given
    ``candidate_domains``, each domain value the bound there."""
    cands = _candidates(c)
    full = rank_candidates(c)
    assert len(cands) == c.n + 1 and cands[0] == []
    for j in range(1, c.n + 1):
        reps = full.rep[full.start[j] : full.start[j + 1]]
        assert len(cands[j]) == full.start[j + 1] - full.start[j]
        assert cands[j] == [c.num[s] if s >= 0 else 0 for s in reps]
        if domains is not None:
            assert domains[j] == [c.bounds[s] if s >= 0 else 0 for s in reps]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("distinct", [False, True], ids=["repeats", "distinct"])
@pytest.mark.parametrize("token", ["continuous", "finite:2", "finite:3", "finite:5", "dyadic:2"])
def test_candidates_match_the_reference_ranking(token, distinct, k):
    unused = 0
    for seed in range(30):
        n = (3, 5, 9, 20, 60)[seed % 5]
        m = 1 + (seed * 11) % (2 * n) if seed % 3 else 1 + seed % 3  # few clauses: unused variables
        cfg = GenConfig(k=k, n=n, m=m, vspec=vspec_from_token(token), seed=93_000 + seed,
                        distinct_vars_per_clause=distinct)
        f = sample_formula(cfg)
        assert_candidates_match_reference(compile_formula(f), candidate_domains(f))
        assert_candidates_match_reference(compile_slots(k, n, *draw_slots(cfg)))  # numerators only
        unused += f.n - len(occurring_variables(f))
    assert unused > 20


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


@pytest.mark.parametrize("budget", [2.5, True], ids=["float", "bool"])
def test_search_budget_must_be_an_int(budget):
    f = sample_formula(GenConfig(k=3, n=4, m=4, seed=1))
    with pytest.raises(TypeError, match=f"^budget must be an int, got {type(budget).__name__}$"):
        solve_complete(f, budget=budget)


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


def witness_digest(witness):
    if witness is None:
        return None
    text = " ".join(f"{j}={v}" for j, v in sorted(witness.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def assert_search_pinned(f, nodes, sat, digest):
    """``nodes`` is the search's node count: the budget boundary reveals it."""
    result = solve_complete(f, budget=nodes)
    assert (result.sat, witness_digest(result.witness)) == (sat, digest)
    with pytest.raises(ResourceLimit):
        solve_complete(f, budget=nodes - 1)


# node count, verdict and witness of the backtracking search, recorded
# before the search moved to a trail; any change to the search tree
# (branch clause, branch order, propagation or the leaf's value) shows here
SEARCH_PINS = [
    # k, n, m, vspec, distinct variables, seed, nodes, sat, witness digest
    (2, 30, 60, "continuous", False, 80004, 15, True, "b59f41552ecfc3f6"),
    (2, 30, 60, "continuous", True, 80005, 19, True, "60e1c870e6b41b87"),
    (2, 30, 60, "finite:3", False, 80000, 11, True, "8032358cab927dfb"),
    (2, 30, 60, "finite:3", True, 80005, 12, True, "297017778cd18beb"),
    (2, 30, 60, "dyadic:2", False, 80004, 12, True, "3b3303c8b38594c6"),
    (2, 30, 60, "dyadic:2", True, 80005, 15, True, "81e26ffe554cb4eb"),
    (3, 20, 170, "continuous", False, 80006, 37, True, "06ac8d828796bcb9"),
    (3, 20, 170, "continuous", True, 80002, 115, True, "187f0b65b0ba4e91"),
    (3, 20, 170, "finite:3", False, 80001, 29, False, None),
    (3, 20, 170, "finite:3", True, 80000, 46, False, None),
    (3, 20, 170, "dyadic:2", False, 80001, 51, True, "7c0bfc93d21e99d8"),
    (3, 20, 170, "dyadic:2", True, 80001, 72, False, None),
    (4, 14, 280, "continuous", False, 80003, 49, True, "090403f0f5bb9f29"),
    (4, 14, 280, "continuous", True, 80001, 67, True, "722f6793837c071e"),
    (4, 14, 280, "finite:3", False, 80007, 49, False, None),
    (4, 14, 280, "finite:3", True, 80000, 105, False, None),
    (4, 14, 280, "dyadic:2", False, 80000, 155, False, None),
    (4, 14, 280, "dyadic:2", True, 80005, 170, True, "fae82cebe796d372"),
]


@pytest.mark.parametrize("k, n, m, token, distinct, seed, nodes, sat, digest", SEARCH_PINS)
def test_complete_search_tree_pinned(k, n, m, token, distinct, seed, nodes, sat, digest):
    vspec = {"continuous": CONTINUOUS, "finite:3": Finite(3), "dyadic:2": Dyadic(2)}[token]
    f = sample_formula(GenConfig(k=k, n=n, m=m, vspec=vspec, distinct_vars_per_clause=distinct,
                                 seed=seed))
    assert_search_pinned(f, nodes, sat, digest)


@pytest.mark.parametrize(
    "m, seed, nodes, sat",
    [(240, 90006, 213, False), (240, 90003, 117, True), (252, 90002, 153, False),
     (252, 90003, 111, True), (264, 90005, 383, False), (264, 90003, 247, False)],
)
def test_complete_search_tree_pinned_on_sweep_draws(m, seed, nodes, sat):
    # the sweep-k3-complete benchmark's shape (k=3, n=24, c = 10, 21/2, 11),
    # compiled from integer draws as run_sweep does; such a form has no witness
    f = compile_slots(3, 24, *draw_slots(GenConfig(k=3, n=24, m=m, vspec=CONTINUOUS, seed=seed)))
    assert_search_pinned(f, nodes, sat, None)


def assert_same_tree(c):
    """``solve_complete`` on compiled ``c`` walks the rescanning search's
    tree: same verdict and witness, and the same node count, shown by the
    budget boundary."""
    sat, witness, nodes = rescan_complete(c, DEFAULT_NODE_BUDGET)
    result = solve_complete(c, budget=nodes)
    assert (result.sat, result.witness) == (sat, witness)
    with pytest.raises(ResourceLimit):
        solve_complete(c, budget=nodes - 1)
    return sat


@pytest.mark.parametrize("k, n, token, m, step", [
    (3, 16, "continuous", 130, 10), (3, 16, "finite:3", 70, 8), (3, 16, "dyadic:2", 90, 8),
    (4, 10, "continuous", 180, 20), (4, 10, "finite:3", 100, 10), (4, 10, "dyadic:2", 140, 10),
])
@pytest.mark.parametrize("distinct", [False, True])
def test_live_counts_keep_the_rescan_tree(k, n, token, m, step, distinct):
    # m steps across each value set's crossing, so both verdicts show up
    verdicts = [assert_same_tree(compile_formula(sample_formula(GenConfig(
        k=k, n=n, m=m + step * seed, vspec=vspec_from_token(token),
        distinct_vars_per_clause=distinct, seed=95_000 + seed)))) for seed in range(8)]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("m", [240, 252, 264])
def test_live_counts_keep_the_rescan_tree_on_sweep_draws(m):
    # the sweep-k3-complete shape, compiled from integer draws: no witness
    verdicts = [assert_same_tree(compile_slots(3, 24, *draw_slots(
        GenConfig(k=3, n=24, m=m, vspec=CONTINUOUS, seed=96_000 + seed)))) for seed in range(8)]
    assert True in verdicts and False in verdicts


def test_complete_search_depth_is_not_bounded_by_recursion_limit():
    f = deep_pairs_formula(1200)  # one branch level per pair
    result = solve_complete(f)
    assert result.sat and solve_2rsat_scc(f).sat
    assert eval_formula(f, result.witness)


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
    c = compile_formula(f)
    _, start, rep = two_stage_reduction(c)  # label ranks count the kept candidates
    kept = {j: [c.bounds[s] if s >= 0 else F(0) for s in rep[start[j] : start[j + 1]]]
            for j in range(1, f.n + 1)}
    graph = build_implication_digraph(f)
    assert graph.nodes

    def sat_set(key):
        var, rel, rank = key
        lit = Literal(var, rel, kept[var][rank])
        return {x for x in kept[var] if eval_literal(lit, x)}

    entailments = 0
    for nid, key in enumerate(graph.nodes):
        ckey = graph.nodes[nid ^ 1]
        assert ckey[0] == key[0]
        assert sat_set(ckey) == set(kept[key[0]]) - sat_set(key)
        for succ in graph.succ[nid]:
            skey = graph.nodes[succ]
            if skey[0] == key[0]:  # entailment edge: satisfying sets nest
                assert sat_set(key) <= sat_set(skey)
                entailments += 1
    assert entailments > 0


@pytest.mark.parametrize("distinct", [False, True], ids=["repeats", "distinct"])
@pytest.mark.parametrize("token", ["continuous", "finite:3", "finite:5", "dyadic:2"])
def test_labelled_digraph_is_the_one_the_scc_decider_runs(token, distinct):
    for seed in range(30):
        n = 3 + seed % 12
        f = sample_formula(GenConfig(k=2, n=n, m=1 + (seed * 7) % (3 * n),
                                     vspec=vspec_from_token(token), seed=92_000 + seed,
                                     distinct_vars_per_clause=distinct))
        graph = build_implication_digraph(f)
        _, succ = _order_graph(reduce_candidates(compile_formula(f)))
        assert (len(graph.nodes), graph.succ) == (len(succ), succ)
        comp = _tarjan(graph.succ)
        refuted = any(comp[a] == comp[a ^ 1] for a in range(len(comp)))
        assert refuted == (not solve_2rsat_scc(f).sat)


# ---------------------------------------------------------------------------
# non-dominated candidates


def assert_reduction_exact(f):
    """The three promises of ``reduce_candidates`` on ``f``, against Fractions."""
    c = compile_formula(f)
    d = reduce_candidates(c)
    lits = [lit for clause in f.clauses for lit in clause]
    domains = candidate_domains(f)
    for j in range(1, f.n + 1):
        kept = range(d.start[j], d.start[j + 1])
        values = [representative(c, d, g) for g in kept]
        assert values == sorted(set(values)) and values  # ascending candidates of j
        slots = [i for i, lit in enumerate(lits) if lit.var == j]
        for i in slots:  # a slot is as true at a representative as its literal
            for g, value in zip(kept, values):
                truth = g >= d.rank[i] if d.ge[i] else g <= d.rank[i]
                assert truth == eval_literal(lits[i], value), (j, i, value)
        # every full candidate is dominated by a kept one
        kept_sets = [{i for i in slots if eval_literal(lits[i], v)} for v in values]
        for value in domains[j]:
            full = {i for i in slots if eval_literal(lits[i], value)}
            assert any(full <= kept_set for kept_set in kept_sets), (j, value)
        for a, b in product(slots, repeat=2):  # sign-disjointness by reduced ranks
            disjoint = d.ge[a] != d.ge[b] and (
                d.rank[a] > d.rank[b] if d.ge[a] else d.rank[b] > d.rank[a])
            assert disjoint == signs_disjoint(lits[a], lits[b]), (a, b)
    return c, d


def representative(c, d, g):
    """The value of reduced candidate g of ``d``, reduced from ``c``."""
    return c.bounds[d.rep[g]] if d.rep[g] >= 0 else F(0)


@pytest.mark.parametrize("distinct", [False, True], ids=["repeats", "distinct"])
@pytest.mark.parametrize("token", ["continuous", "finite:2", "finite:3", "finite:5", "dyadic:2"])
def test_dominant_candidates_are_exact(token, distinct):
    for seed in range(40):
        n = 3 + seed % 10
        cfg = GenConfig(k=2, n=n, m=1 + (seed * 7) % (3 * n), vspec=vspec_from_token(token),
                        seed=90_000 + seed, distinct_vars_per_clause=distinct)
        assert_reduction_exact(sample_formula(cfg))


def test_dominant_candidates_hand_cases():
    f = Formula(2, 5, (
        (le(1, 1, 2), ge(1, 1, 2)),  # a tie: x1 = 1/2 makes both true
        (le(2, 1, 4), le(2, 3, 4)),  # x2 has only <= literals
        (ge(3, 1, 4), ge(3, 3, 4)),  # x3 has only >= literals; x4 occurs nowhere
        (ge(5, 1, 4), le(5, 3, 4)),  # the run x5 <= 3/4 is represented by 1/4
    ), CONTINUOUS)
    c, d = assert_reduction_exact(f)
    kept = {j: [representative(c, d, g) for g in range(d.start[j], d.start[j + 1])]
            for j in range(1, 6)}
    expected = {1: F(1, 2), 2: F(1, 4), 3: F(3, 4), 4: F(0), 5: F(1, 4)}
    assert kept == {j: [value] for j, value in expected.items()}
    # one candidate makes every literal of every variable hold: all clauses are vacuous
    assert literal_components(d)[0] == [-1] * 8
    assert solve_2rsat_scc(f).witness == expected


def assert_reduction_matches_two_stages(c):
    """The one-pass reduction of compiled ``c`` against the two-stage oracle:
    the same reduced ranks, ``start``, and representative bounds."""
    d = reduce_candidates(c)
    rank, start, rep = two_stage_reduction(c)
    assert (d.rank, d.start) == (rank, start)
    assert [c.num[s] if s >= 0 else 0 for s in d.rep] == [c.num[s] if s >= 0 else 0 for s in rep]
    if c.bounds is not None:
        assert [c.bounds[s] if s >= 0 else None for s in d.rep] == \
            [c.bounds[s] if s >= 0 else None for s in rep]


@pytest.mark.parametrize("distinct", [False, True], ids=["repeats", "distinct"])
@pytest.mark.parametrize("token", ["continuous", "finite:2", "finite:3", "finite:5", "dyadic:2"])
def test_one_pass_reduction_matches_two_stages(token, distinct):
    unused = 0
    for seed in range(40):
        n = (2, 3, 7, 12, 50, 200)[seed % 6]
        m = 1 + (seed * 13) % (3 * n) if seed % 3 else 1 + seed % 4  # few clauses, unused variables
        cfg = GenConfig(k=2, n=n, m=m, vspec=vspec_from_token(token), seed=91_000 + seed,
                        distinct_vars_per_clause=distinct)
        f = sample_formula(cfg)
        assert_reduction_matches_two_stages(compile_formula(f))
        assert_reduction_matches_two_stages(compile_slots(2, n, *draw_slots(cfg)))
        unused += f.n - len(occurring_variables(f))
    assert unused > 100


@pytest.mark.parametrize("occurring", [(), (1,), (5,), (3,), (1, 5), (2, 4), (3, 3)])
def test_one_pass_reduction_around_variables_with_no_literal(occurring):
    # of x1..x5 only ``occurring`` have literals: absent ones come before the
    # first, between and after the last occurring variable
    clauses = tuple((le(j, 1, 4), ge(j, 3, 4)) for j in occurring)
    clauses += tuple((ge(j, 1, 2), le(j, 1, 2)) for j in occurring)
    f = Formula(2, 5, clauses, CONTINUOUS)
    assert_reduction_matches_two_stages(compile_formula(f))
    d = reduce_candidates(compile_formula(f))
    for j in set(range(1, 6)) - set(occurring):
        assert d.start[j + 1] - d.start[j] == 1 and d.rep[d.start[j]] == -1
    assert d.start[6] == len(d.rep)


# ---------------------------------------------------------------------------
# tight counting


def count_tight_satisfying(f: Formula) -> int:
    """Number of satisfying slot-tight interpretations.

    Counts assignments x_j = (right-hand side found in one of x_j's own
    slots), with slot multiplicity: two slots carrying the same bound
    contribute two choices.  A variable with no occurrence has no slot to
    pick from (its one candidate has weight 0), so the count is 0.
    """
    c = compile_formula(f)
    cands = _candidates(c)
    mult = Counter(zip(c.var, c.num))  # slots per candidate
    masks, _ = _clause_masks(c, cands)
    variables = range(1, f.n + 1)
    count = 0
    for combo in product(*(range(len(cands[j])) for j in variables)):  # bit per variable
        if all(any((1 << combo[j - 1]) & mask for j, mask in clause) for clause in masks):
            weight = 1
            for j, r in zip(variables, combo):
                weight *= mult[j, cands[j][r]]
            count += weight
    return count


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


def test_expected_tight_count_below_closed_form_bound():
    # E[number of satisfying tight interpretations] at (k=2, n=4, m=8) is
    # bounded by (k c (1 - 2^-k)^(c-1))^n = 81; Monte Carlo mean stays below
    bound = thm1_value(2, 8 / 4) ** 4
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
        if len(occurring_variables(f)) < f.n:
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
    assert rank_candidates(compile_slots(2, 2, 4, [1, 2], [1, 0], [4, 0])).rank == [0, 1]
    with pytest.raises(ValueError):
        compile_slots(2, 2, 4, var, ge, num)


@pytest.mark.parametrize("n", [sys.maxsize - 1, sys.maxsize, 2**64])
def test_compiling_refuses_an_n_no_list_can_index(n):
    # every decider and finder builds lists of up to n + 2 entries, so n is
    # checked where each compiles; nothing here reaches a decider
    assert compile_slots(2, sys.maxsize - 2, 4, [1, 2], [1, 0], [3, 1]).n == sys.maxsize - 2
    with pytest.raises(InvalidConfig, match=rf"^n must be <= {sys.maxsize - 2} to decide, got {n}$"):
        compile_slots(2, n, 4, [1, 2], [1, 0], [3, 1])
    f = Formula(2, n, ((Literal(1, Rel.LE, F(1, 2)), Literal(2, Rel.GE, F(1, 2))),), CONTINUOUS)
    with pytest.raises(InvalidConfig):
        compile_formula(f)
