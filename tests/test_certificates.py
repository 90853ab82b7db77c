import hashlib
import itertools
from fractions import Fraction as F

import pytest

import rsat
from rsat import (
    BUDGET_EXHAUSTED,
    CONTINUOUS,
    Bicycle,
    Dyadic,
    Finite,
    Formula,
    GenConfig,
    IndexOutOfRange,
    InvalidConfig,
    Literal,
    OddLength,
    Rel,
    Snake,
    WrongArity,
    build_implication_digraph,
    find_bicycle,
    find_snake,
    sample_formula,
    solve_2rsat_scc,
    solve_complete,
    verify_bicycle,
    verify_snake,
    vspec_from_token,
    vspec_to_token,
)
from rsat.certificates import DEFAULT_FIND_BUDGET, _chain_graph
from rsat.formula import signs_disjoint
from rsat.solver import compile_formula, literal_components, rank_candidates, reduce_candidates
from oracles import exhaustive_bicycle, ring_formula


def le(var, num, den=10):
    return Literal(var, Rel.LE, F(num, den))


def ge(var, num, den=10):
    return Literal(var, Rel.GE, F(num, den))


# ---------------------------------------------------------------------------
# handcrafted 2-bicycle


def handmade_bicycle():
    """Two chain variables; ends fold back onto them (i0 = 2, i1 = 1)."""
    t1, f1 = ge(1, 6), le(1, 4)
    t2, f2 = ge(2, 6), le(2, 4)
    f0 = le(2, 9)  # on var of t2 (i0 = 2)
    t3 = ge(1, 1)  # on var of t1 (i1 = 1)
    clauses = ((f0, t1), (f1, t2), (f2, t3))
    f = Formula(2, 2, clauses, CONTINUOUS)
    cert = Bicycle(
        pairs=((f0, t1), (f1, t2), (f2, t3)),
        i0=2,
        i1=1,
        clause_indices=(0, 1, 2),
    )
    return f, cert


def test_verify_bicycle_handmade():
    f, cert = handmade_bicycle()
    assert verify_bicycle(f, cert)


def test_verify_bicycle_bc4_failure():
    f, cert = handmade_bicycle()
    wrong = Bicycle(cert.pairs, cert.i0, cert.i1, (1, 1, 2))
    assert not verify_bicycle(f, wrong)


def test_verify_bicycle_bc5_failure():
    f, cert = handmade_bicycle()
    pairs = list(cert.pairs)
    pairs[1] = (le(1, 8), pairs[1][1])  # f1 no longer disjoint from t1 = (x1 >= 0.6)
    broken = Bicycle(tuple(pairs), cert.i0, cert.i1, cert.clause_indices)
    assert not verify_bicycle(f, broken)


def test_verify_bicycle_errors_and_ranges():
    f, cert = handmade_bicycle()
    with pytest.raises(IndexOutOfRange):
        verify_bicycle(f, Bicycle(cert.pairs, cert.i0, cert.i1, (0, 1, 99)))
    assert not verify_bicycle(f, Bicycle(cert.pairs, 1, 1, cert.clause_indices))
    with pytest.raises(WrongArity):
        verify_bicycle(sample_formula(GenConfig(k=3, n=3, m=2, seed=0)), cert)
    with pytest.raises(ValueError):
        Bicycle(cert.pairs[:-1], 2, 1, (0, 1, 2))


def test_find_bicycle_on_planted_instance():
    f, _ = handmade_bicycle()
    assert solve_2rsat_scc(f).sat == solve_complete(f).sat  # adversarial agreement
    found = exhaustive_bicycle(f, DEFAULT_FIND_BUDGET)
    assert found is not None and found is not BUDGET_EXHAUSTED
    assert verify_bicycle(f, found)


def test_find_bicycle_budget_exhaustion():
    f = sample_formula(GenConfig(k=2, n=8, m=24, seed=777, distinct_vars_per_clause=True))
    assert exhaustive_bicycle(f, 1) is BUDGET_EXHAUSTED


@pytest.mark.parametrize("vspec", [CONTINUOUS, Finite(3), Dyadic(2)], ids=vspec_to_token)
def test_exhausted_none_implies_sat_on_distinct_model(vspec):
    # the sound reading of bicycle necessity: a fully searched NONE means SAT
    # (for the distinct-variables model; see the repeats-allowed gap below),
    # so a search that drops valid links fails it
    nones = 0
    for seed in range(60):
        f = sample_formula(
            GenConfig(k=2, n=8, m=20, vspec=vspec, seed=40_000 + seed,
                      distinct_vars_per_clause=True)
        )
        out = find_bicycle(f)
        if out is None:
            nones += 1
            assert solve_complete(f).sat
    assert nones > 0  # the property was actually exercised


def test_bicycles_can_occur_in_satisfiable_formulas():
    # bicycle presence is necessary for UNSAT, not sufficient: this formula
    # contains a verified bicycle yet is satisfiable
    t1, f1 = ge(1, 6), le(1, 4)
    t2, f2 = ge(2, 6), le(2, 4)
    f0, t3 = le(2, 9), ge(1, 1)
    f = Formula(2, 2, ((f0, t1), (f1, t2), (f2, t3)), CONTINUOUS)
    cert = Bicycle(((f0, t1), (f1, t2), (f2, t3)), 2, 1, (0, 1, 2))
    assert verify_bicycle(f, cert)
    found = exhaustive_bicycle(f, DEFAULT_FIND_BUDGET)
    assert found and verify_bicycle(f, found)
    assert solve_complete(f).sat
    # no clause arc of this formula lies on a closed walk of the implication
    # digraph, so the walk finder, which is not exhaustive, reports none
    assert find_bicycle(f) is None


def test_unsat_without_bicycle_when_clauses_repeat_variables():
    # with clause-internal variable repeats, unsatisfiability can rest on a
    # single-variable core that no bicycle (>= 2 distinct chain variables)
    # can witness; the chain lemma only covers the distinct-variables model
    lo, hi = le(1, 3), ge(1, 7)
    f = Formula(2, 1, ((lo, lo), (hi, hi)), CONTINUOUS)
    assert not solve_complete(f).sat
    assert find_bicycle(f) is None


def test_find_bicycle_on_long_ring():
    # one closed walk through 1500 variables: the bicycle spans all of them,
    # with no recursion, though the formula is satisfiable
    f = ring_formula(1500)
    found = find_bicycle(f)
    assert found is not None and verify_bicycle(f, found)
    assert (found.ell, found.i0, found.i1) == (1500, 1500, 1)
    assert solve_2rsat_scc(f).sat
    assert find_bicycle(ring_formula(1500, closed=False)) is None


def test_find_bicycle_on_large_unsat_formula():
    # the depth-first search spent its whole default budget here
    f = sample_formula(GenConfig(k=2, n=3000, m=9000, seed=1, distinct_vars_per_clause=True))
    assert not solve_2rsat_scc(f).sat
    found = find_bicycle(f)
    assert found is not None and verify_bicycle(f, found)


# ---------------------------------------------------------------------------
# snakes


def planted_snake(ell=6):
    """A snake with middle variable b_{ell/2} = ell//2 + ... wired by hand."""
    mid_idx = ell // 2
    b = list(range(1, ell + 1))
    mid = b[mid_idx - 1]

    def b_full(i):
        return mid if i in (0, ell + 1) else b[i - 1]

    lead_parts = {}
    trail_parts = {}
    lead_parts[0] = le(mid, 2)
    lead_parts[mid_idx] = ge(mid, 8)
    trail_parts[mid_idx] = le(mid, 3)
    trail_parts[ell + 1] = ge(mid, 7)
    for i in range(1, ell + 1):
        lead_parts.setdefault(i, ge(b[i - 1], 7))
        trail_parts.setdefault(i, le(b[i - 1], 3))

    pairs = []
    for i in range(ell + 1):
        lead = Literal(b_full(i), lead_parts[i].rel, lead_parts[i].bound)
        trail = Literal(b_full(i + 1), trail_parts[i + 1].rel, trail_parts[i + 1].bound)
        pairs.append((lead, trail))
    clauses = tuple((lead, trail) for lead, trail in pairs)
    f = Formula(2, ell, clauses, CONTINUOUS)
    cert = Snake(tuple(pairs), tuple(range(ell + 1)))
    return f, cert


def test_verify_snake_planted_and_unsat():
    f, cert = planted_snake(6)
    assert verify_snake(f, cert)
    assert not solve_2rsat_scc(f).sat
    assert not solve_complete(f).sat


def test_verify_snake_sk3_failure():
    f, cert = planted_snake(6)
    pairs = list(cert.pairs)
    lead, trail = pairs[6]
    pairs[6] = (lead, Literal(trail.var, Rel.GE, F(1, 10)))  # overlaps lead of clause 0
    broken = Snake(tuple(pairs), cert.clause_indices)
    assert not verify_snake(f, broken)


def test_verify_snake_middle_identity_failure():
    f, cert = planted_snake(6)
    pairs = list(cert.pairs)
    lead, trail = pairs[3]
    pairs[3] = (Literal(5, lead.rel, lead.bound), trail)  # lead must sit on b_3
    broken = Snake(tuple(pairs), cert.clause_indices)
    assert not verify_snake(f, broken)


def test_verify_snake_errors():
    f, cert = planted_snake(6)
    with pytest.raises(OddLength):
        verify_snake(f, Snake(cert.pairs[:6], cert.clause_indices[:6]))
    with pytest.raises(OddLength):
        verify_snake(f, Snake(cert.pairs[:5], cert.clause_indices[:5]))
    with pytest.raises(IndexOutOfRange):
        verify_snake(f, Snake(cert.pairs, (0, 1, 2, 3, 4, 5, 42)))
    with pytest.raises(WrongArity):
        verify_snake(sample_formula(GenConfig(k=3, n=6, m=3, seed=0)), cert)


@pytest.mark.parametrize(
    "entry",
    [
        solve_2rsat_scc,
        build_implication_digraph,
        find_bicycle,
        find_snake,
        lambda f: verify_bicycle(f, handmade_bicycle()[1]),
        lambda f: verify_snake(f, planted_snake(6)[1]),
    ],
    ids=["solve_2rsat_scc", "build_implication_digraph", "find_bicycle", "find_snake",
         "verify_bicycle", "verify_snake"],
)
def test_width_two_entry_points_reject_width_three(entry):
    f = sample_formula(GenConfig(k=3, n=6, m=3, seed=0))  # m < 7: find_snake's small-m shortcut
    with pytest.raises(WrongArity, match="k = 2"):
        entry(f)


def test_find_snake_on_planted_instances():
    for ell in (6, 8):
        f, _ = planted_snake(ell)
        found = find_snake(f)
        assert found is not None
        assert verify_snake(f, found)


def test_find_snake_on_long_ring():
    # the satisfiable ring holds no snake, and is not searched
    f = ring_formula(1500)
    assert solve_2rsat_scc(f).sat
    assert find_snake(f) is None


def test_find_snake_on_unsatisfiable_long_ring():
    # y <= 1/3 and y >= 2/3 refute the ring, whose walks still go 1500 chains
    # deep, past the interpreter's recursion limit
    ring = ring_formula(1500)
    y = ring.n + 1
    extra = ((Literal(y, Rel.LE, F(1, 3)),) * 2, (Literal(y, Rel.GE, F(2, 3)),) * 2)
    f = Formula(2, y, ring.clauses + extra, CONTINUOUS)
    assert not solve_2rsat_scc(f).sat
    assert find_snake(f, budget=50_000) is None


@pytest.mark.parametrize("budget, error", [(0, InvalidConfig), (-3, InvalidConfig),
                                           (True, TypeError), (2.5, TypeError)])
def test_find_snake_checks_its_budget(budget, error):
    # this formula holds a snake that budget=200_000 finds
    f = sample_formula(GenConfig(2, 200, 600, seed=1))
    assert verify_snake(f, find_snake(f, budget=200_000))
    with pytest.raises(error):
        find_snake(f, budget=budget)


def test_find_snake_needs_seven_clauses():
    f = sample_formula(GenConfig(k=2, n=10, m=6, seed=3))
    assert find_snake(f) is None


def test_found_snakes_certify_unsat():
    found_count = 0
    for seed in range(25):
        f = sample_formula(GenConfig(k=2, n=24, m=96, seed=50_000 + seed))
        cert = find_snake(f, budget=200_000)
        if cert is None:
            continue
        found_count += 1
        assert verify_snake(f, cert)
        assert not solve_2rsat_scc(f).sat
        assert not solve_complete(f).sat
    assert found_count > 0


# render_certificate digests of find_snake, recorded before the snake
# search pruned on the compiled formula; None: no snake within budget
SNAKE_PINS = {
    50_000: "16d7d3523ff97098ec9d37e2468e770c4715d394dcdd28b170e8ed2b7fed5bfa",
    50_001: "48a96f36f37c09be2d2d1dca0f5da539dbf7a25a2c92d35b31bb2cc9d1479217",
    50_002: "a5924485364cd306663cf70b85f8e6b0eee02fc2735c904c4e83478aa8e27c5a",
    50_003: None,
    50_004: "f6a0a077a0458f0d406ded55bbc723b193e128cabf83da3e67193c2175244e56",
    50_005: "ead744488516b469465e8c3f6ba24ae822e1ce25e785336143af9f8048d9ddcc",
    50_006: None,
    50_007: None,
}


def _digest(cert):
    """sha256 of a certificate's file, after checking that its derived
    fields agree with its chain and that the file parses back to it."""
    assert cert.ell == len(cert.pairs) - 1
    if isinstance(cert, Snake):
        assert cert.b == tuple(lead.var for lead, _ in cert.pairs[1:])
    text = rsat.render_certificate(cert)
    assert rsat.parse_certificate(text) == cert
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(SNAKE_PINS))
def test_find_snake_pinned(seed):
    f = sample_formula(GenConfig(k=2, n=24, m=96, seed=seed))
    cert = find_snake(f, budget=200_000)
    assert (None if cert is None else _digest(cert)) == SNAKE_PINS[seed]


def _outcome(cert):
    """A finder's result as pinned: NONE, BUDGET_EXHAUSTED or its digest."""
    if cert is None:
        return "NONE"
    if cert is BUDGET_EXHAUSTED:
        return "BUDGET_EXHAUSTED"
    return _digest(cert)


# exhaustive_bicycle outcomes for seeds 60000-60009 on distinct-variables
# formulas with n=8, m=16, recorded while both finders still compared
# Fraction bounds and the bicycle finder was this depth-first search; keyed
# by value set and budget (None: DEFAULT_FIND_BUDGET).  Budget 50 pins the
# step count.
BICYCLE_PINS = {
    ("finite:3", None): [
        "NONE",
        "68eb0c87d5479ba619d9e009bffe9df2fd16d8b1c2d4f27da914af3173ca25c9",
        "3b42a4f5141c0d46a3e39cc15dea818d3320d06ba4e790063248a0121aca9251",
        "NONE",
        "NONE",
        "ab7ac80f967897a0355a50682aa4f402f0a6ff559bcadb40f0ff94fbbb6c2ccf",
        "dc64e84e33494c90f1d16e9820d64c5846ceeb4942330f56e09917c813b9779a",
        "f979764eaafecaee62716da4fce1fae5a811f456a40303b346d933aa37038d5e",
        "NONE",
        "4d9afa0794d6998277f4c1ec664e19d816849411ca864b9cebd43c00507a220d",
    ],
    ("finite:3", 50): [
        "BUDGET_EXHAUSTED",
        "68eb0c87d5479ba619d9e009bffe9df2fd16d8b1c2d4f27da914af3173ca25c9",
        "3b42a4f5141c0d46a3e39cc15dea818d3320d06ba4e790063248a0121aca9251",
        "BUDGET_EXHAUSTED",
        "BUDGET_EXHAUSTED",
        "ab7ac80f967897a0355a50682aa4f402f0a6ff559bcadb40f0ff94fbbb6c2ccf",
        "dc64e84e33494c90f1d16e9820d64c5846ceeb4942330f56e09917c813b9779a",
        "f979764eaafecaee62716da4fce1fae5a811f456a40303b346d933aa37038d5e",
        "BUDGET_EXHAUSTED",
        "BUDGET_EXHAUSTED",
    ],
    ("dyadic:2", None): [
        "NONE",
        "1adce33ad4154f105d6ff6b144ac2894de331d1904f3def6be4f2a3c5fecb562",
        "acb209b20fd38be66e061595adbbccda97b071f576da58b90b0823cbac41cee9",
        "NONE",
        "NONE",
        "dada84d8539cda43346cc72322726a4dd78bd3b0b71572e591a91e54690c862f",
        "0dd0a01afb8610630c5b2a140352bd3973cce25a1eee6fd7d547cfbb5c6c1788",
        "f9cc6c472e41300d02b9f87245d1b1cedfb1dabc5888936f7daab099d479160e",
        "NONE",
        "440412f6283b7004b0567d88af9b0d60f0af0418d8d165a3688a86a0f288e32a",
    ],
    ("dyadic:2", 50): [
        "BUDGET_EXHAUSTED",
        "1adce33ad4154f105d6ff6b144ac2894de331d1904f3def6be4f2a3c5fecb562",
        "acb209b20fd38be66e061595adbbccda97b071f576da58b90b0823cbac41cee9",
        "BUDGET_EXHAUSTED",
        "BUDGET_EXHAUSTED",
        "dada84d8539cda43346cc72322726a4dd78bd3b0b71572e591a91e54690c862f",
        "0dd0a01afb8610630c5b2a140352bd3973cce25a1eee6fd7d547cfbb5c6c1788",
        "f9cc6c472e41300d02b9f87245d1b1cedfb1dabc5888936f7daab099d479160e",
        "BUDGET_EXHAUSTED",
        "440412f6283b7004b0567d88af9b0d60f0af0418d8d165a3688a86a0f288e32a",
    ],
    ("continuous", None): [
        "NONE",
        "455de2e53586819271f0f0f28bf9f3258f1b38dc072fd518974bf87e7be473cd",
        "9755bf0cf699d7d6f8466695c98f8b536bbc851dd04d2c5fa20262922e632ae0",
        "NONE",
        "NONE",
        "04ecc99abcee1379f05d7459cefea680c1cae1159f7b42a35841536ef8ed0d19",
        "7e2fdd35abab7b34df57715576eff561485e47e7778557774ac3fff420cd8a55",
        "NONE",
        "NONE",
        "984ff46263864c98ba1d7a5673e59e500dff60a25c686f55eb8bbacdb072f150",
    ],
    ("continuous", 50): [
        "BUDGET_EXHAUSTED",
        "455de2e53586819271f0f0f28bf9f3258f1b38dc072fd518974bf87e7be473cd",
        "9755bf0cf699d7d6f8466695c98f8b536bbc851dd04d2c5fa20262922e632ae0",
        "BUDGET_EXHAUSTED",
        "BUDGET_EXHAUSTED",
        "04ecc99abcee1379f05d7459cefea680c1cae1159f7b42a35841536ef8ed0d19",
        "7e2fdd35abab7b34df57715576eff561485e47e7778557774ac3fff420cd8a55",
        "BUDGET_EXHAUSTED",
        "BUDGET_EXHAUSTED",
        "984ff46263864c98ba1d7a5673e59e500dff60a25c686f55eb8bbacdb072f150",
    ],
}


@pytest.mark.parametrize("token, budget", list(BICYCLE_PINS))
def test_find_bicycle_pinned(token, budget):
    outcomes = []
    for seed in range(60_000, 60_010):
        f = sample_formula(GenConfig(k=2, n=8, m=16, vspec=vspec_from_token(token),
                                     seed=seed, distinct_vars_per_clause=True))
        outcomes.append(_outcome(exhaustive_bicycle(f, budget or DEFAULT_FIND_BUDGET)))
    assert outcomes == BICYCLE_PINS[token, budget]


# find_bicycle outcomes on the formulas of BICYCLE_PINS, recorded when the
# finder became one walk; it reports NONE where the exhaustive search found
# a bicycle at finite:3 and dyadic:2 seed 60007 and continuous seed 60002,
# all three satisfiable
BICYCLE_WALK_PINS = {
    "finite:3": [
        "NONE",
        "68eb0c87d5479ba619d9e009bffe9df2fd16d8b1c2d4f27da914af3173ca25c9",
        "4ba459bcbdf22682997d09a560aa67b39f7aa95675fd3e4511711106fecbebe1",
        "NONE",
        "NONE",
        "f2485652afc303c7bc611f425c3544ed70a67c3e195721ac43c77c34d68571e0",
        "2a2d0dd3a4dab1dc614d77b49de76d0695499d283c1ce85541eba36ad88a118e",
        "NONE",
        "NONE",
        "4d9afa0794d6998277f4c1ec664e19d816849411ca864b9cebd43c00507a220d",
    ],
    "dyadic:2": [
        "NONE",
        "1adce33ad4154f105d6ff6b144ac2894de331d1904f3def6be4f2a3c5fecb562",
        "acb209b20fd38be66e061595adbbccda97b071f576da58b90b0823cbac41cee9",
        "NONE",
        "NONE",
        "d4430f9862291b96692931c04485ee9a8141f229420faa43692e5d184a95e2b6",
        "b9cdb93f96e6108439c2e071d756918c8219498b27a688dea2dc12b6696ed29d",
        "NONE",
        "NONE",
        "440412f6283b7004b0567d88af9b0d60f0af0418d8d165a3688a86a0f288e32a",
    ],
    "continuous": [
        "NONE",
        "455de2e53586819271f0f0f28bf9f3258f1b38dc072fd518974bf87e7be473cd",
        "NONE",
        "NONE",
        "NONE",
        "39e8aaf71a48ed2eb5bb255dd71b1ce5b77ba66f298329f00cd21c1f575b9aa3",
        "8a84c9908f193049588848ac4d0b67c03c12e43ba4f843879e9bfbeff49d2399",
        "NONE",
        "NONE",
        "984ff46263864c98ba1d7a5673e59e500dff60a25c686f55eb8bbacdb072f150",
    ],
}


@pytest.mark.parametrize("token", list(BICYCLE_WALK_PINS))
def test_find_bicycle_walk_pinned(token):
    outcomes = []
    for seed in range(60_000, 60_010):
        f = sample_formula(GenConfig(k=2, n=8, m=16, vspec=vspec_from_token(token),
                                     seed=seed, distinct_vars_per_clause=True))
        outcomes.append(_outcome(find_bicycle(f)))
    assert outcomes == BICYCLE_WALK_PINS[token]


@pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "repeats"])
def test_find_bicycle_against_exhaustive_search(distinct):
    # the walk is sound against the exhaustive search, and on the
    # distinct-variables model it finds a bicycle in every UNSAT formula
    grid = itertools.product(("finite:3", "finite:5", "dyadic:2", "continuous"),
                             (8, 16, 32), (2, F(5, 2)), range(2))
    nones = unsat_seen = 0
    for i, (token, n, c, rep) in enumerate(grid):
        f = sample_formula(GenConfig(k=2, n=n, m=int(c * n), vspec=vspec_from_token(token),
                                     seed=61_000 + i, distinct_vars_per_clause=distinct))
        found = find_bicycle(f)
        oracle = exhaustive_bicycle(f, 200_000)
        if found is not None:
            assert verify_bicycle(f, found)
            assert oracle is not None
        if oracle is None:
            nones += 1
            assert found is None
        if distinct and not solve_2rsat_scc(f).sat:
            unsat_seen += 1
            assert found is not None
    assert nones > 0 and (unsat_seen > 0 or not distinct)


# find_snake outcomes for seeds 70000-70009 with n=24, m=72, recorded with
# BICYCLE_PINS; bounds on these grids often tie, and a tie is not disjoint
SNAKE_GRID_PINS = {
    "finite:3": [
        "3a7f6804ec57fdf0254d977fdf82325db5682590de7a9bcdece1f90264162b78",
        "bc404f084d54ba51fdf10e45fdac7a793906c0dde35d34856042812db140740b",
        "b51f0d482f6368b3258a8e34be1c5e57f43b57c1b3621f707df5086088dca9f1",
        "ba0518aa0ae467dde5de575d8b49859bd458223e8f734123eccde410e736528f",
        "NONE",
        "6852cc35b8006a084b00908e45035d922e3018d7533abad8d6748c61aad47d96",
        "NONE",
        "feacee972561dd06d10bc174da792edd77888494370df98e7b3282a4f7ee5668",
        "5be4c334c27589a58acb95b797c49db730795c5e789019b4eea61e95ed70f7a7",
        "34bd0e8a454de4ba736898197250d8691d8f179820163551475d7786dcfd32ac",
    ],
    "dyadic:2": [
        "NONE",
        "a98b9e6f0502e37399fd3c0a6ffce134c62bb13f7a6285364d87b092ee707c58",
        "624ff6c5a7d0eaa03ec71a4a9c94523da5cac2d1935f37696b91d682e20a1beb",
        "NONE",
        "NONE",
        "NONE",
        "NONE",
        "55a97ee295dea34b00e607035a43d5567d0b6c7126446a45b1ec677c94c36541",
        "NONE",
        "3b4123e654eb4d3dc6afd15e5b1ce3e527db66dacb97087caf806e1a09f77693",
    ],
}


@pytest.mark.parametrize("token", sorted(SNAKE_GRID_PINS))
def test_find_snake_pinned_on_grids(token):
    outcomes = []
    for seed in range(70_000, 70_010):
        f = sample_formula(GenConfig(k=2, n=24, m=72, vspec=vspec_from_token(token), seed=seed))
        outcomes.append(_outcome(find_snake(f, budget=200_000)))
    assert outcomes == SNAKE_GRID_PINS[token]


@pytest.mark.parametrize("token", ["continuous", "finite:3", "dyadic:2"])
def test_chain_graph_disjointness_matches_literals(token):
    ties = 0
    for seed in range(70_000, 70_010):
        f = sample_formula(GenConfig(k=2, n=24, m=72, vspec=vspec_from_token(token), seed=seed))
        c = rank_candidates(compile_formula(f))
        d = reduce_candidates(compile_formula(f))
        # the rule on every candidate's ranks, and on the reduced ranks the finders read
        rules = [_chain_graph(form, *literal_components(form)[:2])[1] for form in (c, d)]
        lits = [lit for clause in f.clauses for lit in clause]
        for a, b in itertools.product(range(len(lits)), repeat=2):
            if c.var[a] == c.var[b]:
                expected = signs_disjoint(lits[a], lits[b])
                assert [disjoint(a, b) for disjoint in rules] == [expected] * 2, (seed, a, b)
                ties += c.ge[a] != c.ge[b] and c.rank[a] == c.rank[b]
    assert ties > 0 or token == "continuous"


@pytest.mark.parametrize("token", ["continuous", "finite:2", "finite:3", "finite:5", "dyadic:2"])
def test_chain_graph_is_the_same_over_every_candidate(token):
    # the finders build the chain graph on the reduced form, its ranks and
    # components; it must not change, successor lists and key order included
    kept = 0
    for seed in range(60):
        n = 4 + seed % 20
        cfg = GenConfig(k=2, n=n, m=n + (seed * 5) % (2 * n), vspec=vspec_from_token(token),
                        seed=71_000 + seed, distinct_vars_per_clause=seed % 2 == 1)
        c = compile_formula(sample_formula(cfg))
        every = rank_candidates(c)
        full, _ = _chain_graph(every, *literal_components(every)[:2])
        d = reduce_candidates(c)
        reduced, _ = _chain_graph(d, *literal_components(d)[:2])
        assert list(full.items()) == list(reduced.items()), seed
        kept += len(full)
    assert kept > 0


def test_verify_snake_only_guards_returned_snakes(monkeypatch):
    calls = []
    monkeypatch.setattr(rsat.certificates, "verify_snake",
                        lambda f, cert: calls.append(cert) or verify_snake(f, cert))
    formulas = [GenConfig(k=2, n=24, m=96, seed=seed) for seed in SNAKE_PINS]
    formulas += [GenConfig(k=2, n=24, m=72, vspec=vspec_from_token(token), seed=seed)
                 for token in SNAKE_GRID_PINS for seed in range(70_000, 70_010)]
    snakes = 0
    for cfg in formulas:
        calls.clear()
        cert = find_snake(sample_formula(cfg), budget=200_000)
        assert calls == ([] if cert is None else [cert])
        snakes += cert is not None
    assert snakes == 17


# ---------------------------------------------------------------------------
# rejections of certificates whose clauses are in the formula


def own_formula(pairs):
    """The formula whose clauses are exactly ``pairs``, so membership holds."""
    n = max(lit.var for pair in pairs for lit in pair)
    return Formula(2, n, tuple(pairs), CONTINUOUS)


@pytest.mark.parametrize(
    "pairs, i0, i1",
    [
        # bc1: t_1 and t_3 share x1; every link and both folds hold
        (((le(2, 9), ge(1, 6)), (le(1, 4), ge(2, 6)), (le(2, 4), ge(1, 6)), (le(1, 4), ge(2, 1))),
         2, 2),
        # bc2: t_1 on x1 links to f_1 on x3
        (((le(2, 9), ge(1, 6)), (le(3, 4), ge(2, 6)), (le(2, 4), ge(1, 1))), 2, 1),
        # bc5: t_1 = (x1 >= 0.6) and f_1 = (x1 <= 0.8) overlap
        (((le(2, 9), ge(1, 6)), (le(1, 8), ge(2, 6)), (le(2, 4), ge(1, 1))), 2, 1),
    ],
    ids=["bc1", "bc2", "bc5"],
)
def test_verify_bicycle_rejects_one_broken_condition(pairs, i0, i1):
    cert = Bicycle(pairs, i0, i1, tuple(range(len(pairs))))
    assert not verify_bicycle(own_formula(pairs), cert)


@pytest.mark.parametrize(
    "slot, literal",
    [
        ((0, 1), le(7, 3)),  # variables: clause 0's trail must sit on b_1 = x1
        ((4, 0), ge(4, 2)),  # sk1: (x4 <= 0.3) then (x4 >= 0.2) overlap
        ((0, 0), le(3, 7)),  # sk2: the closing trail (x3 >= 0.7) meets x3 <= 0.7
        ((2, 1), le(3, 7)),  # sk3: the middle trail meets the closing trail at 0.7
    ],
    ids=["variables", "sk1", "sk2", "sk3"],
)
def test_verify_snake_rejects_one_broken_condition(slot, literal):
    _, cert = planted_snake(6)
    pairs = [list(pair) for pair in cert.pairs]
    pairs[slot[0]][slot[1]] = literal
    pairs = tuple(map(tuple, pairs))
    assert not verify_snake(own_formula(pairs), Snake(pairs, cert.clause_indices))


def test_certificates_need_one_clause_index_per_pair():
    _, bicycle = handmade_bicycle()
    with pytest.raises(ValueError, match="bicycle of ell=2 needs 3 clause indices"):
        Bicycle(bicycle.pairs, 2, 1, (0, 1))
    _, snake = planted_snake(6)
    with pytest.raises(ValueError, match="snake of ell=6 needs 7 clause indices"):
        Snake(snake.pairs, tuple(range(6)))


def test_finders_raise_on_a_rejected_certificate(monkeypatch):
    unsat = sample_formula(GenConfig(k=2, n=24, m=72, seed=1, distinct_vars_per_clause=True))
    assert not solve_2rsat_scc(unsat).sat
    monkeypatch.setattr(rsat.certificates, "verify_bicycle", lambda f, cert: False)
    with pytest.raises(AssertionError, match="bicycle finder produced an invalid certificate"):
        find_bicycle(unsat)
    monkeypatch.setattr(rsat.certificates, "verify_snake", lambda f, cert: False)
    with pytest.raises(AssertionError, match="snake finder produced an invalid certificate"):
        find_snake(planted_snake(6)[0])
