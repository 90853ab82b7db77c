import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsat
from rsat import (
    CONTINUOUS,
    Dyadic,
    DuplicateThresholds,
    Finite,
    Formula,
    GenConfig,
    InvalidConfig,
    Literal,
    ProfileMismatch,
    Rel,
    Stream,
    WrongVspec,
    couple_increase_v,
    min_safe_lambda,
    occurrence_profile,
    sample_formula,
    sample_formula_given_profile,
    truncate_thresholds,
)
from oracles import three_sigma


def test_invalid_config():
    with pytest.raises(InvalidConfig):
        GenConfig(k=2, n=1, m=1, distinct_vars_per_clause=True)
    with pytest.raises(InvalidConfig):
        GenConfig(k=1, n=5, m=1)


def test_determinism_bit_identical():
    cfg = GenConfig(k=3, n=20, m=40, vspec=CONTINUOUS, seed=987654321)
    assert sample_formula(cfg) == sample_formula(cfg)
    assert rsat.render_formula(sample_formula(cfg)) == rsat.render_formula(sample_formula(cfg))
    other = GenConfig(k=3, n=20, m=40, vspec=CONTINUOUS, seed=987654322)
    assert sample_formula(other) != sample_formula(cfg)


def test_finite2_produces_classical_literals():
    f = sample_formula(GenConfig(k=2, n=6, m=40, vspec=Finite(2), seed=5))
    for clause in f.clauses:
        for lit in clause:
            assert (lit.rel, lit.bound) in ((Rel.LE, F(0)), (Rel.GE, F(1)))


@pytest.mark.parametrize("vspec", [Finite(2), Finite(5), Dyadic(0), Dyadic(3), CONTINUOUS])
def test_no_innocuous_literals_and_bounds_in_v(vspec):
    f = sample_formula(GenConfig(k=2, n=8, m=60, vspec=vspec, seed=11))
    for clause in f.clauses:
        for lit in clause:
            assert not (lit.rel is Rel.LE and lit.bound == 1)
            assert not (lit.rel is Rel.GE and lit.bound == 0)
            assert rsat.vspec_contains(vspec, lit.bound)


def test_distinct_vars_per_clause():
    f = sample_formula(GenConfig(k=4, n=6, m=50, distinct_vars_per_clause=True, seed=3))
    for clause in f.clauses:
        assert len({lit.var for lit in clause}) == 4


def test_variable_marginal_is_uniform():
    n, m = 5, 4000
    f = sample_formula(GenConfig(k=2, n=n, m=m, seed=17))
    prof = occurrence_profile(f)
    expected = 2 * m / n
    for r in prof:
        assert abs(r - expected) < 3 * (2 * m * (1 / n) * (1 - 1 / n)) ** 0.5


def test_satisfaction_probability_at_half():
    # fraction of random continuous constraints satisfied by x = 1/2 is 1/2
    f = sample_formula(GenConfig(k=2, n=1, m=50_000, vspec=CONTINUOUS, seed=23))
    half = F(1, 2)
    hits = sum(rsat.eval_literal(lit, half) for cl in f.clauses for lit in cl)
    assert abs(hits / 100_000 - 0.5) < three_sigma(0.5, 100_000)


def test_distinct_thresholds_switch():
    f = sample_formula(
        GenConfig(k=2, n=4, m=6, vspec=Finite(17), seed=29, distinct_thresholds=True)
    )
    sides = [lit.encoded_rhs() for cl in f.clauses for lit in cl]
    assert len(set(sides)) == len(sides)
    with pytest.raises(InvalidConfig):  # only 1 available side for 4 slots
        sample_formula(GenConfig(k=2, n=2, m=2, vspec=Finite(2), seed=1, distinct_thresholds=True))


# ---------------------------------------------------------------------------
# profile-conditioned sampling


def test_profile_identity_and_extremes():
    cfg = GenConfig(k=2, n=4, m=6, seed=31)
    prof = [12, 0, 0, 0]
    f = sample_formula_given_profile(cfg, prof)
    assert occurrence_profile(f) == prof
    assert all(lit.var == 1 for cl in f.clauses for lit in cl)

    prof = [3, 3, 3, 3]
    f = sample_formula_given_profile(cfg, prof)
    assert occurrence_profile(f) == prof


def test_profile_mismatch_and_distinct_flag():
    cfg = GenConfig(k=2, n=3, m=2, seed=1)
    with pytest.raises(ProfileMismatch):
        sample_formula_given_profile(cfg, [1, 1, 1])
    with pytest.raises(ProfileMismatch):
        sample_formula_given_profile(cfg, [4, 0])
    bad = GenConfig(k=2, n=3, m=2, seed=1, distinct_vars_per_clause=True)
    with pytest.raises(InvalidConfig):
        sample_formula_given_profile(bad, [2, 1, 1])


def test_occurrence_law_matches_multinomial():
    # n=2, k=2, m=1: Pr[R=(2,0)] = 1/4, Pr[R=(1,1)] = 1/2, Pr[R=(0,2)] = 1/4
    trials = 100_000
    counts = {(2, 0): 0, (1, 1): 0, (0, 2): 0}
    for seed in range(trials):
        f = sample_formula(GenConfig(k=2, n=2, m=1, seed=seed))
        counts[tuple(occurrence_profile(f))] += 1
    for profile, p in (((2, 0), 0.25), ((1, 1), 0.5), ((0, 2), 0.25)):
        assert abs(counts[profile] / trials - p) < three_sigma(p, trials)


# ---------------------------------------------------------------------------
# coupling: one step up in v


def test_couple_requires_finite():
    f = sample_formula(GenConfig(k=2, n=3, m=3, vspec=CONTINUOUS, seed=2))
    with pytest.raises(WrongVspec):
        couple_increase_v(f, seed=0)


def test_couple_shape_and_step():
    v = 4
    f = sample_formula(GenConfig(k=2, n=6, m=25, vspec=Finite(v), seed=41))
    pair = couple_increase_v(f, seed=42)
    assert pair.low is f
    assert pair.high.vspec == Finite(v + 1)
    assert pair.high.m == f.m and pair.high.n == f.n
    for low_cl, high_cl in zip(f.clauses, pair.high.clauses):
        for low_lit, high_lit in zip(low_cl, high_cl):
            assert low_lit.var == high_lit.var
            assert low_lit.rel is high_lit.rel
            u = int(low_lit.encoded_rhs() * (v - 1))
            assert high_lit.encoded_rhs() in (F(u, v), F(u + 1, v))


def test_couple_marginal_uniform_v2():
    # single step from v=2: encoded side 0 bumps to 1/2 with probability 1/2
    f = sample_formula(GenConfig(k=2, n=1, m=20_000, vspec=Finite(2), seed=43))
    pair = couple_increase_v(f, seed=44)
    sides = [lit.encoded_rhs() for cl in pair.high.clauses for lit in cl]
    frac_half = sum(s == F(1, 2) for s in sides) / len(sides)
    assert abs(frac_half - 0.5) < three_sigma(0.5, len(sides))


def test_couple_marginal_uniform_two_steps():
    # v=2 -> v=3 -> v=4: after two steps the sides are uniform on {0, 1/3, 2/3}
    f = sample_formula(GenConfig(k=2, n=1, m=50_000, vspec=Finite(2), seed=45))
    mid = couple_increase_v(f, seed=46).high
    high = couple_increase_v(mid, seed=47).high
    sides = [lit.encoded_rhs() for cl in high.clauses for lit in cl]
    total = len(sides)
    for target in (F(0), F(1, 3), F(2, 3)):
        frac = sum(s == target for s in sides) / total
        assert abs(frac - 1 / 3) < three_sigma(1 / 3, total)


def _bump_kernel_law(v):
    """Exact law of the kernel's high encoded side, from a uniform low side."""
    law = {}
    for u in range(v - 1):
        p_bump = F(u + 1, v)
        law[F(u + 1, v)] = law.get(F(u + 1, v), 0) + p_bump / (v - 1)
        law[F(u, v)] = law.get(F(u, v), 0) + (1 - p_bump) / (v - 1)
    return law


def _tail(law, t):
    return sum(p for x, p in law.items() if x >= t)


@pytest.mark.parametrize("v", range(2, 17))
def test_couple_law_uniform_but_not_dominating(v):
    # why C5 cannot ask for zero sat -> unsat flips: high dominates low, as
    # any pointwise-weakening coupling needs, only for v = 2
    low = {F(u, v - 1): F(1, v - 1) for u in range(v - 1)}
    high = _bump_kernel_law(v)
    assert high == {F(u, v): F(1, v) for u in range(v)}
    dominated = all(_tail(high, t) >= _tail(low, t) for t in set(low) | set(high))
    assert dominated == (v == 2)
    if v >= 3:
        t = F(v - 2, v - 1)
        assert (_tail(high, t), _tail(low, t)) == (F(1, v), F(1, v - 1))


@pytest.mark.parametrize("v", range(2, 17))
def test_couple_bumped_slots_weaken_unbumped_slots_tighten(v):
    f = sample_formula(GenConfig(k=2, n=3, m=400, vspec=Finite(v), seed=48 + v))
    pair = couple_increase_v(f, seed=49 + v)
    weakened = 0
    tightened = {Rel.LE: 0, Rel.GE: 0}
    for low_cl, high_cl in zip(f.clauses, pair.high.clauses):
        for low_lit, high_lit in zip(low_cl, high_cl):
            a, b = low_lit.encoded_rhs(), high_lit.encoded_rhs()
            u = int(a * (v - 1))
            # a larger encoded side is a weaker literal for both relations
            if b == F(u + 1, v):
                assert b > a
                weakened += 1
            elif u >= 1:
                assert b < a
                tightened[low_lit.rel] += 1
            else:
                assert b == a == 0
    assert weakened > 0
    if v >= 3:
        assert all(tightened.values()), tightened


# ---------------------------------------------------------------------------
# truncation and the dyadic ladder


def test_truncate_examples():
    lit = Literal(1, Rel.LE, F(5, 8))  # encoded 0.101
    f = Formula(2, 1, ((lit, lit),), CONTINUOUS)
    g = truncate_thresholds(f, 2)
    assert g.vspec == Dyadic(2)
    assert g.clauses[0][0].bound == F(1, 2)

    zeroed = truncate_thresholds(f, 0)
    assert zeroed.vspec == Dyadic(0)
    assert zeroed.clauses[0][0].bound == F(0)

    ge_lit = Literal(1, Rel.GE, F(3, 8))  # encoded 0.101
    g2 = truncate_thresholds(Formula(2, 1, ((ge_lit, ge_lit),), CONTINUOUS), 2)
    assert g2.clauses[0][0].bound == F(1, 2)  # encoded floor 1/2, bound 1 - 1/2


def test_truncate_only_strengthens():
    f = sample_formula(GenConfig(k=2, n=8, m=30, vspec=CONTINUOUS, seed=51))
    g = truncate_thresholds(f, 6)
    for fc, gc in zip(f.clauses, g.clauses):
        for fl, gl in zip(fc, gc):
            if fl.rel is Rel.LE:
                assert gl.bound <= fl.bound
            else:
                assert gl.bound >= fl.bound


@pytest.mark.parametrize("seed", range(30))
def test_dyadic_ladder_is_monotone(seed):
    # sharing one continuous draw: satisfiable at lam implies satisfiable at lam' > lam
    f = sample_formula(GenConfig(k=2, n=8, m=20, vspec=CONTINUOUS, seed=1000 + seed))
    previous = False
    for lam in (0, 1, 2, 4, 8, 53):
        sat = rsat.solve_complete(truncate_thresholds(f, lam)).sat
        assert not (previous and not sat)
        previous = sat
    assert rsat.solve_complete(f).sat == previous or rsat.solve_complete(f).sat


# ---------------------------------------------------------------------------
# min_safe_lambda


def _formula_from_sides(pairs):
    lits = []
    for rel, side in pairs:
        bound = side if rel is Rel.LE else 1 - side
        lits.append(Literal(1, rel, bound))
    if len(lits) % 2:
        lits.append(lits[-1])
    clauses = tuple(tuple(lits[i : i + 2]) for i in range(0, len(lits), 2))
    return Formula(2, 1, clauses, CONTINUOUS)


def test_min_safe_lambda_frozen_examples():
    f = _formula_from_sides([(Rel.LE, F(1, 4)), (Rel.LE, F(3, 4))])
    assert min_safe_lambda(f) == 1

    f = _formula_from_sides([(Rel.LE, F(10, 16)), (Rel.LE, F(11, 16))])
    assert min_safe_lambda(f) == 4

    # sides 0.011 and 0.0101 first differ at bit 3, but the complement set
    # {0.101, 0.1011} agrees through bit 3, so 4 bits are needed
    f = _formula_from_sides([(Rel.LE, F(3, 8)), (Rel.LE, F(5, 16))])
    assert min_safe_lambda(f) == 4


def test_min_safe_lambda_duplicate_sides():
    f = _formula_from_sides([(Rel.LE, F(1, 4)), (Rel.GE, F(1, 4))])
    with pytest.raises(DuplicateThresholds):
        min_safe_lambda(f)
    f = _formula_from_sides([(Rel.LE, F(1, 4)), (Rel.GE, F(3, 4))])  # bounds meet at 1/4
    with pytest.raises(DuplicateThresholds):
        min_safe_lambda(f)


def test_min_safe_lambda_order_preservation():
    for seed in range(200):
        stream = Stream(seed)
        sides = sorted({F(stream.bits(8), 256) for _ in range(6)} - {F(1)})
        if len(sides) < 2:
            continue
        f = _formula_from_sides([(Rel.LE, s) for s in sides])
        try:
            lam = min_safe_lambda(f)
        except DuplicateThresholds:
            continue
        scale = 1 << lam
        floors = [(s.numerator * scale) // s.denominator for s in sides]
        assert floors == sorted(set(floors)), "strict order must survive truncation"


@pytest.mark.parametrize("seed", range(60))
def test_truncation_at_min_safe_preserves_satisfiability(seed):
    cfg = GenConfig(k=2 + seed % 2, n=4 + seed % 8, m=4 + (3 * seed) % 20, seed=3000 + seed)
    f = sample_formula(cfg)
    lam = min_safe_lambda(f)
    assert rsat.solve_complete(truncate_thresholds(f, lam)).sat == rsat.solve_complete(f).sat


# ---------------------------------------------------------------------------
# model equivalence


def test_conditional_equivalence_of_models():
    # F' conditioned on distinct clause variables has the law of F
    trials = 60_000
    seen = {}
    for seed in range(trials):
        f = sample_formula(GenConfig(k=2, n=3, m=1, seed=7_000_000 + seed))
        u, w = f.clauses[0]
        if u.var == w.var:
            continue
        seen[(u.var, w.var)] = seen.get((u.var, w.var), 0) + 1
    total = sum(seen.values())
    assert set(seen) == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b}
    for count in seen.values():
        assert abs(count / total - 1 / 6) < three_sigma(1 / 6, total)

    direct = {}
    for seed in range(trials // 2):
        f = sample_formula(
            GenConfig(k=2, n=3, m=1, seed=9_000_000 + seed, distinct_vars_per_clause=True)
        )
        u, w = f.clauses[0]
        assert u.var != w.var
        direct[(u.var, w.var)] = direct.get((u.var, w.var), 0) + 1
    for count in direct.values():
        assert abs(count / (trials // 2) - 1 / 6) < three_sigma(1 / 6, trials // 2)


# ---------------------------------------------------------------------------
# draw-order pins: sha256 of the rendered sample, recorded before the
# sampler drew integer numerators; any change of draw order breaks them


def _digest(f):
    return hashlib.sha256(rsat.render_formula(f).encode()).hexdigest()


@pytest.mark.parametrize(
    "token, distinct_vars, digest",
    [
        ("finite:2", False, "3c0681540ef3a04324753571046a735b173399f1e4c3c95b157ad396d5b6b97c"),
        ("finite:2", True, "27f6e2e091decf5333c2435dcae0020c56ee8b6a2a73d5fd7ac5f0185757c15b"),
        ("finite:5", False, "7b96f5fbb7da9bd40e9d146b024aabbfa36bf47221f7605c279b49e0cef0c7c4"),
        ("finite:5", True, "60c289887fc2d8d814033578ba15219f31239c58f0de051fccd6d1d7a61f1b47"),
        ("dyadic:3", False, "ea3744a8e5f79c0d14705449562f9529313e20af0951a8d165209d670defad96"),
        ("dyadic:3", True, "b3a12701fee024025b490a3ec5a07c05136950607ca9fa1b5f14f47c3a7c08a5"),
        ("continuous", False, "aeac9dfeff2c006694816ad5a87411bc3e3486663d1c3854d99765891cef4641"),
        ("continuous", True, "fb94f078e24bc40772b4b4b2df0029ef16d690d78760c2d91c34b03525e752e8"),
    ],
)
def test_sample_formula_pinned(token, distinct_vars, digest):
    cfg = GenConfig(
        k=3 if distinct_vars else 2, n=30, m=70, vspec=rsat.vspec_from_token(token),
        distinct_vars_per_clause=distinct_vars, seed=4242,
    )
    assert _digest(sample_formula(cfg)) == digest


@pytest.mark.parametrize(
    "token, digest",
    [
        ("dyadic:6", "93ad4bd03425f526732e3d42db15af3624c65053cae3e861970f06a11b70d1ae"),
        ("continuous", "896e4644830e518ccc8f3fcf65a345669f9a603f507c564b7651a0e07be3dfeb"),
    ],
)
def test_distinct_thresholds_pinned(token, digest):
    # 50 slots over dyadic:6's 64 encoded sides, so redraws happen
    cfg = GenConfig(k=2, n=30, m=25, vspec=rsat.vspec_from_token(token), seed=77,
                    distinct_thresholds=True)
    assert _digest(sample_formula(cfg)) == digest


@pytest.mark.parametrize(
    "token, seed, digest",
    [
        ("finite:5", None, "1a011ed50c02b5a55a5144470857a6a70b236b963ddfd07f0144cf11d9b5df4b"),
        ("finite:5", 11, "8abd281b598189b967410dd9c919bf1e41c8bd5e3148ed3f0bf9c395be4df56d"),
        ("continuous", None, "986c54c5b4bade24c690d36e298322d40ffb1d221c1edef512cfcd0a65d9aaef"),
        ("continuous", 11, "d8cfa43f40f18aca652696391fcaea209bfda69ec341de67283f08ac6255f9f6"),
    ],
)
def test_profile_sample_pinned(token, seed, digest):
    cfg = GenConfig(k=2, n=6, m=9, vspec=rsat.vspec_from_token(token), seed=5)
    f = sample_formula_given_profile(cfg, [5, 0, 4, 3, 2, 4], seed=seed)
    assert _digest(f) == digest


@pytest.mark.parametrize(
    "token, digest",
    [
        ("finite:2", "77936d1d9f4bc2bcedd455c4c423c8c5f00c05295cce1505771e6ddd96c5678d"),
        ("dyadic:0", "b62afc1b32397f7436b5cef98c05567c2347231ce441bddb68700631dace1dbb"),
    ],
)
def test_drawless_slots_pinned(token, digest):
    # n = 1 and a one-value encoded side: these slots consume no draws at all
    cfg = GenConfig(k=3, n=1, m=4, vspec=rsat.vspec_from_token(token), seed=3)
    assert _digest(sample_formula(cfg)) == digest
