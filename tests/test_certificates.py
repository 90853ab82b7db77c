import hashlib
from fractions import Fraction as F

import pytest

import rsat
from rsat import (
    BUDGET_EXHAUSTED,
    CONTINUOUS,
    Bicycle,
    Formula,
    GenConfig,
    IndexOutOfRange,
    Literal,
    OddLength,
    Rel,
    Snake,
    WrongArity,
    find_bicycle,
    find_snake,
    sample_formula,
    solve_2rsat_scc,
    solve_complete,
    verify_bicycle,
    verify_snake,
)


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
        ell=2,
        literals=(f0, t1, f1, t2, f2, t3),
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
    wrong = Bicycle(cert.ell, cert.literals, cert.i0, cert.i1, (1, 1, 2))
    assert not verify_bicycle(f, wrong)


def test_verify_bicycle_bc5_failure():
    f, cert = handmade_bicycle()
    lits = list(cert.literals)
    lits[2] = le(1, 8)  # no longer disjoint from t1 = (x1 >= 0.6)
    broken = Bicycle(cert.ell, tuple(lits), cert.i0, cert.i1, cert.clause_indices)
    assert not verify_bicycle(f, broken)


def test_verify_bicycle_errors_and_ranges():
    f, cert = handmade_bicycle()
    with pytest.raises(IndexOutOfRange):
        verify_bicycle(f, Bicycle(cert.ell, cert.literals, cert.i0, cert.i1, (0, 1, 99)))
    assert not verify_bicycle(f, Bicycle(cert.ell, cert.literals, 1, 1, cert.clause_indices))
    with pytest.raises(WrongArity):
        verify_bicycle(sample_formula(GenConfig(k=3, n=3, m=2, seed=0)), cert)
    with pytest.raises(ValueError):
        Bicycle(2, cert.literals[:-1], 2, 1, (0, 1, 2))


def test_find_bicycle_on_planted_instance():
    f, _ = handmade_bicycle()
    assert solve_2rsat_scc(f).sat == solve_complete(f).sat  # adversarial agreement
    found = find_bicycle(f)
    assert found is not None and found is not BUDGET_EXHAUSTED
    assert verify_bicycle(f, found)


def test_find_bicycle_budget_exhaustion():
    f = sample_formula(GenConfig(k=2, n=8, m=24, seed=777, distinct_vars_per_clause=True))
    assert find_bicycle(f, budget=1) is BUDGET_EXHAUSTED


def test_exhausted_none_implies_sat_on_distinct_model():
    # the sound reading of bicycle necessity: a fully searched NONE means SAT
    # (for the distinct-variables model; see the repeats-allowed gap below)
    nones = 0
    for seed in range(60):
        f = sample_formula(
            GenConfig(k=2, n=8, m=20, seed=40_000 + seed, distinct_vars_per_clause=True)
        )
        out = find_bicycle(f, budget=3_000_000)
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
    found = find_bicycle(f)
    assert found and verify_bicycle(f, found)
    assert solve_complete(f).sat


def test_unsat_without_bicycle_when_clauses_repeat_variables():
    # with clause-internal variable repeats, unsatisfiability can rest on a
    # single-variable core that no bicycle (>= 2 distinct chain variables)
    # can witness; the chain lemma only covers the distinct-variables model
    lo, hi = le(1, 3), ge(1, 7)
    f = Formula(2, 1, ((lo, lo), (hi, hi)), CONTINUOUS)
    assert not solve_complete(f).sat
    assert find_bicycle(f, budget=1_000_000) is None


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
    cert = Snake(ell, tuple(b), tuple(pairs), tuple(range(ell + 1)))
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
    broken = Snake(cert.ell, cert.b, tuple(pairs), cert.clause_indices)
    assert not verify_snake(f, broken)


def test_verify_snake_middle_identity_failure():
    f, cert = planted_snake(6)
    pairs = list(cert.pairs)
    lead, trail = pairs[3]
    pairs[3] = (Literal(5, lead.rel, lead.bound), trail)  # lead must sit on b_3
    broken = Snake(cert.ell, cert.b, tuple(pairs), cert.clause_indices)
    assert not verify_snake(f, broken)


def test_verify_snake_errors():
    f, cert = planted_snake(6)
    with pytest.raises(OddLength):
        verify_snake(f, Snake(5, cert.b[:5], cert.pairs[:6], cert.clause_indices[:6]))
    with pytest.raises(OddLength):
        verify_snake(f, Snake(4, cert.b[:4], cert.pairs[:5], cert.clause_indices[:5]))
    with pytest.raises(IndexOutOfRange):
        verify_snake(f, Snake(cert.ell, cert.b, cert.pairs, (0, 1, 2, 3, 4, 5, 42)))
    with pytest.raises(WrongArity):
        verify_snake(sample_formula(GenConfig(k=3, n=6, m=3, seed=0)), cert)


def test_find_snake_on_planted_instances():
    for ell in (6, 8):
        f, _ = planted_snake(ell)
        found = find_snake(f)
        assert found is not None
        assert verify_snake(f, found)


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


@pytest.mark.parametrize("seed", sorted(SNAKE_PINS))
def test_find_snake_pinned(seed):
    f = sample_formula(GenConfig(k=2, n=24, m=96, seed=seed))
    cert = find_snake(f, budget=200_000)
    digest = None if cert is None else hashlib.sha256(
        rsat.render_certificate(cert).encode()).hexdigest()
    assert digest == SNAKE_PINS[seed]
