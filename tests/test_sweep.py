import os
from fractions import Fraction as F

import pytest

import rsat
from rsat import (
    CONTINUOUS,
    Dyadic,
    Finite,
    GenConfig,
    InvalidConfig,
    NoCrossing,
    Rel,
    SweepConfig,
    SweepResult,
    candidate_domains,
    clause_count,
    estimate_crossing,
    render_limited_report,
    render_sweep_csv,
    run_sweep,
    sample_formula,
    solve_2rsat_scc,
    stream_seed,
)
from rsat.solver import _check_witness, compile_formula
from rsat.sweep import CSV_HEADER


def small_config(**overrides):
    base = dict(
        k=2,
        vspecs=(Finite(2),),
        n_values=(30,),
        c_grid=(F(1, 2), F(3, 2)),
        trials=20,
        seed=99,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_clause_count_half_up():
    assert clause_count(F(3, 2), 3) == 5  # 4.5 rounds up
    assert clause_count(F(1, 2), 1) == 1
    assert clause_count(F(5, 2), 1) == 3
    assert clause_count(F(2), 10) == 20


def test_config_validation():
    with pytest.raises(InvalidConfig):
        small_config(trials=0)
    with pytest.raises(InvalidConfig):
        small_config(c_grid=(F(0),))
    with pytest.raises(InvalidConfig):
        small_config(decider="magic")
    with pytest.raises(InvalidConfig):
        small_config(k=3, decider="scc")


def test_sweep_deterministic_and_csv_schema():
    cfg = small_config()
    first = render_sweep_csv(run_sweep(cfg))
    second = render_sweep_csv(run_sweep(cfg))
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(cfg.vspecs) * len(cfg.n_values) * len(cfg.c_grid)
    row = lines[1].split(",")
    assert row[0] == "2" and row[1] == "finite:2" and row[2] == "30"


def test_sweep_parallel_output_matches_serial(monkeypatch):
    cfg = small_config(trials=10)
    serial = render_sweep_csv(run_sweep(cfg))
    monkeypatch.setenv("RSAT_THREADS", "2")
    parallel = render_sweep_csv(run_sweep(cfg))
    assert serial == parallel


def test_low_ratio_cell_is_nearly_always_sat():
    cfg = SweepConfig(
        k=2, vspecs=(Finite(2),), n_values=(50,), c_grid=(F(1, 10),), trials=50, seed=7
    )
    (result,) = run_sweep(cfg)
    assert result.p_hat >= 0.98
    assert result.trials == 50 and result.limited == 0
    assert result.ci_lo <= result.p_hat <= result.ci_hi


def test_limited_trials_are_excluded_and_reported():
    cfg = SweepConfig(
        k=3,
        vspecs=(CONTINUOUS,),
        n_values=(12,),
        c_grid=(F(8),),
        trials=6,
        seed=11,
        decider="complete",
        budget=1,
    )
    (result,) = run_sweep(cfg)
    assert result.limited == 6 and result.trials == 0
    report = render_limited_report([result])
    lines = report.strip().split("\n")
    assert lines[0] == "k,v,n,m,c,requested,limited,flagged"
    assert lines[1].endswith(",6,6,1")  # all six limited, cell flagged


def test_satisfiability_is_monotone_across_value_sets():
    # at a fixed ratio, richer truth-value sets can only help; consecutive
    # cells must not be decisively decreasing (confidence intervals overlap)
    cfg = SweepConfig(
        k=2,
        vspecs=(Finite(2), Finite(3), Finite(5), CONTINUOUS),
        n_values=(300,),
        c_grid=(F(3, 2),),
        trials=60,
        seed=606,
    )
    results = run_sweep(cfg)
    assert results[0].p_hat < 0.5 < results[-1].p_hat  # ends are far apart
    for left, right in zip(results, results[1:]):
        assert right.ci_hi >= left.ci_lo


def _mk(c, p):
    ratio = F(c)
    return SweepResult(
        k=2, vspec=CONTINUOUS, n=100, m=int(ratio * 100), c=ratio, trials=10,
        sat=int(10 * p), p_hat=p, ci_lo=0.0, ci_hi=1.0, seed=0,
    )


def test_estimate_crossing_midpoint():
    results = [_mk("9/5", 1.0), _mk("11/5", 0.0)]
    assert abs(estimate_crossing(results, 0.5) - 2.0) < 1e-12


def test_estimate_crossing_interpolates():
    results = [_mk("1", 0.9), _mk("2", 0.3), _mk("3", 0.1)]
    # crossing between c=1 and c=2: 1 + (0.9-0.5)/(0.9-0.3)
    assert abs(estimate_crossing(results, 0.5) - (1 + 0.4 / 0.6)) < 1e-12


def test_estimate_crossing_errors():
    with pytest.raises(NoCrossing):
        estimate_crossing([_mk("1", 0.9), _mk("2", 0.8)], 0.5)
    with pytest.raises(NoCrossing):
        estimate_crossing([], 0.5)
    mixed = [_mk("1", 0.9), _mk("2", 0.1)]
    mixed[1] = SweepResult(
        k=2, vspec=Finite(2), n=100, m=200, c=F(2), trials=10,
        sat=1, p_hat=0.1, ci_lo=0.0, ci_hi=1.0, seed=0,
    )
    with pytest.raises(ValueError):
        estimate_crossing(mixed, 0.5)


# ---------------------------------------------------------------------------
# the integer sweep path against sample_formula and the public deciders

DIFF_VSPECS = (Finite(2), Finite(5), Dyadic(0), Dyadic(3), CONTINUOUS)


def _vacuous(f):
    """True when some clause has a literal that holds on every candidate."""
    doms = candidate_domains(f)
    return any(
        lit.bound == (doms[lit.var][-1] if lit.rel is Rel.LE else doms[lit.var][0])
        for clause in f.clauses
        for lit in clause
    )


@pytest.mark.parametrize(
    "k, decider, distinct",
    [(2, "scc", False), (2, "scc", True), (2, "complete", False), (3, "complete", False),
     (3, "complete", True)],
)
def test_sweep_verdicts_match_sample_formula_and_decider(k, decider, distinct, monkeypatch):
    monkeypatch.delenv("RSAT_THREADS", raising=False)
    name = "solve_2rsat_scc" if decider == "scc" else "solve_complete"
    public = getattr(rsat, name)
    verdicts = []

    def recording(f, **kwargs):
        result = getattr(rsat.solver, name)(f, **kwargs)
        verdicts.append(result.sat)
        return result

    monkeypatch.setattr(rsat.sweep, name, recording)
    sizes = tuple(n for n in (1, 2, 3, 5, 12) if n >= k or not distinct)
    cfg = SweepConfig(
        k=k, vspecs=DIFF_VSPECS, n_values=sizes, c_grid=(F(1, 10), F(1), F(5, 2), F(4)),
        trials=4, seed=2_718, decider=decider, distinct_vars_per_clause=distinct,
    )
    results = run_sweep(cfg)
    expected, vacuous = [], 0
    for r in results:
        for t in range(cfg.trials):
            f = sample_formula(GenConfig(k=k, n=r.n, m=r.m, vspec=r.vspec,
                                         distinct_vars_per_clause=distinct,
                                         seed=stream_seed(r.seed, t)))
            expected.append(public(f).sat)
            vacuous += _vacuous(f)
    assert verdicts == expected
    assert [r.sat for r in results] == [
        sum(expected[i : i + cfg.trials]) for i in range(0, len(expected), cfg.trials)
    ]
    assert any(r.m == 0 for r in results) and (distinct or any(r.n == 1 for r in results))
    assert vacuous > 0 and 0 < sum(expected) < len(expected)


def test_rank_witness_check_raises_on_corrupted_witness():
    f = sample_formula(GenConfig(k=2, n=30, m=20, vspec=CONTINUOUS, seed=31,
                                 distinct_vars_per_clause=True))
    result = solve_2rsat_scc(f)
    assert result.sat
    c = compile_formula(f)
    wit = [0] + [c.values.index(result.witness[j], c.start[j], c.start[j + 1])
                 for j in range(1, f.n + 1)]
    _check_witness(c, wit)
    # falsify both literals of the first clause whose literals can be falsified
    for i in range(0, len(c.var), 2):
        moved = list(wit)
        for j, e, g in zip(c.var[i : i + 2], c.ge[i : i + 2], c.rank[i : i + 2]):
            moved[j] = g - 1 if e else g + 1
        if all(c.start[j] <= moved[j] < c.start[j + 1] for j in c.var[i : i + 2]):
            break
    with pytest.raises(AssertionError, match="invalid witness"):
        _check_witness(c, moved)


def test_sweep_decider_checks_its_witness(monkeypatch):
    # a component labelling that puts every node apart makes the decider read
    # the all-lowest-candidate witness, which this formula refutes
    monkeypatch.setattr(rsat.solver, "_tarjan", lambda succ: list(range(len(succ))))
    cfg = small_config(vspecs=(Finite(3),), c_grid=(F(2),), trials=3)
    with pytest.raises(AssertionError, match="invalid witness"):
        run_sweep(cfg)
