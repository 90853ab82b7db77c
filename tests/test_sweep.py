import os
import subprocess
import sys
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
from rsat.sweep import CSV_HEADER, DECIDERS, decide


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


@pytest.mark.parametrize("c, name", [(True, "bool"), (0.1 + 0.2, "float"), ("3/2", "str")])
def test_ratio_must_be_exact(c, name):
    with pytest.raises(TypeError, match=f"c must be an int or a Fraction, got {name}"):
        small_config(c_grid=(F(1, 2), c))
    assert small_config(c_grid=(2, F(3, 2))).c_grid == (2, F(3, 2))


def test_config_validation():
    with pytest.raises(InvalidConfig):
        small_config(trials=0)
    with pytest.raises(InvalidConfig):
        small_config(c_grid=(F(0),))
    with pytest.raises(InvalidConfig):
        small_config(decider="magic")
    with pytest.raises(InvalidConfig):
        small_config(k=3, decider="scc")
    with pytest.raises(InvalidConfig, match="must be non-empty"):
        small_config(vspecs=())
    # GenConfig's rules, for every (V, n), when the sweep is built
    with pytest.raises(InvalidConfig, match="k must be >= 2, got 1"):
        small_config(k=1)
    with pytest.raises(InvalidConfig, match="n must be >= 1, got 0"):
        small_config(n_values=(30, 0))
    with pytest.raises(InvalidConfig, match="k=3 > n=2"):
        small_config(k=3, n_values=(2,), distinct_vars_per_clause=True)
    with pytest.raises(InvalidConfig, match="more than 2\\^64 encoded sides"):
        small_config(vspecs=(Finite(2), Dyadic(65)))


@pytest.mark.parametrize("vspec", ["finite:3", None], ids=["token", "None"])
def test_a_sweep_over_an_object_that_is_not_a_value_set_is_a_type_error(vspec):
    # only CONTINUOUS cells are labelled "continuous"
    with pytest.raises(TypeError, match="^not a truth-value set: "):
        small_config(vspecs=(Finite(2), vspec))


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_rejected(budget):
    # a zero budget would count every complete-decider trial as limited
    with pytest.raises(InvalidConfig, match=f"budget must be >= 1, got {budget}"):
        small_config(k=3, decider="complete", budget=budget)


@pytest.mark.parametrize("field", ["trials", "seed", "budget"])
@pytest.mark.parametrize("bad", [2.5, True], ids=["float", "bool"])
def test_trials_seed_and_budget_must_be_ints(field, bad):
    # trials=True would run one trial, and trials=2.5 fail inside a cell
    with pytest.raises(TypeError, match=f"^{field} must be an int, got {type(bad).__name__}$"):
        small_config(k=3, decider="complete", **{field: bad})


@pytest.mark.parametrize("bad", ["no", 0.0, 1, None, [1]], ids=["str", "float", "int", "None", "list"])
def test_clause_model_flag_must_be_a_bool(bad):
    # checked by GenConfig for every (V, n) before the first cell
    with pytest.raises(TypeError, match=f"^distinct_vars_per_clause must be a bool, got {type(bad).__name__}$"):
        small_config(distinct_vars_per_clause=bad)


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


def test_import_leaves_process_pool_unloaded():
    # the pool module costs import time; only a sweep with workers loads it
    code = "import sys, rsat; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsat.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_sweep_parallel_output_matches_serial(monkeypatch):
    cfg = small_config(trials=10)
    serial = render_sweep_csv(run_sweep(cfg))
    monkeypatch.setenv("RSAT_THREADS", "2")
    parallel = render_sweep_csv(run_sweep(cfg))
    assert serial == parallel


@pytest.mark.parametrize("raw", ["two", "0", "-1", ""])
def test_bad_thread_count_is_rejected(raw, monkeypatch):
    monkeypatch.setenv("RSAT_THREADS", raw)
    with pytest.raises(InvalidConfig, match=f"got {raw!r}"):
        run_sweep(small_config(trials=1))


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
    report = render_limited_report([_mk("1", 0.5), result])  # the unlimited cell is left out
    lines = report.strip().split("\n")
    assert len(lines) == 2
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
    results = [_mk("1", 0.5), _mk("2", 0.5)]  # both straddling cells sit on the target
    assert estimate_crossing(results, 0.5) == 1.5


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


@pytest.mark.parametrize("compiled", [False, True], ids=["Formula", "CompiledFormula"])
@pytest.mark.parametrize(
    "k, decider, expected",
    [
        (2, "auto", "solve_2rsat_scc"),
        (2, "scc", "solve_2rsat_scc"),
        (2, "complete", "solve_complete"),
        (3, "auto", "solve_complete"),
        (3, "complete", "solve_complete"),
    ],
)
def test_decide_runs_one_decider(k, decider, expected, compiled, monkeypatch):
    assert decider in DECIDERS
    f = sample_formula(GenConfig(k=k, n=6, m=4, seed=13))
    if compiled:
        f = compile_formula(f)
    calls = []
    for name in ("solve_2rsat_scc", "solve_complete"):
        def recorder(g, *args, _name=name, **kwargs):
            calls.append((_name, g is f, args, kwargs))
            return _name

        monkeypatch.setattr(rsat.sweep, name, recorder)
    assert decide(f, decider, 77) == expected
    budget = {} if expected == "solve_2rsat_scc" else {"budget": 77}
    assert calls == [(expected, True, (), budget)]  # budget goes by keyword


def assert_witness_check_raises_on_corrupted_witness(solve):
    f = sample_formula(GenConfig(k=2, n=30, m=20, vspec=CONTINUOUS, seed=31,
                                 distinct_vars_per_clause=True))
    result = solve(f)
    assert result.sat
    c = compile_formula(f)
    # the witness as numerators on each variable's scale: a tight value is a slot's bound
    num_of = {(j, b): g for j, b, g in zip(c.var, c.bounds, c.num)}
    wit = [0] + [num_of.get((j, result.witness[j]), 0) for j in range(1, f.n + 1)]
    assert all(result.witness[j] == 0 or (j, result.witness[j]) in num_of
               for j in range(1, f.n + 1))
    _check_witness(c, wit)
    # falsify both literals of the first clause: one step past each bound
    moved = list(wit)
    for j, e, g in zip(c.var[:2], c.ge[:2], c.num[:2]):
        moved[j] = g - 1 if e else g + 1
    with pytest.raises(AssertionError, match="invalid witness"):
        _check_witness(c, moved)


def test_rank_witness_check_raises_on_corrupted_witness():
    assert_witness_check_raises_on_corrupted_witness(solve_2rsat_scc)


def test_witness_check_raises_on_corrupted_complete_witness():
    assert_witness_check_raises_on_corrupted_witness(rsat.solve_complete)


def test_sweep_decider_checks_its_witness(monkeypatch):
    # a component labelling that puts every node apart makes the decider read
    # the all-lowest-candidate witness, which this formula refutes
    monkeypatch.setattr(rsat.solver, "_tarjan", lambda succ: list(range(len(succ))))
    cfg = small_config(vspecs=(Finite(3),), c_grid=(F(2),), trials=3)
    with pytest.raises(AssertionError, match="invalid witness"):
        run_sweep(cfg)


def test_complete_decider_checks_its_witness(monkeypatch):
    # a search that finds every clause satisfied at once reads the
    # all-lowest-candidate witness, which this formula refutes
    monkeypatch.setattr(rsat.solver, "_branch", lambda live, held: None)
    cfg = small_config(vspecs=(Finite(3),), c_grid=(F(2),), trials=3, decider="complete")
    with pytest.raises(AssertionError, match="invalid witness"):
        run_sweep(cfg)
