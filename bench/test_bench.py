"""Tests of the benchmark itself, at tiny sizes.

Every metric BENCHMARK.json names is printed with its unit, a clean run
passes, and each output check fires when its output is corrupted.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import rsat  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 99  # not in the digest table, so tiny sweeps skip the digest check

TINY = {
    "sweep-k2-scc": dataclasses.replace(workloads.WORKLOADS["sweep-k2-scc"], n=60, trials=2),
    "sweep-k3-complete": dataclasses.replace(
        workloads.WORKLOADS["sweep-k3-complete"], n=12, c_grid=(F(5), F(6)), trials=2),
    "cert-snake-k2": dataclasses.replace(
        workloads.WORKLOADS["cert-snake-k2"], n=24, snake_c=F(4), bicycle_c=F(5),
        snake_budget=200_000, batch=1, pool=1),
    "files-k2": dataclasses.replace(workloads.WORKLOADS["files-k2"], n=60),
}


def run_units(name: str, units: int = 1, trace: bool = True):
    wl = TINY[name]
    tally = workloads.Tally()
    tr = workloads.Tracer() if trace else workloads.NO_TRACE
    state = wl.setup(SEED)
    for unit in range(units):
        wl.run_unit(state, SEED, unit, tally, tr)
    return tally, tr


def assert_fires(tally, text: str) -> None:
    assert not tally.correct
    assert tally.failed
    assert any(text in wrong for wrong in tally.wrong), tally.wrong


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [wl.why for wl in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_printed_with_its_unit(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.delenv("RSAT_THREADS", raising=False)
    argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"# {metric} = ") and line.endswith(f" {unit}") for line in out)
    env = json.loads(out[0][2:])
    assert {"machine", "cpus", "python", "commit", "seed"} <= set(env)
    assert json.loads((tmp_path / f"{name}-seed{SEED}-trace{trace}.json").read_text())["env"] == env


def test_traced_sweep_accounts_for_untraced_time():
    tally, tr = run_units("sweep-k2-scc", units=2)
    metrics = workloads.layer_metrics(tally, tr)
    assert tally.correct and metrics["trial.samples"][0] == tally.attempted
    assert metrics["solver.scc_ms"][0] > 0 and metrics["certificates.find_snake_ms"][0] == 0
    assert metrics["trace.overhead_ratio"][0] > metrics["trace.accounted_ratio"][0] > 0.5


@pytest.mark.parametrize("name", ["sweep-k2-scc", "sweep-k3-complete"])
def test_recorded_csv_digest_matches(name):
    wl = workloads.WORKLOADS[name]
    csv = rsat.render_sweep_csv(rsat.run_sweep(wl.config(1, 0)))
    assert hashlib.sha256(csv.encode()).hexdigest() == workloads.CSV_SHA256[name]["1"]


def test_csv_digest_check_fires(monkeypatch):
    monkeypatch.setitem(workloads.CSV_SHA256, "sweep-k2-scc", {str(SEED): "0" * 64})
    tally, _ = run_units("sweep-k2-scc", trace=False)
    assert_fires(tally, "recorded digest")


def test_sat_count_check_fires(monkeypatch):
    real = rsat.run_sweep

    def flipped(cfg):
        results = real(cfg)
        return [dataclasses.replace(results[0], sat=abs(results[0].sat - 1))] + results[1:]

    monkeypatch.setattr(rsat, "run_sweep", flipped)
    tally, _ = run_units("sweep-k2-scc")
    assert_fires(tally, "traced replay gives")


@pytest.mark.parametrize("name", ["sweep-k2-scc", "files-k2"])
def test_witness_check_fires(name, monkeypatch):
    def all_zero(f):
        return rsat.SolveResult(True, {var: F(0) for var in range(1, f.n + 1)})

    monkeypatch.setattr(rsat, "solve_2rsat_scc", all_zero)
    tally, _ = run_units(name, units=3)
    assert_fires(tally, "SAT witness fails eval_formula")


def test_draw_replay_check_fires(monkeypatch):
    real = rsat.sample_formula

    def moved(gen):
        f = real(gen)
        first = f.clauses[0][0]
        lit = rsat.Literal(first.var % f.n + 1, first.rel, first.bound)
        clauses = ((lit,) + f.clauses[0][1:],) + f.clauses[1:]
        return rsat.Formula(f.k, f.n, clauses, f.vspec, f.distinct_vars_per_clause)

    monkeypatch.setattr(rsat, "sample_formula", moved)
    tally, _ = run_units("sweep-k3-complete")
    assert_fires(tally, "the stream replay gives")


@pytest.mark.parametrize("name", ["files-k2", "cert-snake-k2"])
def test_formula_round_trip_check_fires(name, monkeypatch):
    real = rsat.parse_formula

    def reversed_clauses(text):
        f = real(text)
        return rsat.Formula(f.k, f.n, f.clauses[::-1], f.vspec, f.distinct_vars_per_clause)

    monkeypatch.setattr(rsat, "parse_formula", reversed_clauses)
    tally, _ = run_units(name, trace=False)
    assert_fires(tally, "parse_formula")


def test_certificate_round_trip_check_fires(monkeypatch):
    real = rsat.parse_certificate

    def shifted(text):
        cert = real(text)
        return dataclasses.replace(cert, clause_indices=cert.clause_indices[1:] + cert.clause_indices[:1])

    monkeypatch.setattr(rsat, "parse_certificate", shifted)
    tally, _ = run_units("cert-snake-k2", trace=False)
    assert_fires(tally, "parse_certificate(render_certificate(c)) != c")


def test_snake_verify_check_fires(monkeypatch):
    real = rsat.find_snake

    def broken(f, **kwargs):
        snake = real(f, **kwargs)
        assert snake is not None, "the tiny instance must contain a snake"
        return dataclasses.replace(snake, clause_indices=snake.clause_indices[::-1])

    monkeypatch.setattr(rsat, "find_snake", broken)
    tally, _ = run_units("cert-snake-k2", trace=False)
    assert_fires(tally, "fails verify_snake")


def test_snake_soundness_check_fires(monkeypatch):
    monkeypatch.setattr(rsat, "solve_2rsat_scc", lambda f: rsat.SolveResult(True, {}))
    tally, _ = run_units("cert-snake-k2", trace=False)
    assert_fires(tally, "verified snake on a formula SCC says is SAT")


def test_bicycle_verify_check_fires(monkeypatch):
    real = rsat.find_bicycle

    def broken(f):
        bicycle = real(f)
        assert isinstance(bicycle, rsat.Bicycle), "the tiny instance must contain a bicycle"
        return dataclasses.replace(bicycle, i0=bicycle.ell + 5)

    monkeypatch.setattr(rsat, "find_bicycle", broken)
    tally, _ = run_units("cert-snake-k2", trace=False)
    assert_fires(tally, "fails verify_bicycle")


def test_missing_bicycle_check_fires(monkeypatch):
    monkeypatch.setattr(rsat, "find_bicycle", lambda f: None)
    tally, _ = run_units("cert-snake-k2", trace=False)
    assert_fires(tally, "no bicycle, yet solve_2rsat_scc says UNSAT")


def test_exhausted_budget_fails_the_trial_not_the_run(monkeypatch):
    monkeypatch.setattr(rsat, "find_bicycle", lambda f: rsat.BUDGET_EXHAUSTED)
    tally, tr = run_units("cert-snake-k2", units=2)
    assert tally.correct and len(tally.failed) == 2
    assert workloads.layer_metrics(tally, tr)["certificates.bicycle_exhausted"][0] == 2


def test_resource_limit_fails_the_trial_not_the_run(monkeypatch):
    def limited(f, budget):
        raise rsat.ResourceLimit("budget")

    monkeypatch.setattr(rsat.sweep, "solve_complete", limited)
    monkeypatch.setattr(rsat, "solve_complete", limited)
    tally, tr = run_units("sweep-k3-complete")
    assert tally.correct and len(tally.failed) == tally.attempted == 4
    assert workloads.layer_metrics(tally, tr)["solver.complete_limited"][0] == 4


def test_cli_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "files-k2", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == len(workloads.WORKLOADS["files-k2"].c_grid)


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *json.loads((ROOT / "BENCHMARK.json").read_text())["command"][1:],
         "--workload", "files-k2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_times_leave_out_child_and_gc_spans():
    tr = workloads.Tracer()
    with tr.gc_spans(), tr.trial_span():
        with tr.span("outer"), tr.span("inner"):
            gc.collect()
    names = [s[0] for s in tr.spans]
    assert names[:3] == ["trial", "outer", "inner"] and "gc.collect" in names
    assert tr.spans[names.index("gc.collect")][3] == names.index("inner")
    trial = tr.spans[0]
    assert sum(tr.self_times()) == pytest.approx(trial[2] - trial[1])


def test_tail_is_the_eleventh_largest():
    assert spans.tail([float(v) for v in range(1, 31)]) == (pytest.approx(200 / 3), 20.0)
    assert spans.tail([3.0, 1.0]) == (100.0, 3.0)
