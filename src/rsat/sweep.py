"""Monte Carlo satisfiability sweeps over (vspec, n, c) grids.

Each grid cell gets its own derived stream seed, and each trial inside a
cell another one, so results are independent of scheduling and any cell
or trial can be replayed in isolation.  Output is deterministic: same
config and master seed, byte-identical CSV.

:func:`decide` is the one decider rule, for sweeps and ``rsat solve`` alike:
``auto`` runs the SCC decider at k = 2 and complete search otherwise.

Resource-limited trials are never folded into the estimate: they are
excluded from the trial count, reported separately, and a cell where they
exceed 1% of requests is flagged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .analytics import wilson_interval
from .errors import InvalidConfig, NoCrossing, ResourceLimit
from .fileformat import vspec_to_token
from .formula import Formula, TruthValueSpec, _not_int
from .rng import stream_seed
from .sampler import GenConfig, draw_slots
from .solver import (
    DEFAULT_NODE_BUDGET,
    CompiledFormula,
    SolveResult,
    check_budget,
    compile_slots,
    solve_2rsat_scc,
    solve_complete,
)

DECIDERS = ("auto", "scc", "complete")
CSV_HEADER = "k,v,n,m,c,trials,sat,p_hat,ci_lo,ci_hi,seed"
CONFIDENCE = 0.95
LIMITED_FLAG_RATIO = 0.01


@dataclass(frozen=True)
class SweepConfig:
    k: int
    vspecs: tuple[TruthValueSpec, ...]
    n_values: tuple[int, ...]
    c_grid: tuple[Fraction, ...]
    trials: int
    seed: int = 0
    decider: str = "auto"  # one of DECIDERS
    budget: int = DEFAULT_NODE_BUDGET
    distinct_vars_per_clause: bool = False

    def __post_init__(self):
        for name in ("trials", "seed"):
            if type(getattr(self, name)) is not int:
                raise _not_int(name, getattr(self, name))
        if self.trials < 1:
            raise InvalidConfig(f"trials must be >= 1, got {self.trials}")
        check_budget(self.budget)
        if not self.vspecs or not self.n_values or not self.c_grid:
            raise InvalidConfig("vspecs, n_values and c_grid must be non-empty")
        for c in self.c_grid:  # exact ratios only, so m and the CSV's c are exact
            if type(c) not in (int, Fraction):
                raise TypeError(f"c must be an int or a Fraction, got {type(c).__name__}")
        if any(c <= 0 for c in self.c_grid):
            raise InvalidConfig("all c values must be positive")
        if self.decider not in DECIDERS:
            raise InvalidConfig(f"unknown decider {self.decider!r}")
        if self.decider == "scc" and self.k != 2:
            raise InvalidConfig("the scc decider requires k = 2")
        for vspec in self.vspecs:  # GenConfig's own rules, before the first cell
            for n in self.n_values:
                GenConfig(self.k, n, 0, vspec, self.distinct_vars_per_clause)


@dataclass(frozen=True)
class SweepResult:
    k: int
    vspec: TruthValueSpec
    n: int
    m: int
    c: Fraction
    trials: int  # decided trials; resource-limited ones are excluded
    sat: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    seed: int  # derived cell seed; trial i uses stream_seed(seed, i)
    limited: int = 0


def clause_count(c: Fraction, n: int) -> int:
    """m = round(c * n), half up, computed exactly."""
    return int(c * n + Fraction(1, 2))


def decide(f: Formula | CompiledFormula, decider: str, budget: int) -> SolveResult:
    """The SCC decider for ``scc``, or ``auto`` at k = 2; else complete search."""
    if decider == "scc" or (decider == "auto" and f.k == 2):
        return solve_2rsat_scc(f)
    return solve_complete(f, budget=budget)


def _run_cell(args) -> SweepResult:
    cfg, vspec, n, c, cell_seed = args
    m = clause_count(c, n)
    sat = 0
    limited = 0
    for trial in range(cfg.trials):
        seed = stream_seed(cell_seed, trial)
        gen = GenConfig(cfg.k, n, m, vspec, cfg.distinct_vars_per_clause, seed)
        # draws to ranks to verdict: no Fraction, Literal or Formula
        f = compile_slots(cfg.k, n, *draw_slots(gen))
        try:
            sat += decide(f, cfg.decider, cfg.budget).sat
        except ResourceLimit:
            limited += 1
    decided = cfg.trials - limited
    if decided > 0:
        p_hat = sat / decided
        ci_lo, ci_hi = wilson_interval(sat, decided, CONFIDENCE)
    else:
        p_hat, ci_lo, ci_hi = 0.0, 0.0, 1.0
    return SweepResult(
        k=cfg.k,
        vspec=vspec,
        n=n,
        m=m,
        c=c,
        trials=decided,
        sat=sat,
        p_hat=p_hat,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        seed=cell_seed,
        limited=limited,
    )


def _worker_count() -> int:
    raw = os.environ.get("RSAT_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidConfig(f"RSAT_THREADS must be a positive integer, got {raw!r}")
    return workers


def run_sweep(cfg: SweepConfig) -> list[SweepResult]:
    """Run every grid cell; cells are enumerated vspec-major, then n, then c."""
    cells = []
    index = 0
    for vspec in cfg.vspecs:
        for n in cfg.n_values:
            for c in cfg.c_grid:
                cells.append((cfg, vspec, n, c, stream_seed(cfg.seed, index)))
                index += 1
    workers = _worker_count()
    if workers > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs import time; only pools use it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(cell) for cell in cells]


def render_sweep_csv(results: Sequence[SweepResult]) -> str:
    lines = [CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.k},{vspec_to_token(r.vspec)},{r.n},{r.m},{r.c},"
            f"{r.trials},{r.sat},{r.p_hat:.6f},{r.ci_lo:.6f},{r.ci_hi:.6f},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def render_limited_report(results: Sequence[SweepResult]) -> str:
    """Companion table of resource-limited trial counts (flagged cells > 1%)."""
    lines = ["k,v,n,m,c,requested,limited,flagged"]
    for r in results:
        if r.limited == 0:
            continue
        requested = r.trials + r.limited
        flagged = int(r.limited > LIMITED_FLAG_RATIO * requested)
        lines.append(
            f"{r.k},{vspec_to_token(r.vspec)},{r.n},{r.m},{r.c},"
            f"{requested},{r.limited},{flagged}"
        )
    return "\n".join(lines) + "\n"


def estimate_crossing(
    results: Sequence[SweepResult], target: float = 0.5
) -> float:
    """c where p_hat first crosses ``target`` downward, linearly interpolated.

    The results must all come from one (k, vspec, n) slice.
    """
    if not results:
        raise NoCrossing("no sweep results supplied")
    slices = {(r.k, r.vspec, r.n) for r in results}
    if len(slices) != 1:
        raise ValueError(f"results span {len(slices)} slices, expected one")
    ordered = sorted(results, key=lambda r: r.c)
    for left, right in zip(ordered, ordered[1:]):
        if left.p_hat >= target >= right.p_hat:
            c0, c1 = float(left.c), float(right.c)
            if left.p_hat == right.p_hat:
                return 0.5 * (c0 + c1)
            return c0 + (left.p_hat - target) * (c1 - c0) / (left.p_hat - right.p_hat)
    raise NoCrossing(f"p_hat never straddles {target} on this slice")
