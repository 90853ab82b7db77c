"""rsat's benchmark workloads: the timed loop, the traced replay and every
output check.

A workload runs in units: one ``run_sweep`` call for the sweeps, one trial
for the others.  The untraced run times only the calls a user makes.  With
tracing on, each unit is run untraced first and then again with spans
around each call into a layer, so every traced trial has the untraced time
of the same trial beside it.  Checks run outside the timed calls and
outside the trial spans.

Workloads are frozen dataclasses so that tests can shrink one with
``dataclasses.replace``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import rsat
from rsat import (
    CONTINUOUS, Finite, GenConfig, SweepConfig, TruthValueSpec, clause_count, stream_seed,
)
from reference import NOMINAL_S, time_reference
from spans import NoTrace, Tracer, median_ms, tail

F = Fraction
NO_TRACE = NoTrace()

# sha256 of the CSV of each sweep's first run_sweep call, recorded per seed
# at the seed commit; the ROADMAP requires this CSV to stay byte-identical
CSV_SHA256: dict[str, dict[str, str]] = json.loads(
    Path(__file__).with_name("csv_sha256.json").read_text()
)

# Spans around calls the user's pipeline does not make itself: they split
# a layer into stages or re-run a check.  Trial time leaves them out.
PROBES = frozenset(
    {"rng.draw", "formula.validate", "solver.candidate_domains", "solver.digraph",
     "formula.eval_formula"}
)

# every span name; each gives the metric <name>_ms, its median self time per call
LAYER_SPANS = (
    "rng.draw",
    "sampler.sample_formula",
    "formula.validate",
    "formula.eval_formula",
    "solver.candidate_domains",
    "solver.digraph",
    "solver.scc",
    "solver.complete",
    "certificates.find_snake",
    "certificates.verify_snake",
    "certificates.find_bicycle",
    "certificates.verify_bicycle",
    "fileformat.render",
    "fileformat.parse",
    "fileformat.render_certificate",
    "fileformat.parse_certificate",
    "sweep.run_sweep",
    "sweep.render_csv",
)


class Tally:
    """Trials attempted and failed, and the untraced time spent on them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set = set()  # keys of failed trials
        self.wrong: list[str] = []  # one message per wrong output
        self.busy_s = 0.0
        self.unit_rates: list[float] = []  # trials per second of each unit
        self.ref_s: list[float] = []  # reference-loop times between units

    def ref_rates(self) -> list[float]:
        """Each unit's rate in trials per reference second (see reference.py)."""
        return [rate * (before + after) / 2 / NOMINAL_S
                for rate, before, after in zip(self.unit_rates, self.ref_s, self.ref_s[1:])]

    def timed(self, trials: int, seconds: float) -> None:
        """Record one unit: ``trials`` trials in ``seconds`` of timed calls."""
        self.attempted += trials
        self.busy_s += seconds
        self.unit_rates.append(trials / seconds)

    def fail(self, keys, wrong: str | None = None) -> None:
        """Mark trials failed; ``wrong`` describes a wrong output, None a resource limit."""
        self.failed.update(keys)
        if wrong is not None:
            self.wrong.append(wrong)

    @property
    def correct(self) -> bool:
        return not self.wrong


# ---------------------------------------------------------------------------
# Pipeline stages shared by the workloads


def replay_draws(gen: GenConfig) -> list[tuple[int, bool, object]]:
    """The sampler's draw sequence, replayed through public ``Stream`` methods.

    Per clause: the k variable draws, then per slot the relation coin and
    the encoded right-hand side (a numerator over v-1 for a finite value
    set, the Fraction ``dyadic53`` returns for the continuous one).  Only
    the repeats-allowed model is replayed.
    """
    s = rsat.Stream(gen.seed)
    n, k = gen.n, gen.k
    finite = isinstance(gen.vspec, Finite)
    draws = []
    for _ in range(gen.m):
        vs = [s.below(n) + 1 for _ in range(k)]
        for var in vs:
            coin = s.coin()
            draws.append((var, coin, s.below(gen.vspec.v - 1) if finite else s.dyadic53()))
    return draws


def replay_problems(gen: GenConfig, draws, f) -> list[str]:
    """Differences between the replayed draws and the sampled formula."""
    denom = gen.vspec.v - 1 if isinstance(gen.vspec, Finite) else 1
    lits = [lit for clause in f.clauses for lit in clause]
    if len(lits) != len(draws):
        return [f"seed {gen.seed}: {len(draws)} replayed slots, {len(lits)} sampled"]
    for i, (lit, (var, coin, side)) in enumerate(zip(lits, draws)):
        rel = rsat.Rel.GE if coin else rsat.Rel.LE
        if lit.var != var or lit.rel is not rel or lit.encoded_rhs() != F(side, denom):
            return [f"seed {gen.seed}: slot {i} is {lit}, the stream replay gives "
                    f"x{var} {rel.value} side {side}/{denom}"]
    return []


def sample(tr, gen: GenConfig):
    """Sample one formula; traced, also replay its draws and re-validate it."""
    draws = again = None
    if tr.enabled:
        with tr.span("rng.draw"):
            draws = replay_draws(gen)
    with tr.span("sampler.sample_formula"):
        f = rsat.sample_formula(gen)
    if tr.enabled:
        with tr.span("formula.validate"):
            again = rsat.Formula(f.k, f.n, f.clauses, f.vspec, f.distinct_vars_per_clause)
        tr.count("rng.draws", 3 * len(draws))  # variable, coin and side per slot
    return f, draws, again


def sample_problems(gen, f, draws, again) -> list[str]:
    if draws is None:
        return []
    problems = replay_problems(gen, draws, f)
    if again != f:
        problems.append(f"seed {gen.seed}: Formula(...) rebuilt from the sample differs")
    return problems


def decide(tr, f, budget: int):
    """Decide ``f`` as ``run_sweep`` does; None when the node budget ran out.

    Traced, the SCC route is also split into its stages by calling
    ``candidate_domains`` and ``build_implication_digraph`` on their own.
    """
    if f.k == 2:
        if tr.enabled:
            with tr.span("solver.candidate_domains"):
                domains = rsat.candidate_domains(f)
            with tr.span("solver.digraph"):
                graph = rsat.build_implication_digraph(f, domains)
            tr.count("solver.digraph_nodes", len(graph.nodes))
            tr.count("solver.digraph_arcs", sum(len(s) for s in graph.succ))
        with tr.span("solver.scc"):
            return rsat.solve_2rsat_scc(f)
    try:
        with tr.span("solver.complete"):
            return rsat.solve_complete(f, budget=budget)
    except rsat.ResourceLimit:
        return None


def witness_problems(tr, f, result, label: str) -> list[str]:
    if result is None or not result.sat:
        return []
    with tr.span("formula.eval_formula"):
        ok = rsat.eval_formula(f, result.witness)
    return [] if ok else [f"{label}: SAT witness fails eval_formula"]


def fail_all(tally: Tally, keys, problems: list[str]) -> None:
    for problem in problems:
        tally.fail(keys, problem)


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Sweep:
    """``run_sweep`` over one (k, continuous, n) slice; one call per unit."""

    name: str
    why: str
    k: int
    n: int
    c_grid: tuple[Fraction, ...]
    trials: int  # per cell in each run_sweep call

    def setup(self, seed: int):
        return None

    def config(self, seed: int, unit: int) -> SweepConfig:
        return SweepConfig(
            k=self.k,
            vspecs=(CONTINUOUS,),
            n_values=(self.n,),
            c_grid=self.c_grid,
            trials=self.trials,
            seed=stream_seed(seed, unit),
            decider="scc" if self.k == 2 else "complete",
        )

    def run_unit(self, state, seed: int, unit: int, tally: Tally, tr) -> None:
        cfg = self.config(seed, unit)
        with tr.span("sweep.run_sweep"):
            t0 = perf_counter()
            results = rsat.run_sweep(cfg)
            tally.timed(len(self.c_grid) * self.trials, perf_counter() - t0)
        with tr.span("sweep.render_csv"):
            csv = rsat.render_sweep_csv(results)
        self.check_csv(cfg, seed, unit, results, csv, tally)
        if tr.enabled:
            self.replay(cfg, unit, results, tally, tr)

    def check_csv(self, cfg, seed, unit, results, csv, tally) -> None:
        unit_keys = [(unit, ci, t) for ci in range(len(self.c_grid)) for t in range(self.trials)]
        if len(results) != len(self.c_grid):
            tally.fail(unit_keys, f"unit {unit}: {len(results)} CSV rows for {len(self.c_grid)} cells")
            return
        for ci, r in enumerate(results):
            if r.seed != stream_seed(cfg.seed, ci) or r.trials + r.limited != self.trials:
                tally.fail(unit_keys[ci * self.trials:(ci + 1) * self.trials],
                           f"unit {unit} cell {ci}: seed or trial count differs from the config")
            tally.fail((unit, ci, "limited", i) for i in range(r.limited))
        expected = CSV_SHA256.get(self.name, {}).get(str(seed)) if unit == 0 else None
        if expected is not None and hashlib.sha256(csv.encode()).hexdigest() != expected:
            tally.fail(unit_keys, f"seed {seed}: sweep CSV differs from the recorded digest")

    def replay(self, cfg, unit, results, tally, tr) -> None:
        """Drive the sweep's own trials through sample_formula and the decider."""
        for ci, r in enumerate(results):
            sat = limited = 0
            for t in range(self.trials):
                gen = GenConfig(k=self.k, n=self.n, m=r.m, vspec=CONTINUOUS,
                                seed=stream_seed(r.seed, t))
                with tr.trial_span():
                    f, draws, again = sample(tr, gen)
                    result = decide(tr, f, cfg.budget)
                tr.count("solver.complete_limited", int(result is None and self.k != 2))
                problems = sample_problems(gen, f, draws, again)
                problems += witness_problems(tr, f, result, f"seed {gen.seed}")
                fail_all(tally, [(unit, ci, t)], problems)
                limited += result is None
                sat += bool(result is not None and result.sat)
            if (sat, limited) != (r.sat, r.limited):
                tally.fail([(unit, ci, t) for t in range(self.trials)],
                           f"unit {unit} cell {ci}: traced replay gives sat={sat} "
                           f"limited={limited}, the CSV sat={r.sat} limited={r.limited}")


@dataclass(frozen=True)
class Files:
    """The ``rsat gen > f; rsat solve f`` path: sample, render, parse, decide.

    A unit is one trial at each ratio of ``c_grid``.
    """

    name: str
    why: str
    n: int
    vspec: TruthValueSpec
    c_grid: tuple[Fraction, ...]

    def setup(self, seed: int):
        return None

    def gen(self, seed: int, trial: int) -> GenConfig:
        c = self.c_grid[trial % len(self.c_grid)]
        return GenConfig(k=2, n=self.n, m=clause_count(c, self.n), vspec=self.vspec,
                         seed=stream_seed(seed, trial))

    def pipeline(self, tr, gen):
        f, draws, again = sample(tr, gen)
        with tr.span("fileformat.render"):
            text = rsat.render_formula(f)
        with tr.span("fileformat.parse"):
            g = rsat.parse_formula(text)
        tr.count("fileformat.bytes", len(text))
        result = decide(tr, g, 0)
        return f, draws, again, g, result

    def check(self, tr, gen, out, trial, tally) -> None:
        f, draws, again, g, result = out
        problems = sample_problems(gen, f, draws, again)
        if g != f:
            problems.append(f"seed {gen.seed}: parse_formula(render_formula(f)) != f")
        problems += witness_problems(tr, g, result, f"seed {gen.seed}")
        fail_all(tally, [trial], problems)

    def run_unit(self, state, seed: int, unit: int, tally: Tally, tr) -> None:
        size = len(self.c_grid)
        trials = range(unit * size, (unit + 1) * size)
        gens = [self.gen(seed, trial) for trial in trials]
        outs = []
        t0 = perf_counter()
        for gen in gens:
            outs.append(self.pipeline(NO_TRACE, gen))
        tally.timed(size, perf_counter() - t0)
        for trial, gen, out in zip(trials, gens, outs):
            self.check(NO_TRACE, gen, out, trial, tally)
            if tr.enabled:
                with tr.trial_span():
                    out = self.pipeline(tr, gen)
                self.check(tr, gen, out, trial, tally)


@dataclass(frozen=True)
class Certs:
    """Certificate finding on formula files rendered in set-up.

    One trial is a snake search on a repeats-allowed formula at ratio
    ``snake_c`` plus a bicycle search on a distinct-variables formula at
    ``bicycle_c``, with the checks and certificate-file round trips on
    whatever they find.
    """

    name: str
    why: str
    n: int
    snake_c: Fraction
    bicycle_c: Fraction
    snake_budget: int
    batch: int  # trials per unit
    pool: int  # trials whose formula texts are made in set-up

    def instance(self, seed: int, i: int) -> tuple[str, str]:
        snake_f = rsat.sample_formula(GenConfig(
            k=2, n=self.n, m=clause_count(self.snake_c, self.n), seed=stream_seed(seed, 2 * i)))
        bicycle_f = rsat.sample_formula(GenConfig(
            k=2, n=self.n, m=clause_count(self.bicycle_c, self.n),
            distinct_vars_per_clause=True, seed=stream_seed(seed, 2 * i + 1)))
        return rsat.render_formula(snake_f), rsat.render_formula(bicycle_f)

    def setup(self, seed: int) -> list[tuple[str, str]]:
        return [self.instance(seed, i) for i in range(self.pool)]

    def pipeline(self, tr, texts):
        out = {}
        for kind, text in zip(("snake", "bicycle"), texts):
            with tr.span("fileformat.parse"):
                f = rsat.parse_formula(text)
            tr.count("fileformat.bytes", len(text))
            with tr.span(f"certificates.find_{kind}"):
                if kind == "snake":
                    cert = rsat.find_snake(f, budget=self.snake_budget)
                else:
                    cert = rsat.find_bicycle(f)
            verified = back = None
            if isinstance(cert, (rsat.Snake, rsat.Bicycle)):
                with tr.span(f"certificates.verify_{kind}"):
                    verified = (rsat.verify_snake if kind == "snake" else rsat.verify_bicycle)(f, cert)
                with tr.span("fileformat.render_certificate"):
                    cert_text = rsat.render_certificate(cert)
                with tr.span("fileformat.parse_certificate"):
                    back = rsat.parse_certificate(cert_text)
            out[kind] = (text, f, cert, verified, back)
        return out

    def check(self, tr, out, trial, tally) -> None:
        problems = []
        for kind, (text, f, cert, verified, back) in out.items():
            label = f"trial {trial} {kind} formula"
            if rsat.render_formula(f) != text:
                problems.append(f"{label}: render_formula(parse_formula(text)) != text")
            if cert is rsat.BUDGET_EXHAUSTED:
                tally.fail([trial])
            elif cert is None:
                # no bicycle after a full search certifies satisfiability (C7)
                if kind == "bicycle" and not rsat.solve_2rsat_scc(f).sat:
                    problems.append(f"{label}: no bicycle, yet solve_2rsat_scc says UNSAT")
            else:
                if not verified:
                    problems.append(f"{label}: found {kind} fails verify_{kind}")
                if back != cert:
                    problems.append(f"{label}: parse_certificate(render_certificate(c)) != c")
                if kind == "snake" and rsat.solve_2rsat_scc(f).sat:
                    problems.append(f"{label}: verified snake on a formula SCC says is SAT")
            tr.count(f"certificates.{kind}_found", int(cert is not None and bool(cert)))
        tr.count("certificates.bicycle_none", int(out["bicycle"][2] is None))
        tr.count("certificates.bicycle_exhausted",
                 int(out["bicycle"][2] is rsat.BUDGET_EXHAUSTED))
        fail_all(tally, [trial], problems)

    def run_unit(self, state, seed: int, unit: int, tally: Tally, tr) -> None:
        trials = range(unit * self.batch, (unit + 1) * self.batch)
        # beyond the set-up pool, texts are sampled here, untimed, and not kept,
        # so memory does not grow with the number of trials run
        texts = [state[t] if t < len(state) else self.instance(seed, t) for t in trials]
        outs = []
        t0 = perf_counter()
        for pair in texts:
            outs.append(self.pipeline(NO_TRACE, pair))
        tally.timed(self.batch, perf_counter() - t0)
        for trial, pair, out in zip(trials, texts, outs):
            self.check(NO_TRACE, out, trial, tally)
            if tr.enabled:
                with tr.trial_span():
                    out = self.pipeline(tr, pair)
                self.check(tr, out, trial, tally)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Sweep(
            name="sweep-k2-scc",
            why="C3's cell (k=2, continuous, n=2000, c 1.7..2.3): sampling and the SCC decider",
            k=2, n=2000, c_grid=tuple(F(c, 10) for c in range(17, 24)), trials=1,
        ),
        Sweep(
            name="sweep-k3-complete",
            why="k=3 continuous sweep at n=24, c 10..11: the backtracking decider",
            k=3, n=24, c_grid=(F(10), F(21, 2), F(11)), trials=4,
        ),
        Certs(
            name="cert-snake-k2",
            why="snake search at n=200, c=3 and bicycle search at c=2 on parsed files",
            n=200, snake_c=F(3), bicycle_c=F(2), snake_budget=20_000, batch=4, pool=8,
        ),
        Files(
            name="files-k2",
            why="gen/render/parse/solve at n=2000 over finite:5: the file format path",
            n=2000, vspec=Finite(5), c_grid=(F(3, 2), F(7, 4), F(2)),
        ),
    )
}


def measure(wl, seed: int, seconds: float, trace: bool):
    """Set up, then run units until ``seconds`` of wall time have passed.

    The reference loop is timed before the first unit and after each one.
    """
    tr = Tracer() if trace else NO_TRACE
    tally = Tally()
    state = wl.setup(seed)
    start = perf_counter()
    tally.ref_s.append(time_reference())
    unit = 0
    with tr.gc_spans():
        while True:
            wl.run_unit(state, seed, unit, tally, tr)
            tally.ref_s.append(time_reference())
            unit += 1
            if perf_counter() - start >= seconds:
                return tally, tr


def layer_metrics(tally: Tally, tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run as {name: (value, unit)}.

    Times are median self times per call; a layer the workload never calls
    reads 0.
    """
    by_name = tr.by_name()
    out = {f"{name}_ms": (median_ms(by_name.get(name, [])), "ms") for name in LAYER_SPANS}

    scc = tr.per_trial("solver.scc", own=True)
    domains = tr.per_trial("solver.candidate_domains", own=True)
    digraph = tr.per_trial("solver.digraph", own=True)
    rest = [scc[t] - domains.get(t, 0.0) - digraph.get(t, 0.0) for t in scc]
    out["solver.scc_rest_ms"] = (median_ms(rest), "ms")

    counts = tr.counts
    for name in ("rng.draws", "solver.digraph_nodes", "solver.digraph_arcs", "fileformat.bytes"):
        values = counts.get(name, [])
        out[name] = (statistics.median(values) if values else 0, "count")
    for name in ("solver.complete_limited", "certificates.bicycle_found",
                 "certificates.bicycle_none", "certificates.bicycle_exhausted"):
        out[name] = (sum(counts.get(name, [])), "count")
    found = counts.get("certificates.snake_found", [])
    out["certificates.snake_yield"] = (sum(found) / len(found) if found else 0.0, "ratio")

    # a trial's time on the user's path: its span minus the probe spans in it
    trial_s = tr.per_trial("trial")
    for name in PROBES:
        for t, s in tr.per_trial(name).items():
            trial_s[t] -= s
    trial_times = list(trial_s.values())
    # garbage collection on the user's path, already left out of every self time
    gc_s = tr.per_trial("gc.collect", outside=PROBES)
    out["gc.trial_ms"] = (median_ms([gc_s.get(t, 0.0) for t in trial_s]), "ms")
    out["gc.share"] = (sum(gc_s.values()) / sum(trial_times) if trial_times else 0.0, "ratio")
    pct, tail_s = tail(trial_times)
    out["trial.p50_ms"] = (median_ms(trial_times), "ms")
    out["trial.tail_ms"] = (1e3 * tail_s, "ms")
    out["trial.tail_pct"] = (pct, "%")
    out["trial.samples"] = (len(trial_times), "count")
    out["trial.failed_ratio"] = (len(tally.failed) / tally.attempted, "ratio")
    traced_s = sum(tr.per_trial("trial").values())
    out["trace.overhead_ratio"] = (traced_s / tally.busy_s, "ratio")
    out["trace.accounted_ratio"] = (sum(trial_times) / tally.busy_s, "ratio")
    return out
