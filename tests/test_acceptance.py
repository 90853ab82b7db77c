"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
in the terminal summary.  Statistical criteria run at fixed seeds, so their
outcomes are reproducible bit for bit.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction as F

import pytest

import rsat
from rsat import (
    BUDGET_EXHAUSTED,
    CONTINUOUS,
    Dyadic,
    Finite,
    GenConfig,
    Stream,
    SweepConfig,
    couple_increase_v,
    estimate_crossing,
    find_bicycle,
    find_snake,
    min_safe_lambda,
    render_formula,
    render_sweep_csv,
    run_sweep,
    sample_formula,
    solve_2rsat_scc,
    solve_complete,
    truncate_thresholds,
    verify_bicycle,
    verify_snake,
)
from rsat.analytics import exact_factorial_moment, falling_factorial, thm1_root, thm1_value

from conftest import record_criterion
from oracles import brute_force_solve, least_squares_line, three_sigma
from test_certificates import planted_snake


def test_c01_complete_decider_matches_exhaustive_enumeration():
    start = time.monotonic()
    pairs = [(v, n) for v in (2, 3, 4, 5) for n in (2, 3, 4, 5, 6)]
    agree = total = 0
    for i in range(1000):
        v, n = pairs[i % len(pairs)]
        cfg = GenConfig(
            k=2 + i % 2,
            n=max(n, 2 + i % 2),
            m=1 + (7 * i) % 12,
            vspec=Finite(v),
            seed=101_000 + i,
        )
        f = sample_formula(cfg)
        total += 1
        agree += solve_complete(f).sat == brute_force_solve(f)
    elapsed = time.monotonic() - start
    ok = agree == total == 1000 and elapsed < 60.0
    record_criterion(
        "C1",
        f"complete decider vs exhaustive enumeration ({agree}/{total}, {elapsed:.0f}s)",
        ok,
    )
    assert ok


def test_c02_scc_decider_matches_complete_decider():
    start = time.monotonic()
    kinds = (Finite(5), Dyadic(3), CONTINUOUS)
    agree = total = 0
    for vspec in kinds:
        for i in range(10_000):
            f = sample_formula(GenConfig(k=2, n=12, m=30, vspec=vspec, seed=202_000 + i))
            total += 1
            agree += solve_2rsat_scc(f).sat == solve_complete(f).sat
    elapsed = time.monotonic() - start
    ok = agree == total == 30_000 and elapsed < 120.0
    record_criterion(
        "C2", f"SCC decider vs complete decider ({agree}/{total}, {elapsed:.0f}s)", ok
    )
    assert ok


C3_GRID = (F(17, 10), F(19, 10), F(2), F(21, 10), F(23, 10))
C3_SMALL_N_GRID = (F(21, 10), F(23, 10), F(25, 10))
C3_CONTROL_TOP_GRID = (F(21, 10), F(23, 10))


def _width2_config(vspec, scale, n_values, grid, seed):
    return SweepConfig(
        k=2,
        vspecs=(vspec,),
        n_values=n_values,
        c_grid=tuple(scale * c for c in grid),
        trials=200,
        seed=seed,
        decider="scc",
    )


@pytest.fixture(scope="module")
def width2_background_sweeps():
    """The sweeps of C3's study other than its timed n = 2000 sweep.

    They run in one worker process while that sweep runs in this one, so
    the study costs little more wall time than the timed sweep alone.  Their
    grids hold only the points around each crossing (DECISIONS.md, "C3").
    The smaller sizes use seed 304, so that the n = 2000 cells keep their
    derived seeds; the classical n = 2000 sweep keeps C3's seed 303.
    """
    small = (500, 1000)
    configs = {
        "continuous": [_width2_config(CONTINUOUS, F(1), small, C3_SMALL_N_GRID, 304)],
        "classical": [
            _width2_config(Finite(2), F(1, 2), (2000,), C3_CONTROL_TOP_GRID, 303),
            _width2_config(Finite(2), F(1, 2), small, C3_SMALL_N_GRID, 304),
        ],
    }
    with ProcessPoolExecutor(max_workers=1) as pool:
        yield {
            name: [pool.submit(run_sweep, cfg) for cfg in cfgs]
            for name, cfgs in configs.items()
        }


def _width2_fit(results):
    """Results per n, the p_hat = 1/2 crossing per n, and the least-squares
    fit (c_inf, a) of crossing(n) = c_inf + a * n^(-1/3)."""
    by_n = {n: [r for r in results if r.n == n] for n in (500, 1000, 2000)}
    crossing = {n: estimate_crossing(rs, 0.5) for n, rs in by_n.items()}
    c_inf, a = least_squares_line(
        [n ** (-1 / 3) for n in crossing], list(crossing.values())
    )
    return by_n, crossing, c_inf, a


def _p_at(results, c):
    return next(r.p_hat for r in results if r.c == c)


def test_c03_width2_continuous_transition_at_two(width2_background_sweeps):
    # The paper's transition at m/n = 2 is a limit as n grows.  At n = 2000
    # the crossing still sits about 10 % high, as classical 2-SAT's does
    # above 1 (DECISIONS.md, "C3"), so the window is applied to the fitted
    # limit, and the control below runs the same procedure on finite:2.
    # The 600 s gate times the n = 2000 sweep, run serially as it always
    # has been; the smaller sizes run beside it in a worker process.
    start = time.monotonic()
    results = run_sweep(_width2_config(CONTINUOUS, F(1), (2000,), C3_GRID, 303))
    elapsed = time.monotonic() - start
    for future in width2_background_sweeps["continuous"]:
        results += future.result()
    total = time.monotonic() - start
    by_n, crossing, c_inf, a = _width2_fit(results)
    p_top = {n: _p_at(rs, F(23, 10)) for n, rs in by_n.items()}
    ok_low = _p_at(by_n[2000], F(17, 10)) >= 0.95
    ok_falling = p_top[500] > p_top[1000] > p_top[2000]
    ok_limit = 1.85 <= c_inf <= 2.15
    ok_from_above = a > 0
    ok = ok_low and ok_falling and ok_limit and ok_from_above and elapsed < 600.0
    record_criterion(
        "C3",
        f"continuous width-2 transition: p(1.7)={_p_at(by_n[2000], F(17, 10)):.3f}, "
        f"p(2.3)={p_top[2000]:.3f}, crossing={crossing[2000]:.3f}; "
        f"crossings n=500/1000: {crossing[500]:.3f}/{crossing[1000]:.3f}, "
        f"p(2.3) n=500/1000: {p_top[500]:.3f}/{p_top[1000]:.3f}; "
        f"fit c_inf={c_inf:.3f}, a={a:.2f}; {elapsed:.0f}s at n=2000, {total:.0f}s in all",
        ok,
    )
    assert elapsed < 600.0
    assert ok_low and ok_falling, (by_n, p_top)
    assert ok_limit and ok_from_above, (crossing, c_inf, a)


def test_c03_classical_control_threshold_at_one(width2_background_sweeps):
    # calibration for C3: the same sizes and fit with every c halved on
    # classical 2-SAT, whose threshold of 1 is a theorem
    results = []
    for future in width2_background_sweeps["classical"]:
        results += future.result()
    _, crossing, c_inf, a = _width2_fit(results)
    ok = 0.925 <= c_inf <= 1.075 and a > 0
    record_criterion(
        "C3 control",
        f"classical width-2 transition: crossings n=500/1000/2000: "
        f"{crossing[500]:.3f}/{crossing[1000]:.3f}/{crossing[2000]:.3f}; "
        f"fit c_inf={c_inf:.3f}, a={a:.2f}",
        ok,
    )
    assert ok, (crossing, c_inf, a)


def test_c04_classical_anchor_at_three_halves():
    cfg = SweepConfig(
        k=2,
        vspecs=(Finite(2),),
        n_values=(2000,),
        c_grid=(F(7, 10), F(3, 2)),
        trials=200,
        seed=404,
        decider="scc",
    )
    by_c = {r.c: r.p_hat for r in run_sweep(cfg)}
    cont = run_sweep(
        SweepConfig(
            k=2,
            vspecs=(CONTINUOUS,),
            n_values=(2000,),
            c_grid=(F(3, 2),),
            trials=200,
            seed=405,
            decider="scc",
        )
    )[0]
    ok_unsat = by_c[F(3, 2)] <= 0.2
    ok_sat = by_c[F(7, 10)] >= 0.9
    ok_cont = cont.p_hat >= 0.9
    ok = ok_unsat and ok_sat and ok_cont
    record_criterion(
        "C4",
        f"two-valued anchor: p(0.7)={by_c[F(7,10)]:.3f}, p(1.5)={by_c[F(3,2)]:.3f}, "
        f"continuous p(1.5)={cont.p_hat:.3f}",
        ok,
    )
    assert ok


def test_c05_value_set_monotonicity_coupling():
    # The paper's claim: p(sat) rises with |V|.  The per-slot bump kernel keeps
    # the uniform marginals but cannot also be pointwise monotone: every
    # unbumped slot with u >= 1 tightens from u/(v-1) to u/v, whatever its
    # relation (DECISIONS.md, "C5").  So the claim is tested as a paired sign
    # test, and every sat -> unsat flip must trace back to a tightened slot.
    sat_lows = unexplained = 0
    per_v = {v: [0, 0] for v in range(2, 7)}  # v -> [unsat->sat, sat->unsat]
    for i in range(2000):
        v = 2 + i % 5
        low = sample_formula(
            GenConfig(k=2, n=300, m=450, vspec=Finite(v), seed=505_000 + i)
        )
        high = couple_increase_v(low, seed=909_000 + i)
        low_result = solve_2rsat_scc(low)
        high_sat = solve_2rsat_scc(high).sat
        sat_lows += low_result.sat
        if high_sat and not low_result.sat:
            per_v[v][0] += 1
        elif low_result.sat and not high_sat:
            per_v[v][1] += 1
            unexplained += _clauses_without_tightened_slot(low, high, low_result.witness)

    draws = 50_000
    f3 = sample_formula(GenConfig(k=2, n=1, m=draws, vspec=Finite(3), seed=506_000))
    high = couple_increase_v(f3, seed=507_000)
    sides = [lit.encoded_rhs() for cl in high.clauses for lit in cl]
    marginal_ok = all(
        abs(sum(s == target for s in sides) / len(sides) - 1 / 3)
        < three_sigma(1 / 3, len(sides))
        for target in (F(0), F(1, 3), F(2, 3))
    )

    up = sum(u for u, _ in per_v.values())
    down = sum(d for _, d in per_v.values())
    ok_rise = up - down > 3 * (up + down) ** 0.5
    ok_per_v = all(d - u <= 3 * (u + d) ** 0.5 for u, d in per_v.values())
    ok_explained = unexplained == 0
    ok = ok_rise and ok_per_v and ok_explained and marginal_ok
    record_criterion(
        "C5",
        f"bump-coupling monotonicity: {sat_lows - down}/{sat_lows} sat pairs "
        f"stayed sat; unsat->sat {up} vs sat->unsat {down}; "
        f"falsified clauses without a tightened slot: {unexplained} "
        f"(marginal uniform: {marginal_ok})",
        ok,
    )
    assert marginal_ok
    assert ok_rise, f"sign test: {up} unsat->sat against {down} sat->unsat"
    assert ok_per_v, f"a value-set step lowers p(sat) beyond 3 sigma: {per_v}"
    assert ok_explained, (
        f"{unexplained} clauses falsified on the high side contain no slot the "
        "kernel tightened (see DECISIONS.md)"
    )


def _clauses_without_tightened_slot(low, high, witness) -> int:
    """Clauses of ``high`` that the witness of ``low`` falsifies although the
    kernel tightened none of their slots; each one is a kernel defect."""
    unexplained = 0
    for low_cl, high_cl in zip(low.clauses, high.clauses):
        if any(rsat.eval_literal(lit, witness[lit.var]) for lit in high_cl):
            continue
        # a smaller encoded side is a tighter literal, for <= and >= alike
        if not any(
            hi.encoded_rhs() < lo.encoded_rhs() for lo, hi in zip(low_cl, high_cl)
        ):
            unexplained += 1
    return unexplained


def test_c06_truncation_at_min_safe_depth_preserves_decisions():
    agree = total = 0
    for i in range(1000):
        cfg = GenConfig(
            k=2 + i % 2,
            n=4 + i % 17,
            m=2 + (3 * i) % 59,
            vspec=CONTINUOUS,
            seed=606_000 + i,
        )
        f = sample_formula(cfg)
        lam = min_safe_lambda(f)
        total += 1
        agree += solve_complete(truncate_thresholds(f, lam)).sat == solve_complete(f).sat
    ok = agree == total == 1000
    record_criterion("C6", f"truncation at safe depth preserves decisions ({agree}/{total})", ok)
    assert ok


def test_c07_certificates_sound_and_necessary():
    # snakes: planted and found certificates always sit on unsat formulas
    snakes_checked = 0
    snake_ok = True
    for ell in (6, 8):
        f, cert = planted_snake(ell)
        snakes_checked += 1
        snake_ok &= verify_snake(f, cert)
        snake_ok &= not solve_2rsat_scc(f).sat and not solve_complete(f).sat
    for i in range(30):
        f = sample_formula(GenConfig(k=2, n=24, m=96, vspec=CONTINUOUS, seed=707_000 + i))
        cert = find_snake(f, budget=200_000)
        if cert is None:
            continue
        snakes_checked += 1
        snake_ok &= verify_snake(f, cert)
        snake_ok &= not solve_2rsat_scc(f).sat and not solve_complete(f).sat

    # bicycles: every unsatisfiable distinct-variables instance yields one
    unsat_seen = bicycles = 0
    seed = 0
    while unsat_seen < 100:
        cfg = GenConfig(
            k=2,
            n=8 + seed % 3,
            m=24 + (3 * seed) % 7,
            vspec=CONTINUOUS,
            seed=708_000 + seed,
            distinct_vars_per_clause=True,
        )
        f = sample_formula(cfg)
        seed += 1
        if solve_complete(f).sat:
            continue
        unsat_seen += 1
        out = find_bicycle(f)
        if out is not None and out is not BUDGET_EXHAUSTED and verify_bicycle(f, out):
            bicycles += 1
    ok = snake_ok and snakes_checked >= 3 and bicycles == unsat_seen == 100
    record_criterion(
        "C7",
        f"certificates: {snakes_checked} snakes all sound, "
        f"bicycles on unsat instances {bicycles}/{unsat_seen}",
        ok,
    )
    assert ok


def test_c08_closed_form_threshold_numerics():
    r3 = thm1_root(3)
    r2 = thm1_root(2)
    ok = 36.0 < r3 <= 36.1 and thm1_value(3, 36.1) < 1.0
    record_criterion(
        "C8",
        f"root(3)={r3:.4f} in (36.0, 36.1], value(3, 36.1)={thm1_value(3, 36.1):.4f}; "
        f"root(2)={r2:.4f} vs reference 12.664 (discrepancy {abs(r2 - 12.664):.3f}, "
        "reported, not asserted)",
        ok,
    )
    assert ok


def test_c09_constraint_satisfaction_and_disjointness_probabilities():
    half = F(1, 2)
    f = sample_formula(GenConfig(k=2, n=1, m=50_000, vspec=CONTINUOUS, seed=909_100))
    lits = [lit for cl in f.clauses for lit in cl]
    sat_frac = sum(rsat.eval_literal(lit, half) for lit in lits) / len(lits)
    ok_sat = abs(sat_frac - 0.5) < three_sigma(0.5, len(lits))

    g = sample_formula(GenConfig(k=2, n=1, m=100_000, vspec=CONTINUOUS, seed=909_200))
    disjoint = sum(rsat.signs_disjoint(u, w) for u, w in g.clauses)
    dis_frac = disjoint / g.m
    ok_dis = abs(dis_frac - 0.25) < three_sigma(0.25, g.m)

    ok = ok_sat and ok_dis
    record_criterion(
        "C9",
        f"random-constraint stats: sat@1/2 = {sat_frac:.4f} (want 1/2), "
        f"disjoint = {dis_frac:.4f} (want 1/4)",
        ok,
    )
    assert ok


def test_c10_factorial_moments_exact_vs_monte_carlo():
    stream = Stream(1_010)
    ok = True
    worst = 0.0
    for i in range(50):
        n = 2 + i % 7
        m = 1 + (5 * i) % 10
        k = 2 + i % 2
        d = [0] * n
        budget = 6
        for j in range(n):
            dj = stream.below(3)
            dj = min(dj, budget)
            d[j] = dj
            budget -= dj
        exact = exact_factorial_moment(n, m, k, d)
        big_d = sum(d)
        ok &= exact <= F(k * m, n) ** big_d

        km = k * m
        samples = 2500
        total = total_sq = 0.0
        for _ in range(samples):
            counts = [0] * n
            for _ in range(km):
                counts[stream.below(n)] += 1
            prod = 1
            for j, dj in enumerate(d):
                prod *= falling_factorial(counts[j], dj)
            total += prod
            total_sq += prod * prod
        mean = total / samples
        sigma = max(total_sq / samples - mean * mean, 0.0) ** 0.5 / samples**0.5
        gap = abs(mean - float(exact))
        ok &= gap <= 3 * sigma + 1e-9
        worst = max(worst, gap - 3 * sigma)
    record_criterion(
        "C10", f"factorial moments: 50 configs within 3 sigma and below the cap", ok
    )
    assert ok


def test_c11_determinism_and_round_trips():
    cfg = SweepConfig(
        k=2,
        vspecs=(Finite(3), CONTINUOUS),
        n_values=(40,),
        c_grid=(F(1), F(2)),
        trials=30,
        seed=1_111,
    )
    csv_a = render_sweep_csv(run_sweep(cfg))
    csv_b = render_sweep_csv(run_sweep(cfg))
    ok_csv = csv_a == csv_b

    ok_formula = True
    for vspec in (Finite(6), Dyadic(4), CONTINUOUS):
        f = sample_formula(GenConfig(k=2, n=10, m=25, vspec=vspec, seed=1_112))
        text = render_formula(f)
        ok_formula &= rsat.parse_formula(text) == f
        ok_formula &= render_formula(rsat.parse_formula(text)) == text

    f6, cert6 = planted_snake(6)
    snake_text = rsat.render_certificate(cert6)
    ok_cert = rsat.parse_certificate(snake_text) == cert6
    ok_cert &= rsat.render_certificate(rsat.parse_certificate(snake_text)) == snake_text
    bike = find_bicycle(sample_formula(GenConfig(k=2, n=6, m=20, seed=1_113,
                                                 distinct_vars_per_clause=True)))
    if bike and bike is not BUDGET_EXHAUSTED:
        bike_text = rsat.render_certificate(bike)
        ok_cert &= rsat.parse_certificate(bike_text) == bike

    ok = ok_csv and ok_formula and ok_cert
    record_criterion(
        "C11",
        f"byte-identical sweep CSV: {ok_csv}; formula round-trips: {ok_formula}; "
        f"certificate round-trips: {ok_cert}",
        ok,
    )
    assert ok
