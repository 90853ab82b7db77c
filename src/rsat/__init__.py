"""Regular signed k-SAT: exact semantics, samplers, deciders, certificates,
closed-form bounds and a Monte Carlo phase-transition harness."""

from .analytics import (
    bejar_bound,
    exact_factorial_moment,
    snake_length,
    thm1_root,
    thm1_value,
    wilson_interval,
)
from .certificates import (
    BUDGET_EXHAUSTED,
    Bicycle,
    Snake,
    find_bicycle,
    find_snake,
    verify_bicycle,
    verify_snake,
)
from .errors import (
    DomainError,
    DuplicateThresholds,
    InvalidConfig,
    MissingAssignment,
    NoCrossing,
    ParseError,
    ResourceLimit,
    RsatError,
    WrongArity,
    WrongVspec,
)
from .fileformat import (
    parse_certificate,
    parse_formula,
    render_certificate,
    render_formula,
    vspec_from_token,
    vspec_to_token,
)
from .formula import (
    CONTINUOUS,
    Clause,
    ClauseError,
    Continuous,
    Dyadic,
    Finite,
    Formula,
    Interpretation,
    Literal,
    Rel,
    TruthValueSpec,
    eval_formula,
    eval_literal,
    signs_disjoint,
)
from .rng import Stream, mix64, stream_seed
from .sampler import (
    GenConfig,
    couple_increase_v,
    min_safe_lambda,
    sample_formula,
    truncate_thresholds,
)
from .solver import (
    SolveResult,
    build_implication_digraph,
    candidate_domains,
    solve_2rsat_scc,
    solve_complete,
)
from .sweep import (
    CSV_HEADER,
    SweepConfig,
    SweepResult,
    clause_count,
    estimate_crossing,
    render_limited_report,
    render_sweep_csv,
    run_sweep,
)

__version__ = "0.1.0"
