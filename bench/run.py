#!/usr/bin/env python3
"""Benchmark for rsat: one seeded workload, timed end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload sweep-k2-scc --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload sweep-k2-scc --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics: trial throughput, set-up time
(the median of several fresh interpreters that import rsat and build the
workload's inputs) and peak resident memory.  ``--trace 1`` runs every unit
untraced and then traced, and prints per-layer self times and counts.
Each run checks every output it times.  The environment, the metrics and,
for traced runs, every span go to ``bench/out/``; the last line of standard
output is the result as one JSON object.  The exit code is 1 when an output
check failed and 2 when rsat's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, reference_loop, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 7


def time_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up time of fresh interpreters that import rsat and build the inputs.

    Returns the median in reference seconds, each run scaled by the
    reference loop timed on either side of it, and the raw median.
    """
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
        f"workloads.WORKLOADS[{name!r}].setup({seed})"
    )
    raw, scaled = [], []
    before = time_reference()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        raw.append(perf_counter() - t0)
        after = time_reference()
        scaled.append(raw[-1] * NOMINAL_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def commit() -> str:
    """The checked-out commit, read from ROOT/.git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, trace: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "rsat").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": sources.hexdigest(),
    }


def end_to_end_metrics(tally, setup_s: float) -> dict[str, tuple[float, str]]:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "trials_per_ref_s": (statistics.median(tally.ref_rates()), "1/ref_s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rsat" / "__init__.py").is_file():
        print(f"bench: rsat sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("RSAT_THREADS", None)  # one worker, as the workloads assume
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    reference_loop()  # the first call in a process runs slower
    setup_s, raw_setup_s = (None, None) if args.trace else time_setup(wl.name, args.seed)
    tally, tr = workloads.measure(wl, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = workloads.layer_metrics(tally, tr)
    else:
        metrics = end_to_end_metrics(tally, setup_s)

    env = environment(wl.name, args.seed, args.trace)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "unit_rates": tally.unit_rates,
              "ref_s": tally.ref_s, "wrong": tally.wrong}
    if args.trace:
        record["span_fields"] = ["name", "start_s", "end_s", "parent", "trial"]
        record["spans"] = tr.spans
    out_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    for problem in tally.wrong[:20]:
        print(f"bench: WRONG OUTPUT: {problem}", file=sys.stderr)
    print("# " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# not scaled: trials/s = {statistics.median(tally.unit_rates):.6g}, setup = "
          f"{raw_setup_s} s; reference loop median {1e3 * statistics.median(tally.ref_s):.3g} ms")
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
