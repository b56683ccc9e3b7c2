"""Seeded benchmark of squeezedbath through its public library API.

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 50 --trace 0

Workloads: trajectories (relax and stroke parts) and solvers (cycles and
custom parts); see perfbench/README.md. One run times the workload's set-up
in fresh interpreters, then repeats rounds of the workload's ops until
--seconds have passed. Every op checks its outputs.

--trace 0 prints the end-to-end metrics (run_s, setup_s, peak_rss_mb);
--trace 1 alternates traced and untraced rounds and prints the per-layer
metrics from spans recorded around every call into the library. The last
line of standard output is one JSON object; the full record (parameters,
derived sizes, environment, failures, spans) goes to perfbench/out/.
Run from the root of a source checkout: the package is imported from src/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "squeezedbath"
BLAS_THREADS = "1"
SETUP_SAMPLES = 8  # half before the rounds, half after
APPLY_BATCHES = 5
APPLY_CALLS = 200

WORKLOADS = ("trajectories", "solvers")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_blas() -> None:
    """One BLAS thread: must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def load_package():
    sys.path.insert(0, str(SRC))
    import squeezedbath as sb

    if not Path(sb.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"{PACKAGE} resolved to {sb.__file__}, not under {SRC}")
    return sb


def build_inputs(workload: str, seed: int, workdir: Path, tracer=None):
    """Import the package and construct the workload's inputs (the set-up)."""
    import workloads

    sb = load_package()
    lib = spans.library_api(PACKAGE, tracer)
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        return sb, lib, workloads.build(workload, seed, sb, lib, workdir)


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of import plus input construction in this fresh interpreter."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        build_inputs(workload, seed, Path(tmp))
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=15, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def time_apply(sb, probe) -> float:
    """Median microseconds per generator application on the workload's own
    generator and state."""
    if probe is None:
        return 0.0
    gen, rho, t = probe
    per_call = []
    for _ in range(APPLY_BATCHES):
        start = time.perf_counter()
        for _ in range(APPLY_CALLS):
            sb.apply(gen, rho, t, hermitian=True)
        per_call.append((time.perf_counter() - start) / APPLY_CALLS)
    return 1e6 * statistics.median(per_call)


def layer_metrics(tracer, wl, dense_limit, traced_rounds, apply_us, overhead_s):
    """Per-layer numbers from the traced rounds.

    Times are self times in seconds per round (median over traced rounds);
    counts are per round. fock also counts the traced set-up, where the
    states and operators are built. A layer the workload never calls reads 0.
    """
    selfs = spans.self_times(tracer.spans)
    calls = [s for s in tracer.spans if s.name.split(".")[0] in spans.LAYERS]

    def op_attr(s, key):
        return tracer.spans[s.op].attrs.get(key) if s.op is not None else None

    def per_round(pred, value=lambda s: selfs[s.id]):
        totals = [
            sum(value(s) for s in calls if s.round == r and pred(s))
            for r in traced_rounds
        ]
        return statistics.median(totals)

    def named(name):
        return lambda s: s.name == name

    def pooled(name, key):
        chosen = [s for s in calls if s.round in traced_rounds and s.name == name]
        return sum(selfs[s.id] for s in chosen), sum(s.attrs[key] for s in chosen)

    def layer(prefix):
        return lambda s: s.name.startswith(prefix + ".")

    evolve_s, evolve_t = pooled("dynamics.evolve", "t_sim")
    ledger_s, ledger_snaps = pooled("ledger.accumulate_ledger", "snapshots")
    sigma_s, sigma_snaps = pooled("ledger.sigma_series", "snapshots")

    def fock(value):
        setup = sum(value(s) for s in calls if s.round is None and layer("fock")(s))
        return setup + per_round(layer("fock"), value)

    def steady(small):
        return per_round(
            lambda s: s.name == "dynamics.steady_state"
            and (s.attrs["cutoff"] <= dense_limit) == small
        )

    metrics = {
        "dynamics.evolve.s": (per_round(named("dynamics.evolve")), "s"),
        "dynamics.evolve.calls": (per_round(named("dynamics.evolve"), lambda s: 1), "count"),
        "dynamics.evolve.snapshots": (
            per_round(named("dynamics.evolve"), lambda s: s.attrs["snapshots"]), "count"),
        "dynamics.evolve.kappa_t_per_s": (evolve_t / evolve_s if evolve_s else 0.0, "1/s"),
        "dynamics.apply.us": (apply_us, "us"),
        "dynamics.steady_state.small.s": (steady(True), "s"),
        "dynamics.steady_state.large.s": (steady(False), "s"),
        "ledger.accumulate_ledger.s": (per_round(named("ledger.accumulate_ledger")), "s"),
        "ledger.accumulate_ledger.us_per_snapshot": (
            1e6 * ledger_s / ledger_snaps if ledger_snaps else 0.0, "us"),
        "ledger.entropy_bound_report.s": (
            per_round(named("ledger.entropy_bound_report")), "s"),
        "ledger.sigma_series.s": (per_round(named("ledger.sigma_series")), "s"),
        "ledger.sigma_series.ms_per_snapshot": (
            1e3 * sigma_s / sigma_snaps if sigma_snaps else 0.0, "ms"),
        "engine.run_otto.cold.s": (
            per_round(lambda s: s.name == "engine.run_otto" and op_attr(s, "cold")), "s"),
        "engine.run_otto.warm.s": (
            per_round(lambda s: s.name == "engine.run_otto" and not op_attr(s, "cold")), "s"),
        "engine.run_otto.cutoff_max": (
            wl.sizes.get("cycles", {}).get("cutoff_max", 0), "count"),
        "engine.run_carnot_like.s": (per_round(named("engine.run_carnot_like")), "s"),
        "passivity.s": (per_round(layer("passivity")), "s"),
        "passivity.calls": (per_round(layer("passivity"), lambda s: 1), "count"),
        "fock.s": (fock(lambda s: selfs[s.id]), "s"),
        "fock.calls": (fock(lambda s: 1), "count"),
        "cli.main.s": (per_round(named("cli.main")), "s"),
        "cli.csv_bytes": (per_round(named("cli.main"), lambda s: s.attrs["csv_bytes"]), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "src_lines": src_lines,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args) -> dict:
    import workloads

    # set-up is timed in trace-0 runs only; its probes bracket the rounds so
    # that they sample the host over the whole run
    probes = 0 if args.trace else SETUP_SAMPLES // 2
    setup_samples = measure_setup(args.workload, args.seed, probes)
    tracer = spans.Tracer() if args.trace else None
    rounds = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        # a traced run builds its inputs under the tracer, to record the fock calls
        sb, lib, wl = build_inputs(args.workload, args.seed, Path(tmp), tracer)
        plain_lib = spans.library_api(PACKAGE) if tracer else lib
        # whole rounds while the next one, at the mean round time so far, still
        # fits in --seconds; a traced run needs one traced and one untraced round
        min_rounds = 2 if tracer else 1
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            res = workloads.run_round(
                wl, lib if traced else plain_lib, sb,
                tracer if traced else None, len(rounds),
            )
            rounds.append((traced, res))
            elapsed = time.perf_counter() - start
            if len(rounds) >= min_rounds and elapsed * (1 + 1 / len(rounds)) > args.seconds:
                break

    setup_samples += measure_setup(args.workload, args.seed, probes)
    plain = [r.seconds for t, r in rounds if not t]
    attempted = sum(r.attempted for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    caught: dict[str, int] = {}
    for _, r in rounds:
        for k, v in r.warnings.items():
            caught[k] = caught.get(k, 0) + v
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": [
            {"traced": t, "seconds": r.seconds, "part_seconds": r.part_seconds}
            for t, r in rounds
        ],
        "part_run_s": {
            part: statistics.median(r.part_seconds[part] for t, r in rounds if not t)
            for part in rounds[0][1].part_seconds
        },
        "setup_samples_s": setup_samples,
        "params": wl.params,
        "sizes": wl.sizes,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "warnings": caught,
        "failures": [f for _, r in rounds for f in r.failures],
    }
    if tracer:
        traced_idx = [i for i, (t, _) in enumerate(rounds) if t]
        overhead = statistics.median(
            r.seconds for t, r in rounds if t) - statistics.median(plain)
        metrics = layer_metrics(
            tracer, wl, sb.dynamics.DENSE_STEADY_LIMIT, traced_idx,
            time_apply(sb, wl.apply_probe), overhead,
        )
        record["spans"] = spans.span_records(tracer.spans)
    else:
        values = {
            "run_s": statistics.median(plain),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record["metrics"] = metrics
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {len(record['rounds'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':42s} {record['fail_frac']:14.6g} "
          f"({record['failed']} of {record['attempted']} ops failed)")
    for part, sec in record["part_run_s"].items():
        print(f"  {'part ' + part + ' run_s (median, untraced)':42s} {sec:14.6g} s")
    for f in record["failures"][:5]:
        print(f"  FAILED {f['op']}: {f['error']}: {f['message']}")
    print("  warnings " + json.dumps(record["warnings"]))
    print("  params " + json.dumps(record["params"]))
    print("  sizes " + json.dumps(record["sizes"]))
    print("  environment " + json.dumps(record["environment"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE).is_dir():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    record = run(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=float))
    report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
