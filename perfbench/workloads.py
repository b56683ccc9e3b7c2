"""The benchmark's workloads: seeded inputs, ops and output checks.

Two workloads, each made of two parts: `trajectories` runs the relax and
stroke parts (RK4 trajectories with their ledgers), `solvers` runs the
cycles and custom parts (population-only cycle runners, and custom-tagged
generators that take the generic steady-state and quadrature routes).

An op is one user-level computation followed by checks on its outputs. A
failed check (CheckFailed) or a library exception fails that op only; the
round goes on with the next op. SlowDriveViolation warnings are expected
on the short strokes and are counted, not failed.

Every library function is reached through `lib`, the namespace built by
spans.library_api, so a traced round can record a span around each call.
Classes (Generator, CycleSpec, ...) come from the package itself.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import math
import random
import time
import traceback
import warnings
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WORKLOADS = {"trajectories": ("relax", "stroke"), "solvers": ("cycles", "custom")}

CUTOFF = 40
DECAY_T = 4.0
RELAX_T = 6.0
STROKE_DURATIONS = (2.0, 3.0, 4.0)
CARNOT_STROKE_TIME = 3.0
OTTO_X = (0.3, 0.5, 0.7, 0.9)
OTTO_R = (0.1, 0.5, 1.0)
OTTO_OMEGA_HOT = 0.3
OTTO_REGIME_EDGE = (0.3, 0.1)  # the grid point whose closed form is undefined
STEADY_CUTOFFS = (32, 40)  # one on each side of DENSE_STEADY_LIMIT
QUAD_CUTOFF = 20
QUAD_T = 2.5
QUAD_OMEGA = (25.0, 24.5)  # |d(omega)/dt|/omega = 0.008, inside SLOW_DRIVE_FRAC
QUAD_STRIDE = 12


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclasses.dataclass
class Op:
    name: str
    run: Callable  # run(lib) -> None; raises on a failed check
    attrs: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Workload:
    name: str
    params: dict  # drawn from the seed
    sizes: dict  # derived sizes; ops add what they observe
    ops: list
    apply_probe: Optional[tuple] = None  # (generator, state matrix, t)


@dataclasses.dataclass
class RoundResult:
    seconds: float
    part_seconds: dict  # op time summed per part
    attempted: int
    failed: int
    failures: list
    warnings: dict


def draw_params(part: str, seed: int) -> dict:
    """Physical parameters jittered in narrow ranges that keep every check valid.

    The ranges are narrow so that the cost of a round, which follows the
    step count and the Fock-space size, moves by about 1% across seeds.
    """
    rng = random.Random(f"{part}:{seed}")

    def u(lo, hi):
        return rng.uniform(lo, hi)

    if part == "relax":
        return {
            "decay_alpha": u(0.95, 1.05),
            "decay_omega": u(9.5, 10.5),
            "relax_r": u(0.395, 0.405),
            "relax_omega": u(9.5, 10.5),
        }
    if part == "stroke":
        return {
            "temperature": u(4.9, 5.1),
            "r": u(0.195, 0.205),
            "carnot_temp_hot": u(4.9, 5.1),
            "carnot_temp_cold": u(2.45, 2.55),
        }
    if part == "cycles":
        return {
            "temp_cold": u(0.99, 1.01),
            "temp_hot": u(2.99, 3.01),
            "mid_temperature": u(1.49, 1.51),
        }
    if part == "custom":
        return {
            # the corner (0.35, 0.3) leaves 3e-10 on the top two levels at
            # cutoff 32, well under the 1e-8 CutoffLeak gate
            "nbar": u(0.3, 0.35),
            "r": u(0.25, 0.3),
            "temperature": u(4.9, 5.1),
        }
    raise ValueError(f"unknown part {part!r}")


def library_caches(sb) -> list:
    """The package's functools caches, found by scanning its modules."""
    found = {}
    for mod in vars(sb).values():
        if getattr(mod, "__name__", "").startswith(sb.__name__ + "."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def run_round(wl: Workload, lib, sb, tracer=None, index: int = 0) -> RoundResult:
    """Run every op once, starting from empty library caches as a fresh
    process would. Only the ops are timed."""
    for cache in library_caches(sb):
        cache.cache_clear()
    round_span = (
        tracer.span("round", round=index) if tracer else contextlib.nullcontext()
    )
    attempted = failed = 0
    failures = []
    caught_counts: dict[str, int] = {}
    part_seconds: dict[str, float] = {}
    with round_span:
        start = time.perf_counter()
        for op in wl.ops:
            attempted += 1
            op_start = time.perf_counter()
            op_span = (
                tracer.span(f"op.{op.name}", op=True, **op.attrs)
                if tracer
                else contextlib.nullcontext()
            )
            with op_span, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    op.run(lib)
                except Exception as exc:  # noqa: BLE001 - one op fails, the run goes on
                    failed += 1
                    failures.append(
                        {
                            "op": op.name,
                            "error": type(exc).__name__,
                            "message": str(exc)[:500],
                            "traceback": traceback.format_exc(limit=-3),
                        }
                    )
            part = op.name.split("/")[0]
            part_seconds[part] = part_seconds.get(part, 0.0) + (
                time.perf_counter() - op_start
            )
            for w in caught:
                key = w.category.__name__
                caught_counts[key] = caught_counts.get(key, 0) + 1
        seconds = time.perf_counter() - start
    return RoundResult(seconds, part_seconds, attempted, failed, failures, caught_counts)


# ---------------------------------------------------------------------------
# relax


def _read_csv(path: Path) -> dict:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def _build_relax(p: dict, sb, lib, workdir: Path) -> Workload:
    dim = sb.HilbertDim(CUTOFF)
    sizes: dict = {"cutoff": CUTOFF}
    a, wd = p["decay_alpha"], p["decay_omega"]
    r, wr = p["relax_r"], p["relax_omega"]

    decay_ini = workdir / "decay.ini"
    decay_ini.write_text(
        f"[decay]\nalpha = {a!r}\nt_final = {DECAY_T!r}\nomega = {wd!r}\n"
    )
    relax_ini = workdir / "squeezed-relax.ini"
    relax_ini.write_text(
        f"[squeezed-relax]\nt_final = {RELAX_T!r}\nr = {r!r}\nomega = {wr!r}\n"
    )
    decay_gen = lib.thermal_generator(wd, 1.0, nbar=0.0, dim=dim)
    decay_rho0 = lib.coherent_state(a, dim)
    decay_h = lib.harmonic_hamiltonian(wd, dim)
    relax_gen = lib.squeezed_generator(wr, 1.0, 0.0, r, dim=dim)
    relax_rho0 = lib.thermal_state(0.0, dim)
    relax_h = lib.harmonic_hamiltonian(wr, dim)
    target_ergo = wr * math.sinh(r) ** 2

    def decay_closed(t):
        return wd * a * a * (np.exp(-2.0 * t) - 1.0)

    def check_decay_flow(t, ergo_flow):
        err = float(np.abs(ergo_flow - decay_closed(t)).max())
        check(err < 1e-6, f"decay ergotropy flow off the closed form by {err:.3e}")

    def check_relax_ergo(value):
        check(
            abs(value - target_ergo) <= 1e-2 * target_ergo,
            f"final ergotropy {value:.6g} vs omega sinh^2 r = {target_ergo:.6g}",
        )

    def run_cli(lib, scenario, ini):
        out = workdir / f"{scenario}.csv"
        rc = lib.main([scenario, "--config", str(ini), "--out", str(out)])
        check(rc == 0, f"squeezedbath {scenario} exited with {rc}")
        return _read_csv(out)

    def decay_cli(lib):
        table = run_cli(lib, "decay", decay_ini)
        check_decay_flow(table["t"], table["dErgo_d_cum"])

    def relax_cli(lib):
        table = run_cli(lib, "squeezed-relax", relax_ini)
        check_relax_ergo(table["ergotropy"][-1])

    def decay_library(lib):
        traj = lib.evolve(decay_gen, decay_rho0, DECAY_T, snapshot_stride=1)
        sizes["decay_snapshots"] = len(traj.times)
        led = lib.accumulate_ledger(traj, decay_gen)
        check_decay_flow(led.times, led.ergotropy_dissipated_cum)
        dec = lib.passive_decompose(traj.final_state, decay_h)
        check(
            dec.passive_energy < 1e-8,
            f"decayed coherent state has passive energy {dec.passive_energy:.3e}",
        )

    def relax_library(lib):
        traj = lib.evolve(relax_gen, relax_rho0, RELAX_T, snapshot_stride=1)
        sizes["relax_snapshots"] = len(traj.times)
        led = lib.accumulate_ledger(traj, relax_gen)
        check_relax_ergo(led.ergotropy[-1])
        dec = lib.passive_decompose(traj.final_state, relax_h)
        check(
            abs(dec.ergotropy - led.ergotropy[-1]) < 1e-8,
            f"passive_decompose ergotropy {dec.ergotropy:.12g} vs ledger "
            f"{led.ergotropy[-1]:.12g}",
        )

    ops = [
        Op("decay.cli", decay_cli),
        Op("squeezed_relax.cli", relax_cli),
        Op("decay.library", decay_library),
        Op("squeezed_relax.library", relax_library),
    ]
    return Workload("relax", p, sizes, ops, (relax_gen, relax_rho0.matrix, 0.0))


# ---------------------------------------------------------------------------
# stroke


def _build_stroke(p: dict, sb, lib, workdir: Path) -> Workload:
    dim = sb.HilbertDim(CUTOFF)
    temp, r = p["temperature"], p["r"]
    sizes: dict = {"cutoff": CUTOFF, "durations": list(STROKE_DURATIONS)}
    rho0 = lib.thermal_state(lib.bose_occupation(25.0, temp), dim)
    strokes = []
    for tau in STROKE_DURATIONS:
        sched = lib.linear_ramp_schedule(25.0, 20.0, tau, dim)
        gen = lib.squeezed_generator(sched, 1.0, None, r, dim=dim, temperature=temp)
        strokes.append((tau, gen))
    spec = lib.matched_carnot_spec(
        p["carnot_temp_cold"],
        p["carnot_temp_hot"],
        25.0,
        20.0,
        CARNOT_STROKE_TIME,
        settle_time=14.0,
        cutoff=CUTOFF,
    )

    def carnot_stroke(lib):
        slacks = []
        snaps = []
        for tau, gen in strokes:
            traj = lib.evolve(gen, rho0, tau)
            snaps.append(len(traj.times))
            rep = lib.entropy_bound_report(traj, gen)
            check(
                rep.sigma_spohn > 10.0 * rep.slack_alt_path,
                f"tau={tau:g}: sigma {rep.sigma_spohn:.3e} not above 10x the "
                f"alt-path slack {rep.slack_alt_path:.3e}",
            )
            slacks.append(rep.slack_alt_path)
        sizes["stroke_snapshots"] = snaps
        check(
            all(x > y for x, y in zip(slacks, slacks[1:])),
            f"alt-path slack does not fall with duration: {slacks}",
        )

    def carnot_like(lib):
        rep = lib.run_carnot_like(spec)
        check(
            0.0 < rep.eta < rep.eta_carnot,
            f"carnot_like eta {rep.eta:.6g} outside (0, eta_Carnot = "
            f"{rep.eta_carnot:.6g})",
        )

    ops = [Op("carnot_stroke", carnot_stroke), Op("carnot_like", carnot_like)]
    mid_tau, mid_gen = strokes[1]
    return Workload("stroke", p, sizes, ops, (mid_gen, rho0.matrix, 0.5 * mid_tau))


# ---------------------------------------------------------------------------
# cycles


def _otto_cutoff(lib, spec) -> int:
    """The Fock size run_otto picks for cutoff=None (its documented rule)."""
    nb_c = lib.bose_occupation(spec.omega_cold, spec.temp_cold)
    nb_h = lib.bose_occupation(spec.omega_hot, spec.temp_hot)
    mids = [lib.bose_occupation(spec.omega_hot, s.temperature) for s in spec.mid_baths]
    return max(
        lib.required_cutoff(nb_c, 0.0),
        lib.required_cutoff(nb_h, spec.r),
        *(lib.required_cutoff(nb, 0.0) for nb in mids),
        40,
    )


def _build_cycles(p: dict, sb, lib, workdir: Path) -> Workload:
    tc, th = p["temp_cold"], p["temp_hot"]
    ops = []
    cutoffs = []
    seen = set()
    for r in OTTO_R:  # r outer, x inner, as the otto-sweep CLI orders its grid
        for x in OTTO_X:
            spec = sb.CycleSpec(
                temp_cold=tc,
                temp_hot=th,
                omega_cold=x * OTTO_OMEGA_HOT,
                omega_hot=OTTO_OMEGA_HOT,
                r=r,
            )
            n = _otto_cutoff(lib, spec)
            cutoffs.append(n)
            # first point at each (r, cutoff) builds the squeeze matrix
            cold = (r, n) not in seen
            seen.add((r, n))
            run = _otto_point(spec, x, r, sb.RegimeViolation)
            ops.append(Op(f"otto.r{r:g}.x{x:g}", run, {"cold": cold}))

    multi = sb.CycleSpec(
        temp_cold=tc,
        temp_hot=th,
        omega_cold=0.15,
        omega_hot=OTTO_OMEGA_HOT,
        r=0.5,
        mid_baths=(sb.BathStage(temperature=p["mid_temperature"]),),
    )
    plain = dataclasses.replace(multi, mid_baths=())
    n_multi = _otto_cutoff(lib, multi)
    cold_multi = (0.5, n_multi) not in seen

    def multibath(lib):
        rep = lib.run_otto(multi)
        hot = [(rep.E_dh, rep.E_dh_prime, th)]
        thermal = [(e_d, temp) for e_d, _pas, temp in rep.mid_flows]
        thermal.append((rep.E_dc, tc))
        bound = lib.multibath_bound(hot, thermal)
        reduced = lib.run_otto(plain)
        temps = [tc, th, p["mid_temperature"]]
        cap = lib.eta_max(reduced.E_dh_prime, reduced.E_dh, min(temps), max(temps))
        check(
            rep.eta < bound < cap,
            f"multibath: need eta {rep.eta:.6g} < bound {bound:.6g} < two-bath "
            f"cap {cap:.6g}",
        )

    ops.append(Op("multibath", multibath, {"cold": cold_multi}))
    cold_points = sum(op.attrs["cold"] for op in ops)
    sizes = {
        "otto_cutoffs": cutoffs,
        "multibath_cutoff": n_multi,
        "cutoff_max": max(cutoffs + [n_multi]),
        "otto_points": len(ops),
        "otto_cold_points": cold_points,
        "otto_cold_share": cold_points / len(ops),
    }
    return Workload("cycles", p, sizes, ops, None)


def _otto_point(spec, x: float, r: float, regime_violation: type) -> Callable:
    def run(lib):
        try:
            closed = lib.closed_form_otto(
                spec.temp_cold, spec.temp_hot, spec.omega_cold, spec.omega_hot, r
            )
        except regime_violation:
            closed = None
        rep = lib.run_otto(spec)
        if closed is None:
            check((x, r) == OTTO_REGIME_EDGE, f"unexpected RegimeViolation at {(x, r)}")
            check(
                rep.regime == "not_engine" and math.isnan(rep.eta) and rep.work_out < 0,
                f"{(x, r)}: expected a non-engine cycle, got {rep.regime}",
            )
            return
        check((x, r) != OTTO_REGIME_EDGE, f"{(x, r)}: closed form should be undefined")
        for name in ("eta", "eta_max", "eta_sigma", "E_dh", "E_dc"):
            got, want = getattr(rep, name), getattr(closed, name)
            check(
                abs(got - want) <= 1e-3 * abs(want),
                f"{(x, r)} {name}: simulated {got:.9g} vs closed form {want:.9g}",
            )
        check(
            rep.eta <= rep.eta_max + 1e-12
            and rep.eta_max <= rep.eta_sigma + 1e-12
            and rep.eta_carnot <= rep.eta_max + 1e-12,
            f"{(x, r)}: efficiency caps out of order",
        )

    return run


# ---------------------------------------------------------------------------
# custom


def _build_custom(p: dict, sb, lib, workdir: Path) -> Workload:
    nbar, r, temp = p["nbar"], p["r"], p["temperature"]
    limit = sb.dynamics.DENSE_STEADY_LIMIT
    sizes: dict = {
        "steady_cutoffs": list(STEADY_CUTOFFS),
        "steady_routes": ["dense" if n <= limit else "sparse" for n in STEADY_CUTOFFS],
        "quadrature_cutoff": QUAD_CUTOFF,
    }
    ops = []
    for n in STEADY_CUTOFFS:
        # a squeezed bath built as a thermal bath rotated by S(r): its kernel
        # is S(r) rho_thermal S(r)^dag exactly, even on the truncated space
        thermal = lib.thermal_generator(1.0, 1.0, nbar=nbar, dim=n)
        rotated = lib.conjugate_generator(thermal, lib.squeeze_operator(-r, n))
        ops.append(Op(f"steady_state.n{n}", _steady_op(rotated, nbar, r, n)))

    dim = sb.HilbertDim(QUAD_CUTOFF)
    sched = lib.linear_ramp_schedule(*QUAD_OMEGA, QUAD_T, dim)
    tagged = lib.thermal_generator(sched, 1.0, dim=dim, temperature=temp)
    clone = sb.Generator(
        dim=tagged.dim,
        hamiltonian=tagged.hamiltonian,
        jumps=tagged.jumps,
        kind="custom",
        picture=tagged.picture,
        kappa=tagged.kappa,
        temperature=tagged.temperature,
        occupation_fn=tagged.occupation_fn,
    )
    rho0 = lib.thermal_state(lib.bose_occupation(QUAD_OMEGA[0], temp), dim)

    def quadrature(lib):
        traj = lib.evolve(clone, rho0, QUAD_T, snapshot_stride=QUAD_STRIDE)
        sizes["quadrature_snapshots"] = len(traj.times)
        quad = lib.sigma_series(traj, clone)
        # the tagged route's closed form for a fixed-temperature drive
        s = np.array([lib.von_neumann_entropy(x) for x in traj.states])
        exact = (s - s[0]) - traj.dissipated_cum / temp
        err = float(np.abs(quad - exact).max())
        check(err < 1e-8, f"quadrature sigma off the tagged route by {err:.3e}")

    ops.append(Op("sigma_series.quadrature", quadrature))
    return Workload("custom", p, sizes, ops, (clone, rho0.matrix, 0.5 * QUAD_T))


def _steady_op(gen, nbar: float, r: float, n: int) -> Callable:
    def run(lib):
        ss = lib.steady_state(gen)
        dist = lib.trace_distance(ss, lib.squeezed_thermal_state(nbar, r, n))
        check(dist < 1e-8, f"n={n}: steady state {dist:.3e} from squeezed thermal")

    return run


_PARTS = {
    "relax": _build_relax,
    "stroke": _build_stroke,
    "cycles": _build_cycles,
    "custom": _build_custom,
}


def build(name: str, seed: int, sb, lib, workdir: Path) -> Workload:
    """Construct a workload's inputs; this is the set-up the benchmark times.

    Op names, parameters and sizes are keyed by part. The generator timed
    for dynamics.apply.us is the last part's (stroke, custom).
    """
    wl = Workload(name, {}, {}, [])
    for part in WORKLOADS[name]:
        sub = _PARTS[part](draw_params(part, seed), sb, lib, Path(workdir))
        wl.params[part] = sub.params
        wl.sizes[part] = sub.sizes
        wl.ops += [dataclasses.replace(op, name=f"{part}/{op.name}") for op in sub.ops]
        wl.apply_probe = sub.apply_probe or wl.apply_probe
    return wl
