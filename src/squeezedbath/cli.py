"""Command line front end: scenario configs in, CSV tables out.

Each subcommand reads one INI file whose single section must be named
after the subcommand, validates it against a fixed key schema (unknown or
missing keys are hard errors), computes everything in memory and only
then writes the output file. A failed run therefore never leaves a
partial CSV behind. Exit codes: 0 success, 2 configuration problem,
1 runtime failure.

Output files start with a units comment line; all floats are rendered
with %.12g so repeated runs are byte identical.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import multiprocessing
import sys
from pathlib import Path

import numpy as np

from . import engine as eng
from .dynamics import (
    bose_occupation,
    evolve,
    linear_ramp_schedule,
    squeezed_generator,
    thermal_generator,
)
from .errors import ConfigError
from .fock import HilbertDim, coherent_state, thermal_state
from .ledger import accumulate_ledger, entropy_bound_report

UNITS_NOTE = (
    "units: hbar = k_B = 1; time in 1/kappa; frequencies and temperatures "
    "in kappa; energies in hbar*kappa; entropy in k_B"
)

TRAJECTORY_COLUMNS = [
    "t",
    "energy",
    "entropy",
    "ergotropy",
    "passive_energy",
    "E_d_cum",
    "W_cum",
    "dEpas_d_cum",
    "dErgo_d_cum",
    "sigma_cum",
    "trace_err",
    "min_eig",
]

CYCLE_COLUMNS = [
    "E_dh",
    "E_dh_prime",
    "E_dc",
    "work_out",
    "eta",
    "eta_max",
    "eta_sigma",
    "eta_carnot",
    "regime",
    "firstlaw_residual",
    "entropy_closure",
]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _render(columns, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# {UNITS_NOTE}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# config handling


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}")


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}")


def _as_float_list(section: str, key: str, raw: str):
    out = _as_floats_or_empty(section, key, raw)
    if not out:
        raise ConfigError(f"[{section}] {key}: expected at least one number")
    return out


def _as_floats_or_empty(section: str, key: str, raw: str):
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if piece:
            out.append(_as_float(section, key, piece))
    return out


def _as_word(section: str, key: str, raw: str) -> str:
    return raw.strip()


_CONVERTERS = {
    "float": _as_float,
    "int": _as_int,
    "float_list": _as_float_list,
    "floats_or_empty": _as_floats_or_empty,
    "word": _as_word,
}

# schema: key -> (type, default); default=REQUIRED means the key must appear
REQUIRED = object()

SCHEMAS = {
    "decay": {
        "alpha": ("float", REQUIRED),
        "t_final": ("float", REQUIRED),
        "omega": ("float", 1.0),
        "kappa": ("float", 1.0),
        "nbar": ("float", 0.0),
        "cutoff": ("int", 40),
        "dt": ("float", None),
    },
    "squeezed-relax": {
        "t_final": ("float", REQUIRED),
        "nbar": ("float", 0.0),
        "r": ("float", 0.4),
        "initial_nbar": ("float", 0.0),
        "omega": ("float", 10.0),
        "kappa": ("float", 1.0),
        "cutoff": ("int", 40),
        "dt": ("float", None),
    },
    "carnot-stroke": {
        "durations": ("float_list", REQUIRED),
        "temperature": ("float", 5.0),
        "omega_start": ("float", 25.0),
        "omega_end": ("float", 20.0),
        "r": ("float", 0.2),
        "kappa": ("float", 1.0),
        "cutoff": ("int", 40),
        "dt": ("float", None),
    },
    "otto-sweep": {
        "temp_hot": ("float", REQUIRED),
        "temp_cold": ("float", REQUIRED),
        "omega_hot": ("float", REQUIRED),
        "x_values": ("float_list", REQUIRED),
        "r_values": ("float_list", REQUIRED),
        "kappa": ("float", 1.0),
        "stroke_time": ("float", 30.0),
        "cutoff": ("int", 0),  # 0 = size automatically
    },
    "cycle": {
        "kind": ("word", "otto"),
        "temp_cold": ("float", REQUIRED),
        "temp_hot": ("float", REQUIRED),
        "omega_cold": ("float", None),
        "omega_hot": ("float", REQUIRED),
        "omega_hot_end": ("float", None),
        "r": ("float", 0.0),
        "kappa": ("float", 1.0),
        "stroke_time": ("float", 30.0),
        "settle_time": ("float", None),
        "cutoff": ("int", 0),
        "dt": ("float", None),
    },
    "multibath": {
        "temp_cold": ("float", REQUIRED),
        "temp_hot": ("float", REQUIRED),
        "mid_temperatures": ("floats_or_empty", REQUIRED),
        "omega_cold": ("float", REQUIRED),
        "omega_hot": ("float", REQUIRED),
        "r": ("float", 0.0),
        "kappa": ("float", 1.0),
        "stroke_time": ("float", 30.0),
        "cutoff": ("int", 0),
    },
}

# keys the --dt/--cutoff overrides may touch, per scenario
_DT_SCENARIOS = {"decay", "squeezed-relax", "carnot-stroke", "cycle"}


def _load_config(scenario: str, path: str, args) -> dict:
    text = Path(path).read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    if parser.defaults():
        raise ConfigError("a DEFAULT section is not allowed")
    if scenario not in parser:
        raise ConfigError(f"missing [{scenario}] section in {path}")
    extra = [s for s in parser.sections() if s != scenario]
    if extra:
        raise ConfigError(f"unexpected sections: {', '.join(extra)}")

    schema = SCHEMAS[scenario]
    section = parser[scenario]
    unknown = sorted(set(section.keys()) - set(schema.keys()))
    if unknown:
        raise ConfigError(f"[{scenario}] unknown keys: {', '.join(unknown)}")

    out = {}
    for key, (kind, default) in schema.items():
        if key in section:
            out[key] = _CONVERTERS[kind](scenario, key, section[key])
        elif default is REQUIRED:
            raise ConfigError(f"[{scenario}] missing required key: {key}")
        else:
            out[key] = default

    if args.dt is not None:
        if scenario not in _DT_SCENARIOS:
            raise ConfigError(f"--dt is not used by the {scenario} scenario")
        out["dt"] = args.dt
    if args.cutoff is not None:
        out["cutoff"] = args.cutoff
    return out


# ---------------------------------------------------------------------------
# scenarios


def _ledger_rows(ledger) -> list:
    rows = []
    for i in range(len(ledger.times)):
        rows.append(
            [
                ledger.times[i],
                ledger.energy[i],
                ledger.entropy[i],
                ledger.ergotropy[i],
                ledger.passive_energy[i],
                ledger.dissipated_cum[i],
                ledger.work_cum[i],
                ledger.passive_dissipated_cum[i],
                ledger.ergotropy_dissipated_cum[i],
                ledger.sigma_cum[i],
                ledger.trace_errors[i],
                ledger.min_eigs[i],
            ]
        )
    return rows


def _run_decay(cfg: dict):
    dim = HilbertDim(cfg["cutoff"])
    gen = thermal_generator(cfg["omega"], cfg["kappa"], nbar=cfg["nbar"], dim=dim)
    rho0 = coherent_state(cfg["alpha"], dim)
    traj = evolve(gen, rho0, cfg["t_final"], dt=cfg["dt"])
    return TRAJECTORY_COLUMNS, _ledger_rows(accumulate_ledger(traj, gen))


def _run_squeezed_relax(cfg: dict):
    dim = HilbertDim(cfg["cutoff"])
    gen = squeezed_generator(
        cfg["omega"], cfg["kappa"], cfg["nbar"], cfg["r"], dim=dim
    )
    rho0 = thermal_state(cfg["initial_nbar"], dim)
    traj = evolve(gen, rho0, cfg["t_final"], dt=cfg["dt"])
    return TRAJECTORY_COLUMNS, _ledger_rows(accumulate_ledger(traj, gen))


def _run_carnot_stroke(cfg: dict):
    dim = HilbertDim(cfg["cutoff"])
    temp = cfg["temperature"]
    columns = [
        "duration",
        "delta_S",
        "E_d",
        "E_d_prime",
        "sigma",
        "slack",
        "slack_prime",
    ]
    rows = []
    for tau in sorted(cfg["durations"]):
        sched = linear_ramp_schedule(cfg["omega_start"], cfg["omega_end"], tau, dim)
        gen = squeezed_generator(
            sched, cfg["kappa"], None, cfg["r"], dim=dim, temperature=temp
        )
        nb0 = bose_occupation(cfg["omega_start"], temp)
        traj = evolve(gen, thermal_state(nb0, dim), tau, dt=cfg["dt"])
        rep = entropy_bound_report(traj, gen, dt=cfg["dt"])
        rows.append(
            [
                tau,
                rep.delta_S,
                rep.dissipated,
                rep.alt_energy,
                rep.sigma_spohn,
                rep.slack_total_heat,
                rep.slack_alt_path,
            ]
        )
    return columns, rows


def _cycle_spec(cfg: dict, mid_temps=()) -> eng.CycleSpec:
    return eng.CycleSpec(
        temp_cold=cfg["temp_cold"],
        temp_hot=cfg["temp_hot"],
        omega_cold=cfg["omega_cold"],
        omega_hot=cfg["omega_hot"],
        r=cfg["r"],
        kappa=cfg["kappa"],
        stroke_time=cfg["stroke_time"],
        cutoff=cfg["cutoff"] or None,
        mid_baths=tuple(eng.BathStage(temperature=t) for t in mid_temps),
    )


def _cycle_row(report: eng.CycleReport) -> list:
    return [
        report.E_dh,
        report.E_dh_prime,
        report.E_dc,
        report.work_out,
        report.eta,
        report.eta_max,
        report.eta_sigma,
        report.eta_carnot,
        report.regime,
        report.firstlaw_residual,
        report.entropy_closure,
    ]


def _run_cycle(cfg: dict):
    kind = cfg["kind"]
    if kind not in ("otto", "carnot_like"):
        raise ConfigError(f"[cycle] kind: expected otto or carnot_like, got {kind!r}")
    columns = ["kind"] + CYCLE_COLUMNS
    if kind == "otto":
        for key in ("omega_hot_end", "settle_time", "dt"):
            if cfg[key] is not None:
                raise ConfigError(f"[cycle] {key} only applies to kind = carnot_like")
        if cfg["omega_cold"] is None:
            raise ConfigError("[cycle] missing required key: omega_cold")
        report = eng.run_otto(_cycle_spec(cfg))
        return columns, [["otto"] + _cycle_row(report)]

    if cfg["omega_hot_end"] is None:
        raise ConfigError("[cycle] kind = carnot_like needs omega_hot_end")
    if cfg["omega_cold"] is not None:
        raise ConfigError(
            "[cycle] kind = carnot_like derives the cold sweep; drop omega_cold"
        )
    if cfg["r"] != 0.0:
        raise ConfigError("[cycle] kind = carnot_like supports thermal baths only")
    spec = eng.matched_carnot_spec(
        cfg["temp_cold"],
        cfg["temp_hot"],
        cfg["omega_hot"],
        cfg["omega_hot_end"],
        cfg["stroke_time"],
        settle_time=14.0 if cfg["settle_time"] is None else cfg["settle_time"],
        kappa=cfg["kappa"],
        cutoff=cfg["cutoff"] or 40,
        dt=cfg["dt"],
    )
    rep = eng.run_carnot_like(spec)
    regime = eng.ENGINE if rep.work_out > eng.ENGINE_TOL else eng.NOT_ENGINE
    row = [
        "carnot_like",
        rep.heat_hot,
        rep.heat_hot,  # thermal contact: passive share equals the full flow
        rep.heat_cold,
        rep.work_out,
        rep.eta,
        rep.eta_carnot,
        rep.eta_carnot,
        rep.eta_carnot,
        regime,
        rep.firstlaw_residual,
        rep.entropy_closure,
    ]
    return columns, [row]


def _sweep_point(task):
    cfg, x, r = task
    omega_cold = x * cfg["omega_hot"]
    try:
        closed = eng.closed_form_otto(
            cfg["temp_cold"], cfg["temp_hot"], omega_cold, cfg["omega_hot"], r
        )
        closed_cols = [closed.eta, closed.eta_max, closed.eta_sigma]
    except eng.RegimeViolation:
        closed_cols = [math.nan, math.nan, math.nan]
    spec = eng.CycleSpec(
        temp_cold=cfg["temp_cold"],
        temp_hot=cfg["temp_hot"],
        omega_cold=omega_cold,
        omega_hot=cfg["omega_hot"],
        r=r,
        kappa=cfg["kappa"],
        stroke_time=cfg["stroke_time"],
        cutoff=cfg["cutoff"] or None,
    )
    report = eng.run_otto(spec)
    return [x, r] + _cycle_row(report) + closed_cols


def _run_otto_sweep(cfg: dict, workers: int):
    columns = ["x", "r"] + CYCLE_COLUMNS + [
        "eta_closed_form",
        "eta_max_closed_form",
        "eta_sigma_closed_form",
    ]
    tasks = [
        (cfg, float(x), float(r))
        for r in sorted(cfg["r_values"])
        for x in sorted(cfg["x_values"])
    ]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_sweep_point, tasks)
    else:
        rows = [_sweep_point(t) for t in tasks]
    return columns, rows


def _run_multibath(cfg: dict):
    mids = sorted(cfg["mid_temperatures"])
    report = eng.run_otto(_cycle_spec(cfg, mid_temps=mids))
    hot_entries = [(report.E_dh, report.E_dh_prime, cfg["temp_hot"])]
    thermal_entries = [(e_d, temp) for e_d, _pas, temp in report.mid_flows]
    thermal_entries.append((report.E_dc, cfg["temp_cold"]))
    bound_multi = eng.multibath_bound(hot_entries, thermal_entries)
    # reference: the same engine stripped of its extra contacts, capped at
    # the widest temperature pair seen by the full cycle
    reduced = report if not mids else eng.run_otto(_cycle_spec(cfg))
    temps = [cfg["temp_cold"], cfg["temp_hot"]] + mids
    bound_two = eng.eta_max(
        reduced.E_dh_prime, reduced.E_dh, min(temps), max(temps)
    )
    columns = CYCLE_COLUMNS + ["bound_multibath", "two_bath_eta_max"]
    return columns, [_cycle_row(report) + [bound_multi, bound_two]]


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="squeezedbath",
        description="Damped-oscillator thermodynamics: relaxation ledgers "
        "and engine cycles with thermal or squeezed reservoirs.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    descriptions = {
        "decay": "coherent-state damping ledger (trajectory CSV)",
        "squeezed-relax": "relaxation into a squeezed reservoir (trajectory CSV)",
        "carnot-stroke": "isothermal sweep entropy balance per duration",
        "otto-sweep": "Otto cycle grid over frequency ratio and squeezing",
        "cycle": "single Otto cycle report",
        "multibath": "Otto cycle with extra reservoirs and its bounds",
    }
    for name in SCHEMAS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", required=True, help="INI file with one "
                       f"[{name}] section")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--workers", type=int, default=1,
                       help="process count (otto-sweep only)")
        p.add_argument("--dt", type=float, default=None,
                       help="integrator step override")
        p.add_argument("--cutoff", type=int, default=None,
                       help="Fock-space cutoff override")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.scenario, args.config, args)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.scenario == "decay":
            columns, rows = _run_decay(cfg)
        elif args.scenario == "squeezed-relax":
            columns, rows = _run_squeezed_relax(cfg)
        elif args.scenario == "carnot-stroke":
            columns, rows = _run_carnot_stroke(cfg)
        elif args.scenario == "otto-sweep":
            columns, rows = _run_otto_sweep(cfg, max(1, args.workers))
        elif args.scenario == "cycle":
            columns, rows = _run_cycle(cfg)
        else:
            columns, rows = _run_multibath(cfg)
        text = _render(columns, rows)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report, do not crash
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
