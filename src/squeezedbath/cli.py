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
from typing import Callable, NamedTuple

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

# (CSV header, FirstLawLedger field) per trajectory column
_TRAJECTORY_FIELDS = [
    ("t", "times"),
    ("energy", "energy"),
    ("entropy", "entropy"),
    ("ergotropy", "ergotropy"),
    ("passive_energy", "passive_energy"),
    ("E_d_cum", "dissipated_cum"),
    ("W_cum", "work_cum"),
    ("dEpas_d_cum", "passive_dissipated_cum"),
    ("dErgo_d_cum", "ergotropy_dissipated_cum"),
    ("sigma_cum", "sigma_cum"),
    ("trace_err", "trace_errors"),
    ("min_eig", "min_eigs"),
]
TRAJECTORY_COLUMNS = [column for column, _ in _TRAJECTORY_FIELDS]

# every cycle column is the CycleReport field of the same name
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

# (CSV header, EntropyReport field) per carnot-stroke column after duration
_STROKE_FIELDS = [
    ("delta_S", "delta_S"),
    ("E_d", "dissipated"),
    ("E_d_prime", "alt_energy"),
    ("sigma", "sigma_spohn"),
    ("slack", "slack_total_heat"),
    ("slack_prime", "slack_alt_path"),
]

# (CSV header, OttoClosedForm field) per otto-sweep reference column
_CLOSED_FORM_FIELDS = [
    ("eta_closed_form", "eta"),
    ("eta_max_closed_form", "eta_max"),
    ("eta_sigma_closed_form", "eta_sigma"),
]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def _render(columns, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# {UNITS_NOTE}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[column]) for column in columns])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# config handling


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


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
    pieces = (piece.strip() for piece in raw.split(","))
    return [_as_float(section, key, piece) for piece in pieces if piece]


def _as_word(section: str, key: str, raw: str) -> str:
    return raw.strip()


_CONVERTERS = {
    "float": _as_float,
    "int": _as_int,
    "float_list": _as_float_list,
    "floats_or_empty": _as_floats_or_empty,
    "word": _as_word,
}


REQUIRED = object()  # schema default of a key that must appear


def _load_config(scenario: str, path: str, args) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(Path(path).read_text())
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    if parser.defaults():
        raise ConfigError("a DEFAULT section is not allowed")
    if scenario not in parser:
        raise ConfigError(f"missing [{scenario}] section in {path}")
    extra = [s for s in parser.sections() if s != scenario]
    if extra:
        raise ConfigError(f"unexpected sections: {', '.join(extra)}")

    schema = SCENARIOS[scenario].schema
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
        if "dt" not in schema:
            raise ConfigError(f"--dt is not used by the {scenario} scenario")
        if not math.isfinite(args.dt):
            raise ConfigError(f"--dt: expected a finite number, got {args.dt}")
        out["dt"] = args.dt
    if args.cutoff is not None:
        out["cutoff"] = args.cutoff
    if "workers" in args:  # registered on the subcommands that fan out only
        if args.workers < 1:
            raise ConfigError(f"--workers: expected at least 1, got {args.workers}")
        out["workers"] = args.workers
    if out.get("dt") is not None and not out["dt"] > 0:
        raise ConfigError(f"[{scenario}] dt or --dt: expected a positive step")
    # cutoff 0 sizes the space automatically where that is the default
    auto = out["cutoff"] == 0 == schema["cutoff"][1]
    if out["cutoff"] < 2 and not auto:
        raise ConfigError(f"[{scenario}] cutoff or --cutoff: expected at least 2")
    return out


# ---------------------------------------------------------------------------
# scenarios; each runner returns (columns, rows), every row a dict by column


def _trajectory_table(gen, rho0, cfg: dict):
    ledger = accumulate_ledger(evolve(gen, rho0, cfg["t_final"], dt=cfg["dt"]), gen)
    series = {column: getattr(ledger, field) for column, field in _TRAJECTORY_FIELDS}
    rows = [{c: v[i] for c, v in series.items()} for i in range(len(ledger.times))]
    return TRAJECTORY_COLUMNS, rows


def _run_decay(cfg: dict):
    dim = HilbertDim(cfg["cutoff"])
    gen = thermal_generator(cfg["omega"], cfg["kappa"], nbar=cfg["nbar"], dim=dim)
    return _trajectory_table(gen, coherent_state(cfg["alpha"], dim), cfg)


def _run_squeezed_relax(cfg: dict):
    dim = HilbertDim(cfg["cutoff"])
    gen = squeezed_generator(cfg["omega"], cfg["kappa"], cfg["nbar"], cfg["r"], dim=dim)
    return _trajectory_table(gen, thermal_state(cfg["initial_nbar"], dim), cfg)


def _run_carnot_stroke(cfg: dict):
    dim = HilbertDim(cfg["cutoff"])
    temp = cfg["temperature"]
    rows = []
    for tau in sorted(cfg["durations"]):
        sched = linear_ramp_schedule(cfg["omega_start"], cfg["omega_end"], tau, dim)
        gen = squeezed_generator(
            sched, cfg["kappa"], None, cfg["r"], dim=dim, temperature=temp
        )
        nb0 = bose_occupation(cfg["omega_start"], temp)
        traj = evolve(gen, thermal_state(nb0, dim), tau, dt=cfg["dt"])
        rep = entropy_bound_report(traj, gen)
        row = {column: getattr(rep, field) for column, field in _STROKE_FIELDS}
        rows.append({"duration": tau, **row})
    return ["duration"] + [column for column, _ in _STROKE_FIELDS], rows


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


def _cycle_row(report: eng.CycleReport) -> dict:
    return {column: getattr(report, column) for column in CYCLE_COLUMNS}


def _run_cycle(cfg: dict):
    kind = cfg["kind"]
    if kind not in ("otto", "carnot_like"):
        raise ConfigError(f"[cycle] kind: expected otto or carnot_like, got {kind!r}")
    columns = ["kind"] + CYCLE_COLUMNS
    if kind == "otto":
        for key in ("omega_hot_end", "settle_time"):
            if cfg[key] is not None:
                raise ConfigError(f"[cycle] {key} only applies to kind = carnot_like")
        if cfg["omega_cold"] is None:
            raise ConfigError("[cycle] missing required key: omega_cold")
        report = eng.run_otto(_cycle_spec(cfg))
        return columns, [{"kind": "otto", **_cycle_row(report)}]

    if cfg["omega_hot_end"] is None:
        raise ConfigError("[cycle] kind = carnot_like needs omega_hot_end")
    if cfg["omega_cold"] is not None:
        raise ConfigError(
            "[cycle] kind = carnot_like derives the cold sweep; drop omega_cold"
        )
    if cfg["r"] != 0.0:
        raise ConfigError("[cycle] kind = carnot_like supports thermal baths only")
    # unset keys fall back to CarnotSpec's own defaults
    given = {"settle_time": cfg["settle_time"], "cutoff": cfg["cutoff"] or None}
    spec = eng.matched_carnot_spec(
        cfg["temp_cold"],
        cfg["temp_hot"],
        cfg["omega_hot"],
        cfg["omega_hot_end"],
        cfg["stroke_time"],
        kappa=cfg["kappa"],
        **{key: value for key, value in given.items() if value is not None},
    )
    rep = eng.run_carnot_like(spec)
    row = {
        "kind": "carnot_like",
        "E_dh": rep.heat_hot,
        "E_dh_prime": rep.heat_hot,  # thermal contact: passive share is the full flow
        "E_dc": rep.heat_cold,
        "work_out": rep.work_out,
        "eta": rep.eta,
        "eta_max": rep.eta_carnot,
        "eta_sigma": rep.eta_carnot,
        "eta_carnot": rep.eta_carnot,
        "regime": rep.regime,
        "firstlaw_residual": rep.firstlaw_residual,
        "entropy_closure": rep.entropy_closure,
    }
    return columns, [row]


def _sweep_point(cfg: dict, x: float, r: float) -> dict:
    omega_cold = x * cfg["omega_hot"]
    try:
        closed = eng.closed_form_otto(
            cfg["temp_cold"], cfg["temp_hot"], omega_cold, cfg["omega_hot"], r
        )
    except eng.RegimeViolation:
        closed = None
    report = eng.run_otto(_cycle_spec({**cfg, "omega_cold": omega_cold, "r": r}))
    row = {"x": x, "r": r, **_cycle_row(report)}
    for column, field in _CLOSED_FORM_FIELDS:
        row[column] = math.nan if closed is None else getattr(closed, field)
    return row


def _run_otto_sweep(cfg: dict):
    columns = ["x", "r"] + CYCLE_COLUMNS + [c for c, _ in _CLOSED_FORM_FIELDS]
    tasks = [
        (cfg, float(x), float(r))
        for r in sorted(cfg["r_values"])
        for x in sorted(cfg["x_values"])
    ]
    if cfg["workers"] > 1:
        with multiprocessing.Pool(cfg["workers"]) as pool:
            return columns, pool.starmap(_sweep_point, tasks)
    return columns, [_sweep_point(*task) for task in tasks]


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
    bound_two = eng.eta_max(reduced.E_dh_prime, reduced.E_dh, min(temps), max(temps))
    bounds = {"bound_multibath": bound_multi, "two_bath_eta_max": bound_two}
    return CYCLE_COLUMNS + list(bounds), [{**_cycle_row(report), **bounds}]


class Scenario(NamedTuple):
    """One subcommand: its --help line, config schema and runner."""

    help: str
    schema: dict
    run: Callable[[dict], tuple]


SCENARIOS = {
    "decay": Scenario(
        "coherent-state damping ledger (trajectory CSV)",
        {
            "alpha": ("float", REQUIRED),
            "t_final": ("float", REQUIRED),
            "omega": ("float", 1.0),
            "kappa": ("float", 1.0),
            "nbar": ("float", 0.0),
            "cutoff": ("int", 40),
            "dt": ("float", None),
        },
        _run_decay,
    ),
    "squeezed-relax": Scenario(
        "relaxation into a squeezed reservoir (trajectory CSV)",
        {
            "t_final": ("float", REQUIRED),
            "nbar": ("float", 0.0),
            "r": ("float", 0.4),
            "initial_nbar": ("float", 0.0),
            "omega": ("float", 10.0),
            "kappa": ("float", 1.0),
            "cutoff": ("int", 40),
            "dt": ("float", None),
        },
        _run_squeezed_relax,
    ),
    "carnot-stroke": Scenario(
        "isothermal sweep entropy balance per duration",
        {
            "durations": ("float_list", REQUIRED),
            "temperature": ("float", 5.0),
            "omega_start": ("float", 25.0),
            "omega_end": ("float", 20.0),
            "r": ("float", 0.2),
            "kappa": ("float", 1.0),
            "cutoff": ("int", 40),
            "dt": ("float", None),
        },
        _run_carnot_stroke,
    ),
    "otto-sweep": Scenario(
        "Otto cycle grid over frequency ratio and squeezing",
        {
            "temp_hot": ("float", REQUIRED),
            "temp_cold": ("float", REQUIRED),
            "omega_hot": ("float", REQUIRED),
            "x_values": ("float_list", REQUIRED),
            "r_values": ("float_list", REQUIRED),
            "kappa": ("float", 1.0),
            "stroke_time": ("float", 30.0),
            "cutoff": ("int", 0),  # 0 = size automatically
        },
        _run_otto_sweep,
    ),
    "cycle": Scenario(
        "single Otto cycle report",
        {
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
        },
        _run_cycle,
    ),
    "multibath": Scenario(
        "Otto cycle with extra reservoirs and its bounds",
        {
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
        _run_multibath,
    ),
}


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="squeezedbath",
        description="Damped-oscillator thermodynamics: relaxation ledgers "
        "and engine cycles with thermal or squeezed reservoirs.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, scenario in SCENARIOS.items():
        p = sub.add_parser(name, help=scenario.help)
        p.add_argument("--config", required=True, help="INI file with one "
                       f"[{name}] section")
        p.add_argument("--out", required=True, help="output CSV path")
        if name == "otto-sweep":
            p.add_argument("--workers", type=int, default=1,
                           help="process count")
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
        text = _render(*SCENARIOS[args.scenario].run(cfg))
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
