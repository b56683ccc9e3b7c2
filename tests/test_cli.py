import argparse
import math

import pytest

from squeezedbath import ConfigError, SlowDriveViolation
from squeezedbath import cli
from squeezedbath import engine as eng
from squeezedbath.cli import _STROKE_FIELDS, CYCLE_COLUMNS, TRAJECTORY_COLUMNS, main
from test_gaussian_oracle import gaussian_stroke

pytestmark = pytest.mark.filterwarnings("ignore::squeezedbath.SlowDriveViolation")


def write_config(tmp_path, section, **keys):
    lines = [f"[{section}]"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    path = tmp_path / "scenario.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


def run(scenario, config, out, *extra):
    return main([scenario, "--config", str(config), "--out", str(out), *extra])


def read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# units:")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def column(header, rows, name, parse=float):
    i = header.index(name)
    return [parse(row[i]) for row in rows]


def keep_reports(monkeypatch, owner, name):
    """Patch owner.name so every report it returns is also recorded."""
    reports = []
    original = getattr(owner, name)

    def keep(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(owner, name, keep)
    return reports


def assert_columns_hold_fields(header, row, report, fields):
    """Each listed column holds the report field fields[column] (to print precision)."""
    for name, field in fields.items():
        value, expected = row[header.index(name)], getattr(report, field)
        if isinstance(expected, str):
            assert value == expected, name
        else:
            assert float(value) == pytest.approx(expected, rel=1e-11, abs=0), name


class TestConfigValidation:
    def test_unknown_key_fails_without_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "decay", alpha=1.0, t_final=1.0, bogus=3)
        out = tmp_path / "out.csv"
        assert run("decay", cfg, out) == 2
        assert not out.exists()
        assert "unknown keys: bogus" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "decay", alpha=1.0)
        assert run("decay", cfg, tmp_path / "out.csv") == 2
        assert "missing required key: t_final" in capsys.readouterr().err

    def test_wrong_section_name(self, tmp_path):
        cfg = write_config(tmp_path, "decline", alpha=1.0, t_final=1.0)
        assert run("decay", cfg, tmp_path / "out.csv") == 2

    def test_extra_section_rejected(self, tmp_path):
        cfg = tmp_path / "two.ini"
        cfg.write_text("[decay]\nalpha = 1\nt_final = 1\n[extra]\nx = 2\n")
        assert run("decay", cfg, tmp_path / "out.csv") == 2

    def test_default_section_rejected(self, tmp_path):
        cfg = tmp_path / "def.ini"
        cfg.write_text("[DEFAULT]\nkappa = 1\n[decay]\nalpha = 1\nt_final = 1\n")
        assert run("decay", cfg, tmp_path / "out.csv") == 2

    def test_malformed_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "decay", alpha="fast", t_final=1.0)
        assert run("decay", cfg, tmp_path / "out.csv") == 2
        assert "expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("keys", [
        {"alpha": 1.0, "t_final": "nan"},
        {"alpha": "-inf", "t_final": 1.0},
        {"alpha": 1.0, "t_final": 1.0, "omega": "inf"},
    ])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, keys):
        cfg = write_config(tmp_path, "decay", **keys)
        out = tmp_path / "out.csv"
        assert run("decay", cfg, out) == 2
        assert not out.exists()
        assert "expected a finite number" in capsys.readouterr().err

    def test_non_finite_list_entry_fails_before_any_stroke(self, tmp_path, capsys,
                                                          monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a stroke ran before the config was checked")

        monkeypatch.setattr(cli, "evolve", forbidden)
        cfg = write_config(tmp_path, "carnot-stroke", durations="10, inf")
        out = tmp_path / "out.csv"
        assert run("carnot-stroke", cfg, out) == 2
        assert not out.exists()
        assert "[carnot-stroke] durations: expected a finite number" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("dt", ["nan", "inf", "-inf"])
    def test_non_finite_dt_override_is_a_config_error(self, tmp_path, capsys, dt):
        cfg = write_config(tmp_path, "decay", alpha=1.0, t_final=1.0)
        out = tmp_path / "out.csv"
        assert run("decay", cfg, out, f"--dt={dt}") == 2
        assert not out.exists()
        assert "--dt: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, flags", [
        ({"dt": -1}, ()),
        ({"dt": 0}, ()),
        ({}, ("--dt", "-1")),
        ({"cutoff": 1}, ()),
        ({"cutoff": 0}, ()),  # decay has no automatic size
        ({}, ("--cutoff", "1")),
    ])
    def test_out_of_range_dt_or_cutoff_is_a_config_error(self, tmp_path, capsys,
                                                          keys, flags):
        cfg = write_config(tmp_path, "decay", alpha=1.0, t_final=1.0, **keys)
        out = tmp_path / "out.csv"
        assert run("decay", cfg, out, *flags) == 2
        assert not out.exists()
        key = "cutoff" if "cutoff" in keys or "--cutoff" in flags else "dt"
        assert f"[decay] {key} or --{key}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, keys", [
        ("otto-sweep", dict(temp_hot=3.0, temp_cold=1.0, omega_hot=0.3,
                            x_values="0.5", r_values="0.5")),
        ("cycle", dict(temp_cold=1.0, temp_hot=3.0, omega_hot=0.3)),
        ("multibath", dict(temp_cold=1.0, temp_hot=3.0, mid_temperatures="",
                           omega_cold=0.15, omega_hot=0.3)),
    ])
    def test_zero_cutoff_sizes_automatically_where_it_is_the_default(
        self, tmp_path, scenario, keys
    ):
        for given, flag in ((0, None), (5, 0)):
            cfg = write_config(tmp_path, scenario, cutoff=given, **keys)
            args = argparse.Namespace(dt=None, cutoff=flag)
            assert cli._load_config(scenario, str(cfg), args)["cutoff"] == 0
        for given, flag in ((1, None), (5, 1), (-3, None)):
            cfg = write_config(tmp_path, scenario, cutoff=given, **keys)
            args = argparse.Namespace(dt=None, cutoff=flag)
            with pytest.raises(ConfigError, match="cutoff or --cutoff"):
                cli._load_config(scenario, str(cfg), args)

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("decay", tmp_path / "absent.ini", tmp_path / "out.csv") == 2
        assert "not found" in capsys.readouterr().err

    def test_list_keys_are_comma_separated(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "carnot-stroke",
            durations="2 4",  # spaces alone do not split
            temperature=5.0,
        )
        assert run("carnot-stroke", cfg, tmp_path / "out.csv") == 2

    def test_dt_override_limited_to_integrator_scenarios(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "otto-sweep",
            temp_hot=3.0,
            temp_cold=1.0,
            omega_hot=0.3,
            x_values="0.5",
            r_values="0.5",
        )
        out = tmp_path / "out.csv"
        assert run("otto-sweep", cfg, out, "--dt", "0.01") == 2
        assert not out.exists()
        # the carnot_like isotherms run as exact channels: no step to set
        cycle = dict(
            kind="carnot_like",
            temp_cold=2.5,
            temp_hot=5.0,
            omega_hot=25.0,
            omega_hot_end=20.0,
            stroke_time=40.0,
        )
        cfg = write_config(tmp_path, "cycle", **cycle)
        assert run("cycle", cfg, out, "--dt", "0.01") == 2
        assert not out.exists()
        cfg = write_config(tmp_path, "cycle", dt=0.01, **cycle)
        assert run("cycle", cfg, out) == 2
        assert not out.exists()

    def test_runtime_failure_leaves_no_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "decay", alpha=3.0, t_final=1.0, cutoff=10
        )
        out = tmp_path / "out.csv"
        assert run("decay", cfg, out) == 1
        assert not out.exists()
        assert "CutoffLeak" in capsys.readouterr().err

    def test_cycle_kind_must_be_known(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cycle",
            kind="diesel",
            temp_cold=1.0,
            temp_hot=3.0,
            omega_cold=0.15,
            omega_hot=0.3,
        )
        assert run("cycle", cfg, tmp_path / "out.csv") == 2
        assert "expected otto or carnot_like" in capsys.readouterr().err

    def test_cycle_kind_conditional_keys(self, tmp_path):
        base = dict(temp_cold=1.0, temp_hot=3.0, omega_hot=0.3)
        out = tmp_path / "out.csv"
        # otto must not carry the sweep-only keys
        cfg = write_config(
            tmp_path, "cycle", omega_cold=0.15, omega_hot_end=0.2, **base
        )
        assert run("cycle", cfg, out) == 2
        # otto needs omega_cold
        cfg = write_config(tmp_path, "cycle", **base)
        assert run("cycle", cfg, out) == 2
        # carnot_like needs omega_hot_end and rejects omega_cold
        cfg = write_config(tmp_path, "cycle", kind="carnot_like", **base)
        assert run("cycle", cfg, out) == 2
        cfg = write_config(
            tmp_path,
            "cycle",
            kind="carnot_like",
            omega_cold=0.15,
            omega_hot_end=0.2,
            **base,
        )
        assert run("cycle", cfg, out) == 2
        # carnot_like is thermal only
        cfg = write_config(
            tmp_path, "cycle", kind="carnot_like", omega_hot_end=0.2, r=0.3, **base
        )
        assert run("cycle", cfg, out) == 2


class TestDecayScenario:
    def test_trajectory_table_shape_and_content(self, tmp_path):
        cfg = write_config(
            tmp_path, "decay", alpha=1.0, t_final=1.0, omega=10.0, cutoff=25
        )
        out = tmp_path / "decay.csv"
        assert run("decay", cfg, out) == 0
        header, rows = read_table(out)
        assert header == TRAJECTORY_COLUMNS
        ts = column(header, rows, "t")
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(1.0)
        # amplitude damping drains pure ergotropy
        for v in column(header, rows, "dEpas_d_cum"):
            assert abs(v) < 1e-8
        energy = column(header, rows, "energy")
        assert energy[-1] == pytest.approx(10.0 * math.exp(-2.0), rel=1e-6)
        for v in column(header, rows, "trace_err"):
            assert v < 1e-9

    def test_pure_state_entropy_reads_zero(self, tmp_path):
        # a coherent state stays pure under a T = 0 bath: its entropy cells
        # read 0, never -0 or a roundoff residue below zero
        cfg = write_config(tmp_path, "decay", alpha=1.0, t_final=0.5, cutoff=25)
        out = tmp_path / "decay.csv"
        assert run("decay", cfg, out) == 0
        header, rows = read_table(out)
        cells = column(header, rows, "entropy", parse=str)
        assert cells[0] == "0"
        assert not [cell for cell in cells if cell.startswith("-")]

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "decay", alpha=1.0, t_final=0.5, cutoff=25)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("decay", cfg, a) == 0
        assert run("decay", cfg, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_is_an_otto_sweep_option_only(self, tmp_path):
        cfg = write_config(tmp_path, "decay", alpha=1.0, t_final=0.5, cutoff=25)
        out = tmp_path / "decay.csv"
        with pytest.raises(SystemExit) as exc:
            run("decay", cfg, out, "--workers", "2")
        assert exc.value.code == 2
        assert not out.exists()

    def test_a_vanishing_dt_names_its_step_count_briefly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "decay", alpha=1.0, t_final=4.0, cutoff=25)
        assert run("decay", cfg, tmp_path / "out.csv", "--dt", "1e-300") == 1
        err = capsys.readouterr().err
        assert "step count 4e+300 is unreasonable; enlarge dt" in err

    def test_dt_override_is_honoured(self, tmp_path):
        cfg = write_config(tmp_path, "decay", alpha=1.0, t_final=0.5, cutoff=25)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("decay", cfg, a) == 0
        assert run("decay", cfg, b, "--dt", "0.002") == 0
        assert a.read_bytes() != b.read_bytes()


class TestSqueezedRelaxScenario:
    def test_cutoff_override_rescues_a_leaky_config(self, tmp_path):
        cfg = write_config(
            tmp_path, "squeezed-relax", t_final=1.0, r=0.4, cutoff=16
        )
        out = tmp_path / "out.csv"
        assert run("squeezed-relax", cfg, out) == 1
        assert not out.exists()
        assert run("squeezed-relax", cfg, out, "--cutoff", "40") == 0
        header, rows = read_table(out)
        assert header == TRAJECTORY_COLUMNS
        entropy = column(header, rows, "entropy")
        assert entropy[0] == pytest.approx(0.0, abs=1e-12)
        assert max(entropy) > 0.01  # vacuum heats up through the transient


class TestCarnotStrokeScenario:
    def test_per_duration_entropy_balance(self, tmp_path, monkeypatch):
        reports = keep_reports(monkeypatch, cli, "entropy_bound_report")
        cfg = write_config(
            tmp_path, "carnot-stroke", durations="6, 3", temperature=5.0
        )
        out = tmp_path / "stroke.csv"
        assert run("carnot-stroke", cfg, out) == 0
        header, rows = read_table(out)
        assert header == [
            "duration",
            "delta_S",
            "E_d",
            "E_d_prime",
            "sigma",
            "slack",
            "slack_prime",
        ]
        assert column(header, rows, "duration") == [3.0, 6.0]
        for v in column(header, rows, "sigma"):
            assert v > 0
        slack_prime = column(header, rows, "slack_prime")
        assert all(v > 0 for v in slack_prime)
        assert slack_prime[1] < slack_prime[0]  # slower drive saturates tighter
        fields = {
            "delta_S": "delta_S",
            "E_d": "dissipated",
            "E_d_prime": "alt_energy",
            "sigma": "sigma_spohn",
            "slack": "slack_total_heat",
            "slack_prime": "slack_alt_path",
        }
        for row, rep in zip(rows, reports, strict=True):
            assert_columns_hold_fields(header, row, rep, fields)

    @pytest.mark.parametrize("r", [0.2, 0.0])
    def test_columns_match_the_gaussian_oracle(self, tmp_path, r):
        cfg = write_config(tmp_path, "carnot-stroke", durations="2, 4", r=r)
        out = tmp_path / "stroke.csv"
        assert run("carnot-stroke", cfg, out) == 0
        header, rows = read_table(out)
        for row in rows:
            tau = float(row[header.index("duration")])
            oracle, _ = gaussian_stroke(25.0, 20.0, tau, 5.0, r)
            for name, field in _STROKE_FIELDS:
                value = float(row[header.index(name)])
                assert value == pytest.approx(oracle[field], rel=0, abs=1e-10), name


class TestCycleScenario:
    def test_otto_report_row(self, tmp_path, monkeypatch):
        reports = keep_reports(monkeypatch, eng, "run_otto")
        cfg = write_config(
            tmp_path,
            "cycle",
            temp_cold=1.0,
            temp_hot=3.0,
            omega_cold=0.15,
            omega_hot=0.3,
            r=0.5,
        )
        out = tmp_path / "cycle.csv"
        assert run("cycle", cfg, out) == 0
        header, rows = read_table(out)
        assert header == ["kind"] + CYCLE_COLUMNS
        assert len(rows) == 1
        assert column(header, rows, "kind", parse=str) == ["otto"]
        assert column(header, rows, "regime", parse=str) == ["engine"]
        (eta,) = column(header, rows, "eta")
        (cap,) = column(header, rows, "eta_max")
        assert eta == pytest.approx(0.8100764734799257, rel=1e-9)
        assert eta <= cap
        (rep,) = reports
        fields = {name: name for name in CYCLE_COLUMNS}
        assert_columns_hold_fields(header, rows[0], rep, fields)

    def test_carnot_like_approaches_carnot_when_slow(self, tmp_path, monkeypatch):
        reports = keep_reports(monkeypatch, eng, "run_carnot_like")
        cfg = write_config(
            tmp_path,
            "cycle",
            kind="carnot_like",
            temp_cold=2.5,
            temp_hot=5.0,
            omega_hot=25.0,
            omega_hot_end=20.0,
            stroke_time=40.0,
        )
        out = tmp_path / "carnot.csv"
        assert run("cycle", cfg, out) == 0
        header, rows = read_table(out)
        assert header == ["kind"] + CYCLE_COLUMNS
        assert column(header, rows, "kind", parse=str) == ["carnot_like"]
        assert column(header, rows, "regime", parse=str) == ["engine"]
        (eta,) = column(header, rows, "eta")
        (eta_c,) = column(header, rows, "eta_carnot")
        assert eta_c == pytest.approx(0.5)
        assert eta < eta_c
        assert eta_c - eta < 1e-2
        (resid,) = column(header, rows, "firstlaw_residual")
        assert resid < 1e-9
        # a thermal contact: the passive share is the full hot flow and both
        # caps are Carnot's
        (rep,) = reports
        fields = {
            "E_dh": "heat_hot",
            "E_dh_prime": "heat_hot",
            "E_dc": "heat_cold",
            "work_out": "work_out",
            "eta": "eta",
            "eta_max": "eta_carnot",
            "eta_sigma": "eta_carnot",
            "eta_carnot": "eta_carnot",
            "regime": "regime",
            "firstlaw_residual": "firstlaw_residual",
            "entropy_closure": "entropy_closure",
        }
        assert set(fields) == set(CYCLE_COLUMNS)
        assert_columns_hold_fields(header, rows[0], rep, fields)


class TestOttoSweepScenario:
    def test_simulation_matches_closed_form_columns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "otto-sweep",
            temp_hot=3.0,
            temp_cold=1.0,
            omega_hot=0.3,
            x_values="0.5",
            r_values="0.5",
        )
        out = tmp_path / "sweep.csv"
        assert run("otto-sweep", cfg, out) == 0
        header, rows = read_table(out)
        assert header[:2] == ["x", "r"]
        assert header[-3:] == [
            "eta_closed_form",
            "eta_max_closed_form",
            "eta_sigma_closed_form",
        ]
        (eta,) = column(header, rows, "eta")
        (eta_cf,) = column(header, rows, "eta_closed_form")
        assert eta == pytest.approx(eta_cf, rel=1e-6)
        (cap,) = column(header, rows, "eta_max")
        (cap_cf,) = column(header, rows, "eta_max_closed_form")
        assert cap == pytest.approx(cap_cf, rel=1e-6)

    def test_worker_count_does_not_change_the_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "otto-sweep",
            temp_hot=3.0,
            temp_cold=1.0,
            omega_hot=0.3,
            x_values="0.5, 0.7",
            r_values="0.5",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("otto-sweep", cfg, a) == 0
        assert run("otto-sweep", cfg, b, "--workers", "2") == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_refused(self, tmp_path, capsys, monkeypatch,
                                               workers):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli.multiprocessing, "Pool", refuse)
        cfg = write_config(tmp_path, "otto-sweep", temp_hot=3.0, temp_cold=1.0,
                           omega_hot=0.3, x_values="0.5", r_values="0.5")
        out = tmp_path / "sweep.csv"
        assert run("otto-sweep", cfg, out, "--workers", workers) == 2
        err = capsys.readouterr().err
        assert f"--workers: expected at least 1, got {workers}" in err
        assert not out.exists()


class TestMultibathScenario:
    def test_two_reservoir_bound_columns_coincide(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "multibath",
            temp_cold=1.0,
            temp_hot=3.0,
            mid_temperatures="",
            omega_cold=0.15,
            omega_hot=0.3,
            r=0.5,
        )
        out = tmp_path / "multi.csv"
        assert run("multibath", cfg, out) == 0
        header, rows = read_table(out)
        assert header == CYCLE_COLUMNS + ["bound_multibath", "two_bath_eta_max"]
        i, j = header.index("bound_multibath"), header.index("two_bath_eta_max")
        assert rows[0][i] == rows[0][j]  # byte-equal without extra contacts

    def test_third_reservoir_tightens_strictly(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "multibath",
            temp_cold=1.0,
            temp_hot=3.0,
            mid_temperatures="1.5",
            omega_cold=0.15,
            omega_hot=0.3,
            r=0.5,
        )
        out = tmp_path / "multi.csv"
        assert run("multibath", cfg, out) == 0
        header, rows = read_table(out)
        (eta,) = column(header, rows, "eta")
        (bound,) = column(header, rows, "bound_multibath")
        (two_bath,) = column(header, rows, "two_bath_eta_max")
        assert eta < bound < two_bath
