"""Self-tests of the benchmark harness (not of the library).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import run
import spans
import workloads

sb = run.load_package()


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestSelfTime:
    def test_parent_minus_children(self):
        # round [0, 10] > op [1, 9] > two calls [2, 4] and [5, 8]
        tr = spans.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 8, 9, 10]))
        with tr.span("round", round=0):
            with tr.span("op.a", op=True):
                with tr.span("dynamics.evolve"):
                    pass
                with tr.span("ledger.accumulate_ledger"):
                    pass
        selfs = spans.self_times(tr.spans)
        assert [selfs[s.id] for s in tr.spans] == [2, 3, 2, 3]

    def test_overlapping_and_overhanging_children_count_once(self):
        mk = spans.Span
        parent = mk(0, "p", 0.0, 10.0, None, None, None, {})
        kids = [
            mk(1, "a", 1.0, 5.0, 0, None, None, {}),
            mk(2, "b", 3.0, 6.0, 0, None, None, {}),  # overlaps a
            mk(3, "c", 9.0, 12.0, 0, None, None, {}),  # runs past the parent
        ]
        assert spans.self_times([parent] + kids)[0] == pytest.approx(10 - 5 - 1)

    def test_spans_carry_parent_op_and_round(self):
        tr = spans.Tracer()
        lib = spans.library_api(run.PACKAGE, tr)
        with tr.span("round", round=3):
            with tr.span("op.x", op=True) as op:
                lib.thermal_state(0.1, 20)
        call = tr.spans[-1]
        assert call.name == "fock.thermal_state"
        assert (call.parent, call.op, call.round) == (op.id, op.id, 3)
        assert tr.spans[0].op is None

    def test_untraced_namespace_is_the_library_itself(self):
        lib = spans.library_api(run.PACKAGE)
        assert lib.evolve is sb.evolve
        assert lib.main is sb.cli.main
        assert not hasattr(lib, "_squeeze_matrix")


class TestFailureCounting:
    def _round(self, ops):
        wl = workloads.Workload("synthetic", {}, {}, ops)
        return workloads.run_round(wl, spans.library_api(run.PACKAGE), sb)

    def test_failed_check_and_library_error_fail_only_their_op(self):
        def passes(lib):
            workloads.check(True, "fine")

        def forced_check(lib):
            workloads.check(False, "forced to fail")

        def library_error(lib):
            raise sb.PositivityLoss("negative eigenvalue")

        def slow_drive(lib):
            warnings.warn("too fast", sb.SlowDriveViolation)

        res = self._round(
            [workloads.Op(n, f) for n, f in [
                ("a", passes), ("b", forced_check), ("c", library_error),
                ("d", slow_drive), ("e", passes),
            ]]
        )
        assert (res.attempted, res.failed) == (5, 2)
        assert [f["op"] for f in res.failures] == ["b", "c"]
        assert [f["error"] for f in res.failures] == ["CheckFailed", "PositivityLoss"]
        assert res.warnings == {"SlowDriveViolation": 1}

    def test_a_real_check_forced_to_fail_is_counted(self, tmp_path, monkeypatch):
        wl = workloads.build("solvers", 0, sb, spans.library_api(run.PACKAGE), tmp_path)
        keep = ("cycles/otto.r0.1.x0.5", "cycles/otto.r0.1.x0.7")
        wl.ops = [op for op in wl.ops if op.name in keep]
        monkeypatch.setattr(workloads, "OTTO_REGIME_EDGE", (0.5, 0.1))
        res = workloads.run_round(wl, spans.library_api(run.PACKAGE), sb)
        assert (res.attempted, res.failed) == (2, 1)
        assert res.failures[0]["op"] == "cycles/otto.r0.1.x0.5"
        assert set(res.part_seconds) == {"cycles"}


class TestSeeds:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, name, tmp_path):
        lib = spans.library_api(run.PACKAGE)
        a = workloads.build(name, 7, sb, lib, tmp_path / "a")
        b = workloads.build(name, 7, sb, lib, tmp_path / "b")
        assert a.params == b.params
        assert a.sizes == b.sizes
        assert [op.name for op in a.ops] == [op.name for op in b.ops]
        if a.apply_probe is not None:
            assert np.array_equal(a.apply_probe[1], b.apply_probe[1])
        for f in sorted((tmp_path / "a").glob("*.ini")):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    @pytest.mark.parametrize("part", [p for ps in workloads.WORKLOADS.values() for p in ps])
    def test_other_seed_other_parameters(self, part):
        assert workloads.draw_params(part, 1) != workloads.draw_params(part, 2)

    @pytest.fixture(autouse=True)
    def _dirs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relax", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class TestLayerMetrics:
    def _trace(self):
        # set-up builds one state; then two traced rounds with the same calls
        tr = spans.Tracer(clock=FakeClock(range(1000)))
        with tr.span("setup"):
            with tr.span("fock.thermal_state"):
                pass
        for rnd in (1, 3):
            with tr.span("round", round=rnd):
                with tr.span("op.first", op=True, cold=True):
                    with tr.span("engine.run_otto"):
                        pass
                with tr.span("op.second", op=True, cold=False):
                    with tr.span("engine.run_otto"):
                        pass
                    with tr.span("dynamics.steady_state", cutoff=32):
                        pass
                    with tr.span("dynamics.steady_state", cutoff=40):
                        pass
                    with tr.span("dynamics.evolve", snapshots=10, t_sim=4.0):
                        pass
        return tr

    def test_per_round_splits_and_setup(self):
        tr = self._trace()
        wl = workloads.Workload("w", {}, {"cycles": {"cutoff_max": 99}}, [])
        m = run.layer_metrics(tr, wl, 32, [1, 3], 7.0, 0.5)
        value = {k: v["value"] for k, v in m.items()}
        # every leaf span lasts one clock tick
        assert value["engine.run_otto.cold.s"] == 1
        assert value["engine.run_otto.warm.s"] == 1
        assert value["dynamics.steady_state.small.s"] == 1
        assert value["dynamics.steady_state.large.s"] == 1
        assert value["dynamics.evolve.calls"] == 1
        assert value["dynamics.evolve.snapshots"] == 10
        assert value["dynamics.evolve.kappa_t_per_s"] == 4.0
        assert value["fock.calls"] == 1 and value["fock.s"] == 1
        assert value["engine.run_otto.cutoff_max"] == 99
        assert value["dynamics.apply.us"] == 7.0
        assert value["trace.overhead_s"] == 0.5
        assert value["cli.main.s"] == 0


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    wl = workloads.Workload("w", {}, {}, [])
    layers = run.layer_metrics(spans.Tracer(), wl, 32, [0], 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()
    }
