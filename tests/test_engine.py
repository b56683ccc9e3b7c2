import math
import warnings

import numpy as np
import pytest

from squeezedbath import (
    BathStage,
    CarnotSpec,
    CycleSpec,
    NotSteady,
    RegimeViolation,
    SlowDriveViolation,
    bose_occupation,
    closed_form_otto,
    eta_actual,
    eta_bound_combined,
    eta_carnot,
    eta_max,
    eta_sigma,
    matched_carnot_spec,
    multibath_bound,
    run_carnot_like,
    run_otto,
    squeezed_excess,
)
from squeezedbath.engine import _check_steady

# reference working point: T_c=1, T_h=3, omega_h = 0.1 T_h, omega ratio 1/2
POINT = dict(temp_cold=1.0, temp_hot=3.0, omega_cold=0.15, omega_hot=0.3)


class TestEfficiencyBounds:
    def test_carnot_value_and_validation(self):
        assert eta_carnot(1.0, 3.0) == pytest.approx(2.0 / 3.0)
        assert eta_carnot(2.0, 2.0) == 0.0
        with pytest.raises(ValueError):
            eta_carnot(3.0, 1.0)
        with pytest.raises(ValueError):
            eta_carnot(-1.0, 1.0)

    def test_passive_cap_interpolates_between_carnot_and_one(self):
        assert eta_max(2.0, 2.0, 1.0, 3.0) == pytest.approx(eta_carnot(1.0, 3.0))
        assert eta_max(1.0, 2.0, 1.0, 3.0) == pytest.approx(5.0 / 6.0)
        assert eta_max(0.0, 2.0, 1.0, 3.0) == pytest.approx(1.0)

    def test_passive_cap_rejects_bad_flows(self):
        with pytest.raises(RegimeViolation):
            eta_max(1.0, 0.0, 1.0, 3.0)
        with pytest.raises(RegimeViolation):
            eta_max(-0.1, 2.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            eta_max(1.0, 2.0, 3.0, 1.0)

    def test_frame_cap_exceeds_one_for_negative_frame_flow(self):
        assert eta_sigma(-0.5, 1.0, 1.0, 3.0) == pytest.approx(1.0 + 0.5 / 3.0)
        assert eta_sigma(1.0, 2.0, 1.0, 3.0) == eta_max(1.0, 2.0, 1.0, 3.0)
        with pytest.raises(RegimeViolation):
            eta_sigma(0.5, -1.0, 1.0, 3.0)

    def test_combined_cap_picks_the_tightest_applicable(self):
        # plain thermal contact: every flow equal, Carnot rules
        assert eta_bound_combined(2.0, 2.0, 2.0, 1.0, 3.0) == pytest.approx(
            eta_carnot(1.0, 3.0)
        )
        # squeezed engine: the passive cap undercuts the frame cap
        assert eta_bound_combined(1.0, 0.5, 2.0, 1.0, 3.0) == pytest.approx(
            eta_max(1.0, 2.0, 1.0, 3.0)
        )
        # negative passive flow disables that cap; frame cap above 1 leaves
        # only the trivial ceiling
        assert eta_bound_combined(-0.1, -0.5, 1.0, 1.0, 3.0) == 1.0

    def test_measured_efficiency_branches(self):
        eta, regime = eta_actual(1.0, -1.0)
        assert math.isnan(eta) and regime == "not_engine"
        eta, regime = eta_actual(2.0, -1.0)
        assert eta == pytest.approx(0.5) and regime == "engine"
        eta, regime = eta_actual(1.0, 0.5)
        assert eta == 1.0 and regime == "engine_and_refrigerator"


class TestClosedFormOtto:
    def test_reference_squeezed_point(self):
        c = closed_form_otto(r=1.0, **POINT)
        assert c.eta == pytest.approx(0.9462588820946427, rel=1e-12)
        assert c.eta_max == pytest.approx(0.9641725880630951, rel=1e-12)
        assert c.eta_sigma == pytest.approx(1.1627161865847266, rel=1e-12)
        assert c.regime == "engine"

    def test_occupations_and_first_law(self):
        c = closed_form_otto(r=0.5, **POINT)
        assert c.nbar_cold == pytest.approx(bose_occupation(0.15, 1.0))
        assert c.nbar_hot == pytest.approx(bose_occupation(0.3, 3.0))
        assert c.excess_hot == pytest.approx(squeezed_excess(c.nbar_hot, 0.5))
        assert c.work_out == pytest.approx(c.E_dh + c.E_dc, abs=1e-12)
        assert c.eta == pytest.approx(c.work_out / c.E_dh, abs=1e-12)

    def test_unsqueezed_cycle_recovers_otto_and_carnot(self):
        c = closed_form_otto(r=0.0, **POINT)
        assert c.eta == pytest.approx(1.0 - 0.15 / 0.3, abs=1e-12)
        assert c.eta_max == pytest.approx(c.eta_carnot, abs=1e-12)
        assert c.eta_sigma == pytest.approx(c.eta_carnot, abs=1e-12)

    def test_over_squeezing_degrades_the_frame_cap_only(self):
        c = closed_form_otto(r=1.0, **POINT)
        assert c.E_dh_tilde < 0
        assert c.eta_sigma > 1.0
        assert c.eta_max <= 1.0
        assert c.eta <= c.eta_max + 1e-12

    def test_refrigerating_branch_pins_efficiency_at_one(self):
        c = closed_form_otto(1.0, 3.0, 0.09, 0.3, 0.5)
        assert c.E_dc > 0
        assert c.eta == 1.0
        assert c.regime == "engine_and_refrigerator"

    def test_drained_medium_is_rejected(self):
        with pytest.raises(RegimeViolation):
            closed_form_otto(1.0, 3.0, 0.09, 0.3, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_otto(-1.0, 3.0, 0.15, 0.3, 0.1)
        with pytest.raises(ValueError):
            closed_form_otto(1.0, 3.0, 0.3, 0.15, 0.1)

    def test_squeezed_excess_values(self):
        assert squeezed_excess(0.0, 0.4) == pytest.approx(math.sinh(0.4) ** 2)
        assert squeezed_excess(1.0, 0.5) == pytest.approx(
            3.0 * math.sinh(0.5) ** 2
        )
        assert squeezed_excess(0.7, 0.0) == 0.0


@pytest.fixture(scope="module")
def otto_squeezed():
    return run_otto(CycleSpec(r=0.5, **POINT))


class TestRunOtto:
    def test_matches_closed_form_at_convergence(self, otto_squeezed):
        rep = otto_squeezed
        c = closed_form_otto(r=0.5, **POINT)
        assert rep.eta == pytest.approx(c.eta, rel=1e-6)
        assert rep.eta_max == pytest.approx(c.eta_max, rel=1e-6)
        assert rep.eta_sigma == pytest.approx(c.eta_sigma, rel=1e-6)
        assert rep.E_dh == pytest.approx(c.E_dh, rel=1e-6)
        assert rep.E_dc == pytest.approx(c.E_dc, rel=1e-6)

    def test_unsqueezed_cycle_matches_closed_form(self):
        rep = run_otto(CycleSpec(r=0.0, **POINT))
        c = closed_form_otto(r=0.0, **POINT)
        assert rep.eta == pytest.approx(c.eta, rel=1e-6)
        assert rep.eta_max == pytest.approx(c.eta_carnot, rel=1e-6)
        assert len(rep.strokes) == 4

    def test_cycle_bookkeeping_closes(self, otto_squeezed):
        rep = otto_squeezed
        assert rep.firstlaw_residual < 1e-12
        assert rep.closure < 1e-9
        assert rep.entropy_closure < 1e-9
        assert rep.work_out == pytest.approx(rep.E_dh + rep.E_dc, abs=1e-12)
        labels = [s.label for s in rep.strokes]
        assert labels == [
            "compression",
            "energising contact",
            "unsqueeze",
            "expansion",
            "cold contact",
        ]
        contacts = [s for s in rep.strokes if s.temperature is not None]
        assert all(s.work_on == 0.0 for s in contacts)
        moves = [s for s in rep.strokes if s.temperature is None]
        assert all(s.dissipated == 0.0 for s in moves)

    def test_entropy_balance_of_the_converged_cycle(self, otto_squeezed):
        rep = otto_squeezed
        assert rep.E_dc / 1.0 + rep.E_dh_prime / 3.0 <= 1e-8
        assert rep.eta <= rep.eta_max + 1e-12
        assert rep.eta_max <= 1.0 + 1e-12

    def test_short_stroke_raises_not_steady(self):
        with pytest.raises(NotSteady):
            run_otto(CycleSpec(r=0.5, stroke_time=1.0, **POINT))

    def test_cold_contact_at_the_largest_cutoff_matches_closed_form(self):
        # the r = 1 auto cutoff is 1736 levels; at omega_cold 0.15 (cold nbar
        # 0.287) the hot populations reach the top levels of the cold contact
        for omega_cold in (0.09, 0.15):
            point = dict(temp_cold=0.1, temp_hot=3.0, omega_cold=omega_cold,
                         omega_hot=0.3)
            rep = run_otto(CycleSpec(r=1.0, **point))
            c = closed_form_otto(r=1.0, **point)
            assert rep.regime == c.regime
            assert rep.eta == pytest.approx(c.eta, rel=1e-9)
            assert rep.E_dc == pytest.approx(c.E_dc, rel=1e-9)
            assert rep.E_dh == pytest.approx(c.E_dh, rel=1e-9)
            assert rep.closure < 1e-9

    def test_steady_gate_rejects_a_nan_residual(self):
        target = np.array([0.75, 0.25])
        with pytest.raises(NotSteady):
            _check_steady(np.array([np.nan, 0.25]), target, "cold")
        assert _check_steady(target, target, "cold") == 0.0

    def test_mid_bath_dump_lowers_efficiency(self, otto_squeezed):
        spec = CycleSpec(r=0.5, mid_baths=(BathStage(temperature=1.5),), **POINT)
        rep = run_otto(spec)
        assert rep.eta == pytest.approx(0.6809159913750357, rel=1e-9)
        assert len(rep.mid_flows) == 1
        e_d, e_pas, temp = rep.mid_flows[0]
        assert temp == 1.5
        assert e_d < 0  # the medium dumps heat into the mid contact
        assert e_d == pytest.approx(e_pas, abs=1e-12)
        assert rep.eta < otto_squeezed.eta
        assert len(rep.strokes) == 6

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CycleSpec(temp_cold=3.0, temp_hot=1.0, omega_cold=0.15, omega_hot=0.3)
        with pytest.raises(ValueError):
            CycleSpec(temp_cold=1.0, temp_hot=3.0, omega_cold=0.3, omega_hot=0.15)
        with pytest.raises(ValueError):
            CycleSpec(cutoff=1, **POINT)
        with pytest.raises(ValueError):
            CycleSpec(stroke_time=-1.0, **POINT)
        with pytest.raises(TypeError):
            CycleSpec(mid_baths=(1.5,), **POINT)
        with pytest.raises(ValueError):
            BathStage(temperature=0.0)


class TestMultibathBound:
    def test_two_reservoirs_reduce_to_the_passive_cap(self, otto_squeezed):
        rep = otto_squeezed
        bound = multibath_bound(
            [(rep.E_dh, rep.E_dh_prime, 3.0)], [(rep.E_dc, 1.0)]
        )
        assert bound == eta_max(rep.E_dh_prime, rep.E_dh, 1.0, 3.0)

    def test_dumping_contact_widens_only_the_temperature_scan(self):
        base = multibath_bound([(2.0, 1.0, 3.0)], [(-0.5, 1.0)])
        inside = multibath_bound([(2.0, 1.0, 3.0)], [(-0.5, 1.0), (-0.3, 2.0)])
        assert inside == base
        wider = multibath_bound([(2.0, 1.0, 3.0)], [(-0.5, 1.0), (-0.3, 6.0)])
        assert wider == pytest.approx(1.0 - (1.0 / 6.0) * 0.5)
        assert wider > base

    def test_feeding_thermal_contact_enters_both_sums(self):
        base = multibath_bound([(2.0, 1.0, 3.0)], [(-0.5, 1.0)])
        fed = multibath_bound([(2.0, 1.0, 3.0)], [(-0.5, 1.0), (0.5, 2.0)])
        assert fed == pytest.approx(1.0 - (1.0 / 3.0) * (1.5 / 2.5))
        assert fed < base

    def test_three_temperature_bound_sits_between_eta_and_the_reduced_cap(
        self, otto_squeezed
    ):
        spec = CycleSpec(r=0.5, mid_baths=(BathStage(temperature=1.5),), **POINT)
        rep = run_otto(spec)
        bound = multibath_bound(
            [(rep.E_dh, rep.E_dh_prime, 3.0)],
            [(e, t) for e, _p, t in rep.mid_flows] + [(rep.E_dc, 1.0)],
        )
        reduced_cap = eta_max(
            otto_squeezed.E_dh_prime, otto_squeezed.E_dh, 1.0, 3.0
        )
        assert rep.eta < bound < reduced_cap

    def test_degenerate_inputs_are_rejected(self):
        with pytest.raises(RegimeViolation):
            multibath_bound([], [])
        with pytest.raises(ValueError):
            multibath_bound([(1.0, 0.5, -3.0)], [])
        with pytest.raises(RegimeViolation):
            multibath_bound([], [(-1.0, 2.0)])


class TestCarnotLike:
    def test_matched_spec_scales_the_sweep_endpoints(self):
        spec = matched_carnot_spec(2.5, 5.0, 25.0, 20.0, 40.0)
        assert spec.omega_cold_start == pytest.approx(10.0)
        assert spec.omega_cold_end == pytest.approx(12.5)

    def test_slow_cycle_saturates_carnot_from_below(self):
        etas, sigmas = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            for tau in (15.0, 40.0):
                rep = run_carnot_like(matched_carnot_spec(2.5, 5.0, 25.0, 20.0, tau))
                etas.append(rep.eta)
                sigmas.append(rep.sigma_total)
                assert rep.heat_hot > 0 > rep.heat_cold
                assert rep.work_out > 0
                assert rep.sigma_total > 0
                assert rep.closure < 1e-12
                assert rep.firstlaw_residual < 1e-12
                assert rep.eta < rep.eta_carnot
                jumps = [s for s in rep.strokes if s.temperature is None]
                assert all(s.dissipated == 0.0 for s in jumps)
        assert etas[0] < etas[1] < 0.5
        assert sigmas[0] > sigmas[1]
        assert etas[1] == pytest.approx(0.49719996080473233, abs=1e-6)
        assert 0.5 - etas[1] < 1e-2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CarnotSpec(
                temp_cold=5.0,
                temp_hot=5.0,
                omega_hot_start=25.0,
                omega_hot_end=20.0,
                omega_cold_start=10.0,
                omega_cold_end=12.5,
                stroke_time=10.0,
            )
        with pytest.raises(ValueError):
            matched_carnot_spec(2.5, 5.0, -25.0, 20.0, 10.0)
        with pytest.raises(ValueError):
            matched_carnot_spec(2.5, 5.0, 25.0, 20.0, 0.0)
