import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp

from squeezedbath import (
    CutoffLeak,
    DensityMatrix,
    Generator,
    HamiltonianSchedule,
    HilbertDim,
    JumpTerm,
    NonUniqueSteadyState,
    NotUnitary,
    Operator,
    PositivityLoss,
    SlowDriveViolation,
    SteadyStateResidual,
    TraceDrift,
    annihilation,
    apply,
    bose_occupation,
    coherent_state,
    conjugate_generator,
    constant_hamiltonian,
    evolve,
    harmonic_hamiltonian,
    linear_ramp_schedule,
    number_state,
    oscillator_schedule,
    relax_populations,
    required_cutoff,
    squeeze_operator,
    squeezed_generator,
    squeezed_mode_operator,
    squeezed_thermal_state,
    steady_state,
    superoperator,
    thermal_generator,
    thermal_populations,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
    relative_entropy,
)
from squeezedbath import dynamics


def matrix_units(n):
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            yield e


def custom_clone(gen):
    """The same jumps, H and picture under the custom tag, which evolve
    always runs by RK4."""
    return Generator(
        dim=gen.dim, hamiltonian=gen.hamiltonian, jumps=gen.jumps, picture=gen.picture
    )


def expm_evolved(gen, rho0, t):
    """rho0 propagated by expm of the truncated superoperator."""
    n = gen.dim.cutoff
    prop = scipy.linalg.expm(superoperator(gen).toarray() * t)
    return (prop @ rho0.matrix.reshape(-1)).reshape(n, n)


class TestBoseOccupation:
    def test_values(self):
        assert math.isclose(bose_occupation(0.3, 3.0), 1 / math.expm1(0.1),
                            rel_tol=1e-14)
        assert bose_occupation(1.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(1.0, -0.1)


class TestThermalGenerator:
    def test_zero_occupation_single_channel(self):
        gen = thermal_generator(1.0, 2.0, nbar=0.0, dim=10)
        rates = sorted(j.rate_at(0.0) for j in gen.jumps)
        assert rates[-1] == 2.0
        assert sum(r > 0 for r in rates) == 1

    def test_detailed_balance_ratio(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.7, dim=10)
        down = up = None
        a_ref = annihilation(10).matrix
        for j in gen.jumps:
            if np.allclose(j.operator.matrix, a_ref):
                down = j.rate_at(0.0)
            else:
                up = j.rate_at(0.0)
        assert math.isclose(up / down, 0.7 / 1.7, rel_tol=1e-14)

    def test_annihilates_thermal_state(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.8, dim=40)
        residual = np.abs(apply(gen, thermal_state(0.8, 40))).max()
        assert residual < 1e-10

    def test_temperature_mode_matches_occupation(self):
        gen = thermal_generator(2.0, 1.0, dim=20, temperature=4.0)
        assert math.isclose(gen.nbar, bose_occupation(2.0, 4.0), rel_tol=1e-14)

    def test_driven_rates_follow_instantaneous_frequency(self):
        sched = linear_ramp_schedule(25.0, 20.0, 100.0, dim=20)
        gen = thermal_generator(sched, 1.0, dim=20, temperature=5.0)
        for t in (0.0, 50.0, 100.0):
            nb = bose_occupation(25.0 - 0.05 * t, 5.0)
            assert math.isclose(gen.occupation_at(t), nb, rel_tol=1e-12)
            rates = sorted(j.rate_at(t) for j in gen.jumps)
            assert math.isclose(rates[0] / rates[1], nb / (nb + 1),
                                rel_tol=1e-12)


BUILDERS = [
    pytest.param(thermal_generator, id="thermal"),
    pytest.param(lambda w, kap, nb, d, **k: squeezed_generator(w, kap, nb, 0.3, d, **k),
                 id="squeezed"),
]


class TestBathValidation:
    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize(
        "kappa, nbar, temperature",
        [(0.0, 0.2, None), (-1.0, 0.2, None), (1.0, None, None), (1.0, 0.2, 5.0),
         (1.0, -0.1, None), (1.0, None, -1.0)],
    )
    def test_rejected_for_both_builders(self, build, kappa, nbar, temperature):
        with pytest.raises(ValueError):
            build(1.0, kappa, nbar, 10, temperature=temperature)

    def test_squeezed_rejects_both_nbar_and_temperature(self):
        # nbar 0.2 at omega 1 means T ~ 0.56; keeping T = 5 beside it would
        # mislead entropy_bound_report
        with pytest.raises(ValueError, match="exactly one"):
            squeezed_generator(1.0, 1.0, 0.2, 0.3, dim=30, temperature=5.0)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_schedule_must_match_dim_and_carry_frequency(self, build):
        with pytest.raises(ValueError, match="dimension"):
            build(linear_ramp_schedule(2.0, 1.0, 1.0, dim=8), 1.0, 0.2, 10)
        bare = constant_hamiltonian(harmonic_hamiltonian(1.0, 10))
        with pytest.raises(ValueError, match="frequency"):
            build(bare, 1.0, 0.2, 10)

    def test_tagged_generator_needs_an_occupation(self):
        # bath_invariant_state reads the occupation of every tagged kind
        h = constant_hamiltonian(harmonic_hamiltonian(1.0, 6))
        jumps = (JumpTerm(annihilation(6), 1.0),)
        with pytest.raises(ValueError, match="needs nbar or occupation_fn"):
            Generator(HilbertDim(6), h, jumps, kind="thermal")
        with pytest.raises(ValueError, match="needs a nonzero r"):
            Generator(HilbertDim(6), h, jumps, kind="squeezed", nbar=0.2)

    def test_thermal_tag_means_zero_squeezing(self):
        # the thermal kind is the r = 0 member of the squeezed family
        h = linear_ramp_schedule(1.0, 1.0, 1.0, dim=6)
        jumps = (JumpTerm(annihilation(6), 1.0),)
        assert Generator(HilbertDim(6), h, jumps, kind="thermal", nbar=0.2).r == 0.0
        with pytest.raises(ValueError, match="a thermal generator has r = 0"):
            Generator(HilbertDim(6), h, jumps, kind="thermal", nbar=0.2, r=0.3)

    @pytest.mark.parametrize("kind, r", [("thermal", 0.0), ("squeezed", 0.3)])
    def test_tagged_schedule_must_carry_frequency(self, kind, r):
        # the tagged routes read omega(t); a bare schedule fails at construction
        h = constant_hamiltonian(harmonic_hamiltonian(1.0, 6))
        jumps = (JumpTerm(annihilation(6), lambda t: 1.0 + 0.1 * t),)
        with pytest.raises(ValueError, match="frequency metadata"):
            Generator(HilbertDim(6), h, jumps, kind=kind, r=r,
                      occupation_fn=lambda t: 0.1 * t)

    @staticmethod
    def general_ramp():
        """linear_ramp_schedule's callables without its levels: a general
        schedule that still carries omega(t)."""
        ramp = linear_ramp_schedule(25.0, 20.0, 2.0, dim=20)
        return ramp, HamiltonianSchedule(
            dim=ramp.dim, evaluate_fn=ramp.evaluate, derivative_fn=ramp.derivative,
            frequency=ramp.frequency, frequency_dot=ramp.frequency_dot,
        )

    @pytest.mark.parametrize("build", BUILDERS)
    def test_tagged_bath_needs_a_ladder_schedule(self, build):
        # it fails at construction, not inside evolve
        _, general = self.general_ramp()
        with pytest.raises(ValueError, match="levels and frequency metadata"):
            build(general, 1.0, None, 20, temperature=5.0)

    def test_custom_generator_on_a_general_schedule_still_evolves(self):
        # and matches the same jumps on the ladder form of the ramp
        ramp, general = self.general_ramp()
        jumps = thermal_generator(ramp, 1.0, dim=20, temperature=5.0).jumps
        rho0 = thermal_state(bose_occupation(25.0, 5.0), 20)
        runs = [evolve(Generator(ramp.dim, sched, jumps), rho0, 0.25)
                for sched in (general, ramp)]
        np.testing.assert_allclose(runs[0].final_state.matrix,
                                   runs[1].final_state.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(runs[0].dissipated_cum, runs[1].dissipated_cum,
                                   rtol=0, atol=1e-12)

    def test_static_frequency_is_a_constant_ladder(self):
        gen = squeezed_generator(2.0, 1.0, None, 0.3, dim=6, temperature=1.5)
        sched = gen.hamiltonian
        assert sched.is_constant and sched.frequency_dot(4.0) == 0.0
        np.testing.assert_array_equal(sched.diagonal(4.0), 2.0 * np.arange(6))
        np.testing.assert_array_equal(sched.evaluate(4.0),
                                      harmonic_hamiltonian(2.0, 6).matrix)


class TestSqueezedGenerator:
    def test_zero_squeezing_matches_thermal(self):
        sq = squeezed_generator(1.0, 1.3, 0.6, 0.0, dim=12)
        th = thermal_generator(1.0, 1.3, nbar=0.6, dim=12)
        assert sq.kind == "thermal" and sq.r == 0.0 and th.r == 0.0
        assert [j.rate for j in sq.jumps] == [j.rate for j in th.jumps]
        for js, jt in zip(sq.jumps, th.jumps, strict=True):
            np.testing.assert_array_equal(js.operator.matrix, jt.operator.matrix)
        # the invariant needs a cutoff that holds the thermal tail
        sq40 = squeezed_generator(1.0, 1.3, 0.6, 0.0, dim=40)
        inv = dynamics.bath_invariant_state(thermal_generator(1.0, 1.3, 0.6, 40)).matrix
        np.testing.assert_array_equal(dynamics.bath_invariant_state(sq40).matrix, inv)
        # the r = 0 member of the squeezed family's closed form, bit for bit
        np.testing.assert_array_equal(squeezed_thermal_state(0.6, 0.0, 40).matrix, inv)
        for basis in matrix_units(12):
            np.testing.assert_allclose(apply(sq, basis), apply(th, basis),
                                       atol=1e-12)

    def test_four_dissipator_form_agrees_on_complete_basis(self):
        # D(A,B) rho = 2 A rho B - B A rho - rho B A with coefficients
        # N+1, N, -M, -M on (a,a+), (a+,a), (a,a), (a+,a+)
        n_dim, nbar, r, kappa = 16, 0.5, 0.3, 1.3
        gen = squeezed_generator(1.0, kappa, nbar, r, dim=n_dim)
        a = annihilation(n_dim).matrix
        ad = a.conj().T
        big_n = nbar * (math.cosh(r) ** 2 + math.sinh(r) ** 2) + math.sinh(r) ** 2
        big_m = -math.cosh(r) * math.sinh(r) * (2 * nbar + 1)

        def dis(aa, bb, rho):
            return 2 * aa @ rho @ bb - bb @ aa @ rho - rho @ bb @ aa

        worst = 0.0
        for basis in matrix_units(n_dim):
            four = kappa * (
                (big_n + 1) * dis(a, ad, basis)
                + big_n * dis(ad, a, basis)
                - big_m * dis(a, a, basis)
                - big_m * dis(ad, ad, basis)
            )
            worst = max(worst, np.abs(apply(gen, basis) - four).max())
        assert worst < 1e-10

    def test_coefficients_at_fig3_parameters(self):
        r = 0.4
        big_n = math.sinh(r) ** 2
        big_m = -math.cosh(r) * math.sinh(r)
        assert math.isclose(big_n, 0.168717, abs_tol=5e-7)
        assert math.isclose(big_m, -0.444053, abs_tol=5e-7)

    def test_steady_state_is_squeezed_thermal(self):
        gen = squeezed_generator(1.0, 1.0, 0.5, 0.2, dim=60)
        ss = steady_state(gen)
        assert trace_distance(ss, squeezed_thermal_state(0.5, 0.2, 60)) < 1e-8

    def test_mode_operator_is_bogoliubov_combination(self):
        b = squeezed_mode_operator(0.3, 14).matrix
        a = annihilation(14).matrix
        expected = math.cosh(0.3) * a + math.sinh(0.3) * a.conj().T
        np.testing.assert_allclose(b, expected, atol=1e-14)


class TestApply:
    def test_trace_free_on_random_states(self):
        rng = np.random.default_rng(2)
        gen = squeezed_generator(1.0, 1.0, 0.4, 0.3, dim=15)
        for _ in range(5):
            m = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
            m = m @ m.conj().T
            m /= m.trace()
            assert abs(np.trace(apply(gen, m))) < 1e-12

    def test_closed_system_reduces_to_commutator(self):
        h = harmonic_hamiltonian(2.0, 8)
        gen = Generator(HilbertDim(8), constant_hamiltonian(h), jumps=())
        rho = coherent_state(1.0, 8).matrix if False else None
        m = np.zeros((8, 8), dtype=complex)
        m[0, 1] = m[1, 0] = 0.5
        m[0, 0] = m[1, 1] = 0.5
        out = apply(gen, m)
        np.testing.assert_allclose(out, -1j * (h.matrix @ m - m @ h.matrix),
                                   atol=1e-14)

    def test_hermitian_flag_matches_general_path(self):
        gen = squeezed_generator(1.0, 1.0, 0.3, 0.25, dim=40)
        rho = squeezed_thermal_state(0.8, 0.1, 40).matrix
        np.testing.assert_allclose(apply(gen, rho, hermitian=True),
                                   apply(gen, rho), atol=1e-13)

    def test_real_input_gives_the_complex_result(self):
        gen = squeezed_generator(1.0, 1.0, 0.3, 0.25, dim=30)
        rho = squeezed_thermal_state(0.3, 0.1, 30).matrix
        out = apply(gen, rho.real)
        assert np.iscomplexobj(out)
        np.testing.assert_allclose(out, apply(gen, rho), atol=1e-14)
        closed = Generator(HilbertDim(30), constant_hamiltonian(
            harmonic_hamiltonian(1.0, 30)), jumps=())
        assert np.iscomplexobj(apply(closed, rho.real))
        empty = Generator(HilbertDim(30), constant_hamiltonian(
            harmonic_hamiltonian(1.0, 30)), jumps=(), picture="interaction")
        assert np.iscomplexobj(apply(empty, rho.real))


class TestRateReader:
    def nan_rate_generator(self):
        a = annihilation(12)
        return Generator(
            HilbertDim(12),
            constant_hamiltonian(harmonic_hamiltonian(1.0, 12)),
            jumps=(JumpTerm(a, 1.0), JumpTerm(a.dagger(), lambda t: float("nan"))),
            picture="interaction",
        )

    def test_nan_rate_is_named_by_every_entry_point(self):
        gen = self.nan_rate_generator()
        rho = thermal_state(0.1, 12)
        for call in (
            lambda: gen.jumps[1].rate_at(0.5),
            lambda: apply(gen, rho, 0.5),
            lambda: steady_state(gen, t=0.5),
            lambda: evolve(gen, rho, 1.0),
        ):
            with pytest.raises(ValueError, match=r"jump rate is nan at t=0"):
                call()

    @pytest.mark.parametrize("bad", [-0.1, float("inf")])
    def test_negative_or_infinite_rate_raises(self, bad):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            JumpTerm(annihilation(4), lambda t: bad).rate_at(2.0)


class TestEvolve:
    def test_coherent_decay_stays_coherent(self):
        gen = thermal_generator(10.0, 1.0, nbar=0.0, dim=40)
        traj = evolve(gen, coherent_state(1.0, 40), 1.5)
        target = coherent_state(math.exp(-1.5), 40)
        assert trace_distance(traj.final_state, target) < 1e-8

    def test_steady_start_stays_put(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=40)
        rho0 = thermal_state(0.5, 40)
        traj = evolve(gen, rho0, 2.0)
        assert trace_distance(traj.final_state, rho0) < 1e-10
        assert abs(traj.dissipated_cum[-1]) < 1e-10

    def test_long_time_limit_matches_null_space(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.6, dim=40)
        traj = evolve(gen, number_state(3, 40), 25.0)
        assert trace_distance(traj.final_state, steady_state(gen)) < 1e-8

    def test_trace_preserved_along_grid(self):
        gen = squeezed_generator(10.0, 1.0, 0.0, 0.4, dim=40)
        traj = evolve(gen, thermal_state(0.0, 40), 4.0)
        assert traj.trace_errors.max() < 1e-8
        assert np.all(np.diff(traj.times) > 0)

    # the three gate tests run a custom clone of a constant thermal bath:
    # the tagged original takes the exact channel, which these steps cannot
    # break (TestChannelRoute checks it on the same inputs). Each message
    # names the time of the first snapshot that fails.

    def test_trace_drift_raised_for_runaway_step(self):
        # dt far past the RK4 edge grows the stiff modes until roundoff
        # alone moves the trace past the 1e-8 gate, before positivity is read
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.5, dim=10))
        with pytest.raises(TraceDrift, match=r"drifted to \S+ at t=1000$"):
            evolve(gen, coherent_state(0.5, 10), 2e4, dt=1e3, snapshot_stride=1)

    def test_non_finite_state_fails_the_trace_gate(self):
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.5, dim=10))
        with np.errstate(all="ignore"), pytest.raises(
            TraceDrift, match=r"drifted to nan at t=1e\+80$"
        ):
            evolve(gen, coherent_state(0.5, 10), 2e80, dt=1e80, snapshot_stride=1)

    def test_positivity_loss_raised_for_oversized_step(self):
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.5, dim=12))
        with pytest.raises(PositivityLoss, match=r"eigenvalue -\S+ at t=1\.5;"):
            evolve(gen, number_state(0, 12), 3.0, dt=1.5)

    @pytest.mark.parametrize("route, custom", [("_frame_run", False), ("_rk4_run", True)])
    def test_non_finite_coherence_fails_a_gate(self, monkeypatch, route, custom):
        # a NaN off the diagonal leaves the trace finite, and numpy's
        # eigvalsh raises LinAlgError on it: the gate must still answer with
        # the library's own error, on either route
        def nan_coherence(gen, rho0, dt, marks):
            m = np.array(rho0.matrix)
            m[0, 1] = m[1, 0] = np.nan
            yield marks[0], m, (0.0, 0.0, 0.0)

        monkeypatch.setattr(dynamics, route, nan_coherence)
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=10)
        gen = custom_clone(gen) if custom else gen
        with pytest.raises((TraceDrift, PositivityLoss), match=r"at t=0\.00694444;"):
            evolve(gen, coherent_state(0.5, 10), 1.0)

    def test_spohn_monotonicity_constant_hamiltonian(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.3, dim=40)
        ss = steady_state(gen)
        traj = evolve(gen, coherent_state(1.0, 40), 5.0)
        rel = [relative_entropy(s, ss) for s in traj.states]
        drops = np.diff(rel)
        assert np.all(drops <= 1e-9)

    def test_slow_drive_warning(self):
        sched = linear_ramp_schedule(25.0, 20.0, 5.0, dim=20)
        gen = thermal_generator(sched, 1.0, dim=20, temperature=5.0)
        rho0 = thermal_state(bose_occupation(25.0, 5.0), 20)
        with pytest.warns(SlowDriveViolation):
            evolve(gen, rho0, 5.0)

    def test_slow_drive_warning_scans_every_step(self):
        # |d(omega)/dt|/omega peaks at 0.126 between the samples t = 0, T/2
        # and T, where the sweep rate is exactly zero
        k = 4.0 * math.pi / 10.0
        sched = oscillator_schedule(
            lambda t: 10.0 - math.cos(k * t), lambda t: k * math.sin(k * t), dim=12
        )
        gen = thermal_generator(sched, 1.0, dim=12, temperature=2.0)
        rho0 = thermal_state(bose_occupation(9.0, 2.0), 12)
        with pytest.warns(SlowDriveViolation):
            evolve(gen, rho0, 10.0)

    def test_validation_errors(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.0, dim=10)
        with pytest.raises(ValueError):
            evolve(gen, number_state(0, 12), 1.0)
        with pytest.raises(ValueError):
            evolve(gen, number_state(0, 10), -1.0)
        with pytest.raises(ValueError):
            evolve(gen, number_state(0, 10), 1.0, dt=-0.1)

    @pytest.mark.parametrize("dt, count", [(1e-300, "4e+300"), (1e-320, "inf"),
                                           (1e-7, "4e+07")])
    def test_step_guard_names_the_count_as_a_float(self, dt, count):
        gen = thermal_generator(1.0, 1.0, nbar=0.0, dim=10)
        with pytest.raises(ValueError, match=rf"^step count {re.escape(count)} is "):
            evolve(gen, number_state(0, 10), 4.0, dt=dt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_or_step_is_named(self, bad):
        gen = thermal_generator(1.0, 1.0, nbar=0.0, dim=10)
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            evolve(gen, number_state(0, 10), bad)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            evolve(gen, number_state(0, 10), 1.0, dt=bad)


class TestBlockGate:
    """evolve gates its snapshots dynamics._BLOCK at a time: the trace check
    runs per snapshot as it arrives, positivity on each flushed block, and
    the first snapshot in time order that fails names the error."""

    @staticmethod
    def planted_run(plant, advanced):
        """A fake route over the marks yielding plant(j, m) for the j-th
        (from 0), m a valid thermal state; advanced records each yield."""
        good = thermal_state(0.1, 10).matrix

        def run(gen, rho0, dt, marks):
            for j, mark in enumerate(marks):
                advanced.append(j)
                yield mark, plant(j, good), (0.0, 0.0, 0.0)

        return run

    @staticmethod
    def negative(m):
        m = m.copy()
        m[0, 0] += 0.1
        m[9, 9] -= 0.1  # below zero, trace unchanged
        return m

    @pytest.mark.parametrize("j", [0, 31, 32, 33, 64])
    def test_positivity_at_j_beats_a_trace_drift_at_j_plus_1(self, monkeypatch, j):
        advanced = []
        plant = {j: self.negative, j + 1: lambda m: 1.001 * m}
        run = self.planted_run(lambda i, m: plant.get(i, np.array)(m), advanced)
        monkeypatch.setattr(dynamics, "_rk4_run", run)
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.1, dim=10))
        t = f"{(j + 1) * 0.1:g}"
        with pytest.raises(PositivityLoss, match=rf"eigenvalue -\S+ at t={t};"):
            evolve(gen, thermal_state(0.1, 10), 7.0, dt=0.1, snapshot_stride=1)

    @pytest.mark.parametrize("j", [0, 31, 32, 33, 64])
    def test_trace_drift_at_j_beats_positivity_at_j_plus_1(self, monkeypatch, j):
        advanced = []
        plant = {j: lambda m: 1.001 * m, j + 1: self.negative}
        run = self.planted_run(lambda i, m: plant.get(i, np.array)(m), advanced)
        monkeypatch.setattr(dynamics, "_rk4_run", run)
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.1, dim=10))
        t = f"{(j + 1) * 0.1:g}"
        with pytest.raises(TraceDrift, match=rf"drifted to \S+ at t={t}$"):
            evolve(gen, thermal_state(0.1, 10), 7.0, dt=0.1, snapshot_stride=1)
        assert len(advanced) == j + 1

    def test_the_earliest_of_two_positivity_failures_is_named(self, monkeypatch):
        plant = {3: self.negative, 5: self.negative}
        monkeypatch.setattr(dynamics, "_rk4_run", self.planted_run(
            lambda i, m: plant.get(i, np.array)(m), []))
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.1, dim=10))
        with pytest.raises(PositivityLoss, match=r"at t=0\.4;"):
            evolve(gen, thermal_state(0.1, 10), 7.0, dt=0.1, snapshot_stride=1)

    def test_the_fake_route_passes_when_nothing_is_planted(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_rk4_run", self.planted_run(
            lambda i, m: m, []))
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.1, dim=10))
        traj = evolve(gen, thermal_state(0.1, 10), 7.0, dt=0.1, snapshot_stride=1)
        assert len(traj.states) == 71

    @pytest.mark.parametrize("n", [40, 31])
    @pytest.mark.parametrize("swept", [False, True])
    def test_a_squeezed_bath_on_a_thermal_start_keeps_parity(self, n, swept):
        if swept:
            sched = linear_ramp_schedule(25.0, 20.0, 2.0, dim=n)
            gen = squeezed_generator(sched, 1.0, None, 0.2, dim=n, temperature=5.0)
            rho0 = thermal_state(bose_occupation(25.0, 5.0), n)
        else:
            gen = squeezed_generator(10.0, 1.0, 0.0, 0.4, dim=n)
            rho0 = thermal_state(0.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            traj = evolve(gen, rho0, 2.0)
        assert len(traj.states) > 2 * dynamics._BLOCK
        for state in traj.states:
            m = state.matrix
            assert not m[0::2, 1::2].any() and not m[1::2, 0::2].any()
            np.testing.assert_allclose(state.eigenvalues, np.linalg.eigvalsh(m),
                                       rtol=0, atol=1e-14)

    def test_a_coherent_start_is_gated_whole(self):
        sched = linear_ramp_schedule(25.0, 20.0, 1.0, dim=30)
        gen = squeezed_generator(sched, 1.0, None, 0.2, dim=30, temperature=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            traj = evolve(gen, coherent_state(0.5 + 0.7j, 30), 1.0)
        assert np.abs(traj.final_state.matrix[0::2, 1::2]).max() > 1e-3
        for state in traj.states[1:]:
            np.testing.assert_array_equal(state.eigenvalues,
                                          np.linalg.eigvalsh(state.matrix))

    @pytest.mark.parametrize("coupling, sizes", [(0.0, [(3, 5, 5), (3, 5, 5)]),
                                                 (1e-12, [(3, 10, 10)])])
    def test_only_exact_zeros_split_a_stack(self, monkeypatch, coupling, sizes):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        a = np.random.default_rng(3).standard_normal((10, 10))
        a[0::2, 1::2] = a[1::2, 0::2] = 0.0  # so a a^T has exact parity zeros
        m = a @ a.T / np.trace(a @ a.T)
        m[2, 5] = m[5, 2] = coupling
        states = dynamics._gate_block(HilbertDim(10), np.array([m] * 3), [1, 2, 3])
        assert shapes == sizes
        full = eigvalsh(m)
        for state in states:
            np.testing.assert_allclose(state.eigenvalues, full, rtol=0, atol=1e-14)
            assert not state.matrix.flags.writeable


class TestChannelRoute:
    """A tagged bath runs in its own frame; with constant rates and H it
    is an exact channel."""

    def test_tagged_baths_never_call_apply(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("apply called")

        monkeypatch.setattr(dynamics, "apply", refuse)
        ramp = linear_ramp_schedule(2.0, 1.99, 1.0, dim=12)
        baths = (
            thermal_generator(2.0, 1.0, nbar=0.3, dim=12),
            squeezed_generator(2.0, 1.0, 0.3, 0.2, dim=12),
            thermal_generator(ramp, 1.0, dim=12, temperature=1.0),  # swept N
            squeezed_generator(ramp, 1.0, 0.3, 0.2, dim=12),  # swept H, fixed N
            squeezed_generator(ramp, 1.0, None, 0.2, dim=12, temperature=0.0),
        )
        for gen in baths:
            evolve(gen, coherent_state(0.5, 12), 1.0)
        for gen in baths:
            with pytest.raises(AssertionError, match="apply called"):
                evolve(custom_clone(gen), coherent_state(0.5, 12), 1.0)

    def test_random_start_matches_expm_of_the_truncated_generator(self):
        n = 20
        rng = np.random.default_rng(13)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = g @ g.conj().T
        rho0 = DensityMatrix(Operator(HilbertDim(n), m / np.trace(m).real))
        gen = thermal_generator(1.3, 0.7, nbar=0.4, dim=n)
        traj = evolve(gen, rho0, 1.75, dt=0.25)
        assert len(traj.times) == 8
        h = gen.hamiltonian.diagonal(0.0)
        for t, state, e_d in zip(traj.times, traj.states, traj.dissipated_cum):
            exact = expm_evolved(gen, rho0, t)
            np.testing.assert_allclose(state.matrix, exact, rtol=0, atol=1e-12)
            # the flow integral, not an energy difference, still closes it
            de = float((np.diagonal(exact - rho0.matrix).real * h).sum())
            assert e_d == pytest.approx(de, rel=0, abs=1e-12)

    def test_short_final_interval_gets_its_own_propagator(self):
        # squeezed-relax: 4113 steps at stride 10 end on a 3-step interval
        gen = squeezed_generator(10.0, 1.0, 0.0, 0.4, dim=40)
        rho0 = thermal_state(0.0, 40)
        every = evolve(gen, rho0, 6.0, snapshot_stride=1)
        assert len(every.times) - 1 == 4113
        strided = evolve(gen, rho0, 6.0, snapshot_stride=10)
        np.testing.assert_array_equal(strided.times, every.times[::10].tolist() + [6.0])
        np.testing.assert_allclose(
            strided.final_state.matrix, every.final_state.matrix, rtol=0, atol=1e-12
        )
        assert strided.dissipated_cum[-1] == pytest.approx(
            every.dissipated_cum[-1], rel=0, abs=1e-12
        )

    @pytest.mark.parametrize("t_final, dt", [(2e4, 1e3), (2e80, 1e80)])
    def test_runaway_steps_reach_the_steady_state(self, t_final, dt):
        # the inputs on which RK4 fails its trace gate
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=10)
        rho0 = coherent_state(0.5, 10)
        with np.errstate(over="raise", invalid="raise"):
            traj = evolve(gen, rho0, t_final, dt=dt, snapshot_stride=1)
        steady = steady_state(gen)
        h = gen.hamiltonian.diagonal(0.0)
        for state in traj.states[1:]:
            assert trace_distance(state, steady) < 1e-12
        de = float((np.diagonal(steady.matrix - rho0.matrix).real * h).sum())
        np.testing.assert_allclose(traj.dissipated_cum[1:], de, rtol=0, atol=1e-12)

    def test_oversized_step_stays_exact_and_positive(self):
        # the input on which RK4 fails its positivity gate
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=12)
        rho0 = number_state(0, 12)
        traj = evolve(gen, rho0, 3.0, dt=1.5)
        np.testing.assert_array_equal(traj.times, [0.0, 1.5, 3.0])
        for t, state in zip(traj.times, traj.states):
            exact = expm_evolved(gen, rho0, t)
            np.testing.assert_allclose(state.matrix, exact, rtol=0, atol=1e-12)
            assert state.min_eig >= 0.0


class TestFrameOracle:
    """A swept tagged bath on its frame bands against its custom clone,
    which runs RK4 on the lab matrix over the same step grid.

    The frame truncates S a S^T where the lab truncates b; at cutoff 40
    the two agree far below the tolerance, so the states, E_d and W must
    match at every snapshot.
    """

    def _compare(self, gen, rho0, t_final):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            frame = evolve(gen, rho0, t_final)
            lab = evolve(custom_clone(gen), rho0, t_final)
        np.testing.assert_array_equal(frame.times, lab.times)
        np.testing.assert_allclose(frame.dissipated_cum, lab.dissipated_cum,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(frame.work_cum, lab.work_cum, rtol=0, atol=1e-12)
        for a, b in zip(frame.states, lab.states):
            np.testing.assert_allclose(a.matrix, b.matrix, rtol=0, atol=1e-12)
        assert abs(frame.dissipated_cum[-1]) > 1e-3
        return frame

    @staticmethod
    def squeezed_ramp():
        sched = linear_ramp_schedule(25.0, 20.0, 2.0, dim=40)
        return squeezed_generator(sched, 1.0, None, 0.2, dim=40, temperature=5.0)

    def test_squeezed_ramp(self):
        rho0 = thermal_state(bose_occupation(25.0, 5.0), 40)
        self._compare(self.squeezed_ramp(), rho0, 2.0)

    def test_thermal_ramp_from_a_non_thermal_diagonal_start(self):
        sched = linear_ramp_schedule(2.0, 1.5, 2.0, dim=40)
        gen = thermal_generator(sched, 1.0, dim=40, temperature=1.0)
        p = thermal_populations(0.2, 40) + 0.5 * thermal_populations(1.0, 40)
        rho0 = DensityMatrix(Operator(HilbertDim(40), np.diag(p / p.sum())))
        traj = self._compare(gen, rho0, 2.0)
        assert abs(traj.work_cum[-1]) > 1e-3

    def test_complex_coherent_start_under_the_squeezed_ramp(self):
        traj = self._compare(self.squeezed_ramp(), coherent_state(0.5 + 0.7j, 40), 2.0)
        assert np.abs(traj.final_state.matrix.imag).max() > 1e-2


class TestSteadyState:
    def test_thermal_kernel(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.9, dim=40)
        ss = steady_state(gen)
        assert trace_distance(ss, thermal_state(0.9, 40)) < 1e-10

    def test_non_unique_kernel_raises(self):
        h = constant_hamiltonian(harmonic_hamiltonian(1.0, 6))
        gen = Generator(HilbertDim(6), h, jumps=())
        with pytest.raises(NonUniqueSteadyState):
            steady_state(gen)

    def test_residual_is_small(self):
        gen = squeezed_generator(1.0, 1.0, 0.3, 0.2, dim=50)
        ss = steady_state(gen)
        assert np.abs(apply(gen, ss)).max() < 1e-10


def _rotated_thermal(n, nbar=0.3, r=0.25):
    """Thermal damping conjugated by the exact truncated squeeze unitary."""
    a = annihilation(n).matrix
    u = scipy.linalg.expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
    gen = thermal_generator(1.0, 1.0, nbar=nbar, dim=n)
    return conjugate_generator(gen, Operator(HilbertDim(n), u))


def _driven_schroedinger(n):
    """Custom generator whose coherent part has a non-diagonal H."""
    a = annihilation(n)
    am, ad = a.matrix, a.dagger().matrix
    h = ad @ am + 0.3 * (am + ad) + 0.1 * (am @ am + ad @ ad)
    return Generator(
        HilbertDim(n),
        constant_hamiltonian(Operator(HilbertDim(n), h)),
        jumps=(JumpTerm(a, 1.3), JumpTerm(a.dagger(), 0.3)),
    )


def _dephased_decay(n, eps):
    """Dephasing at rate 1 plus damping at rate eps under H = n_hat."""
    a = annihilation(n)
    num = Operator(HilbertDim(n), a.dagger().matrix @ a.matrix)
    return Generator(
        HilbertDim(n),
        constant_hamiltonian(num),
        jumps=(JumpTerm(num, 1.0), JumpTerm(a, eps)),
    )


class TestSteadyStateOracle:
    """steady_state against the null vector of a dense SVD of the generator."""

    @staticmethod
    def _dense_kernel(gen):
        n = gen.dim.cutoff
        _u, _s, vh = scipy.linalg.svd(superoperator(gen).toarray())
        x = vh[-1].conj().reshape(n, n)
        x = 0.5 * (x + x.conj().T)
        return DensityMatrix(Operator(gen.dim, x / x.trace().real))

    @pytest.mark.parametrize("n", [6, 20, 32])
    @pytest.mark.parametrize("build", [_rotated_thermal, _driven_schroedinger])
    def test_matches_dense_null_vector(self, build, n):
        gen = build(n)
        assert trace_distance(steady_state(gen), self._dense_kernel(gen)) <= 1e-10

    @pytest.mark.parametrize("n", [6, 20, 40])
    def test_near_degenerate_kernel_raises(self, n):
        # the second kernel direction is a traceless population mode that
        # relaxes at ~eps; a start vector orthogonal to it would miss it
        with pytest.raises(NonUniqueSteadyState):
            steady_state(_dephased_decay(n, 1e-9))

    @pytest.mark.parametrize("n", [6, 20, 40])
    def test_slow_damping_still_finds_the_vacuum(self, n):
        ss = steady_state(_dephased_decay(n, 1e-3))
        assert trace_distance(ss, number_state(0, n)) < 1e-10

    def test_exactly_degenerate_kernel_raises(self):
        h = constant_hamiltonian(harmonic_hamiltonian(1.0, 40))
        with pytest.raises(NonUniqueSteadyState):
            steady_state(Generator(HilbertDim(40), h, jumps=()))

    def test_residual_gate_checks_with_apply(self):
        # an up rate that changes between the factorisation and the
        # independent apply() check leaves a kernel apply() rejects
        calls = iter([0.3, 0.5])
        a = annihilation(8)
        gen = Generator(
            HilbertDim(8),
            constant_hamiltonian(harmonic_hamiltonian(1.0, 8)),
            jumps=(JumpTerm(a, 1.3), JumpTerm(a.dagger(), lambda t: next(calls))),
        )
        with pytest.raises(SteadyStateResidual):
            steady_state(gen)


class TestSuperoperator:
    def test_matches_apply_on_basis(self):
        gen = squeezed_generator(1.0, 1.0, 0.4, 0.2, dim=8)
        sup = superoperator(gen)
        assert scipy.sparse.issparse(sup)
        for basis in matrix_units(8):
            direct = apply(gen, basis)
            via = (sup @ basis.reshape(-1)).reshape(8, 8)
            np.testing.assert_allclose(via, direct, atol=1e-12)


class TestConjugateGenerator:
    def test_identity_leaves_generator_alone(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=12)
        ident = squeeze_operator(0.0, 12)
        conj = conjugate_generator(gen, ident)
        for j_old, j_new in zip(gen.jumps, conj.jumps):
            np.testing.assert_allclose(j_new.operator.matrix,
                                       j_old.operator.matrix, atol=1e-14)

    def test_rejects_non_unitary(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=12)
        bad = annihilation(12)
        with pytest.raises(NotUnitary):
            conjugate_generator(gen, bad)

    def test_superoperator_identity_on_complete_basis(self):
        # U+ (L_U rho) U == L~ (U+ rho U) for every basis element
        n_dim = 20
        gen = squeezed_generator(2.0, 1.0, 0.7, 0.3, dim=n_dim)
        u = squeeze_operator(0.3, n_dim)
        um = u.matrix
        conj = conjugate_generator(gen, u)
        worst = 0.0
        for basis in matrix_units(n_dim):
            left = um.conj().T @ apply(gen, basis) @ um
            right = apply(conj, um.conj().T @ basis @ um)
            worst = max(worst, np.abs(left - right).max())
        assert worst < 1e-10

    def test_unsqueezing_the_generator_makes_it_thermal(self):
        # well inside a large space the conjugated squeezed generator acts
        # like the plain damping generator at the same occupation
        n_dim = 120
        gen = squeezed_generator(1.0, 1.0, 0.8, 0.3, dim=n_dim)
        th = thermal_generator(1.0, 1.0, nbar=0.8, dim=n_dim)
        conj = conjugate_generator(gen, squeeze_operator(0.3, n_dim))
        worst = 0.0
        for nbar, r in ((0.5, 0.1), (0.2, 0.0), (1.0, 0.2)):
            rho = squeezed_thermal_state(nbar, r, n_dim).matrix
            worst = max(worst, np.abs(apply(conj, rho) - apply(th, rho)).max())
        assert worst < 1e-9


class TestSchedules:
    def test_linear_ramp_endpoints_and_slope(self):
        sched = linear_ramp_schedule(25.0, 20.0, 100.0, dim=6)
        assert math.isclose(sched.frequency(0.0), 25.0)
        assert math.isclose(sched.frequency(100.0), 20.0)
        assert math.isclose(sched.frequency_dot(50.0), -0.05)
        np.testing.assert_allclose(np.diag(sched.evaluate(40.0)).real,
                                   23.0 * np.arange(6))
        np.testing.assert_allclose(np.diag(sched.derivative(40.0)).real,
                                   -0.05 * np.arange(6))

    def test_constant_hamiltonian_flags(self):
        sched = constant_hamiltonian(harmonic_hamiltonian(2.0, 5))
        assert sched.is_constant
        np.testing.assert_allclose(sched.derivative(3.0), np.zeros((5, 5)))

    def test_ladder_and_general_forms(self):
        h = harmonic_hamiltonian(2.0, 5)
        ladder = constant_hamiltonian(h)
        np.testing.assert_array_equal(ladder.levels, 2.0 * np.arange(5))
        np.testing.assert_array_equal(ladder.evaluate(1.0), h.matrix)
        np.testing.assert_array_equal(ladder.diagonal_derivative(1.0), np.zeros(5))
        mixed = Operator(HilbertDim(5), h.matrix + annihilation(5).matrix
                         + annihilation(5).dagger().matrix)
        general = constant_hamiltonian(mixed)
        assert general.levels is None
        np.testing.assert_array_equal(general.evaluate(1.0), mixed.matrix)
        ramp = linear_ramp_schedule(25.0, 20.0, 100.0, dim=6)
        np.testing.assert_array_equal(ramp.evaluate(40.0),
                                      np.diag(ramp.diagonal(40.0).astype(complex)))
        np.testing.assert_array_equal(ramp.diagonal_derivative(40.0),
                                      -0.05 * np.arange(6))

    def test_oscillator_schedule_requires_positive_duration(self):
        with pytest.raises(ValueError):
            linear_ramp_schedule(25.0, 20.0, 0.0, dim=6)


class TestRelaxPopulations:
    def test_matches_full_integration(self):
        n_dim = 58
        p0 = thermal_populations(2.0, n_dim)
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=n_dim)
        traj = evolve(gen, thermal_state(2.0, n_dim), 0.7, dt=2e-4)
        direct = np.diag(traj.final_state.matrix).real
        fast = relax_populations(p0, 0.5, 1.0, 0.7)
        assert np.abs(fast - direct).max() < 1e-10

    def test_fixed_point(self):
        p = thermal_populations(0.5, 40)
        out = relax_populations(p, 0.5, 1.0, 30.0)
        assert np.abs(out - p).max() < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            relax_populations(np.ones(10), 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            relax_populations(np.array([np.nan, 1.0]), 0.5, 1.0, 1.0)

    @pytest.mark.parametrize(
        "nbar, kappa, t", [(-0.2, 1.0, 1.0), (0.5, -1.0, 0.05), (0.5, 1.0, -0.05),
                           (math.nan, 1.0, 1.0)]
    )
    def test_rejects_negative_parameters(self, nbar, kappa, t):
        # each would otherwise return negative or NaN populations
        with pytest.raises(ValueError):
            relax_populations(thermal_populations(0.5, 20), nbar, kappa, t)

    def test_hot_start_into_nearly_cold_bath_reaches_its_fixed_point(self):
        # 300 levels relaxed into nbar 1e-3 for 60 damping times: the result
        # is the bath's thermal state to roundoff
        out = relax_populations(thermal_populations(2.0, 300), 1e-3, 1.0, 30.0)
        assert np.abs(out - thermal_populations(1e-3, 300)).max() < 1e-14

    @staticmethod
    def population_generator(nbar, kappa, n):
        """Truncated rate matrix of the populations under thermal damping."""
        levels = np.arange(n, dtype=float)
        down = 2.0 * kappa * (nbar + 1.0) * levels
        up = 2.0 * kappa * nbar * (levels + 1.0)
        up[-1] = 0.0  # nothing climbs past the cutoff
        return np.diag(-(down + up)) + np.diag(down[1:], 1) + np.diag(up[:-1], -1)

    @pytest.mark.parametrize("t", [1.0, 3.0, 10.0])
    def test_hot_start_matches_expm_of_the_truncated_generator(self, t):
        n = 300
        p0 = thermal_populations(9.508, n)
        m = self.population_generator(0.685, 1.0, n)
        ref = scipy.linalg.expm(m * t) @ p0
        assert np.abs(relax_populations(p0, 0.685, 1.0, t) - ref).max() < 1e-12

    @pytest.mark.parametrize(
        "nb0, nbar, n", [(30.0, 0.0, 1000), (9.508, 0.685, 300)]
    )
    def test_mean_occupation_law(self, nb0, nbar, n):
        # <n>_t = eta <n>_0 + (1 - eta) nbar with eta = exp(-2 kappa t)
        levels = np.arange(n, dtype=float)
        p0 = thermal_populations(nb0, n)
        for t in (0.1, 1.0, 3.0):
            eta = math.exp(-2.0 * t)
            want = eta * (levels @ p0) + (1.0 - eta) * nbar
            got = levels @ relax_populations(p0, nbar, 1.0, t)
            assert got == pytest.approx(want, rel=1e-12)

    def test_leak_past_the_cutoff_raises(self):
        vacuum = np.zeros(20)
        vacuum[0] = 1.0
        with pytest.raises(CutoffLeak):
            relax_populations(vacuum, 5.0, 1.0, 10.0)


class TestThermalContact:
    def test_fast_sweep_matches_dop853(self):
        # a 20 -> 1 sweep over tau = 0.1 reaches |omega_dot|/omega = 190,
        # far above 2 kappa = 2, so the step must follow the sweep
        tau, temp = 0.1, 2.0
        sched = linear_ramp_schedule(20.0, 1.0, tau, dim=20)
        gen = thermal_generator(sched, 1.0, dim=20, temperature=temp)
        n0 = bose_occupation(20.0, temp)
        with pytest.warns(SlowDriveViolation):
            got = dynamics._thermal_contact(gen, n0, tau)
        slope = -19.0 / tau

        def rhs(t, y):
            w = 20.0 + slope * t
            dn = -2.0 * (y[0] - 1.0 / math.expm1(w / temp))
            return [dn, w * dn, slope * y[0]]

        sol = solve_ivp(rhs, (0.0, tau), [n0, 0.0, 0.0], method="DOP853",
                        rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(got, sol.y[:, -1], rtol=0, atol=1e-10)


class TestRequiredCutoff:
    def test_known_values(self):
        assert required_cutoff(2.0) == 58
        assert required_cutoff(0.0, 0.4) == 40

    def test_monotone(self):
        assert required_cutoff(1.0) <= required_cutoff(2.0)
        assert required_cutoff(0.5, 0.2) <= required_cutoff(0.5, 0.6)

    def test_sized_state_fits(self):
        n = required_cutoff(2.0)
        thermal_state(2.0, n)  # must not raise
