import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st
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
from squeezedbath import dynamics, fock
from squeezedbath.engine import CUTOFF_FLOOR


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


def textbook_parts(gen, rho, t):
    """The terms of -i[H(t), rho] + sum_j g_j (2 L rho L^dag - {L^dag L, rho})
    (the commutator in the schroedinger picture only), read from the
    schedule and the jumps and not from the generator's term list."""
    parts = []
    if gen.picture == "schroedinger":
        h = gen.hamiltonian.evaluate(t)
        parts.append(-1j * (h @ rho - rho @ h))
    for j in gen.jumps:
        lm = j.operator.matrix
        ldl = lm.conj().T @ lm
        parts.append(j.rate_at(t) * (2.0 * lm @ rho @ lm.conj().T - ldl @ rho - rho @ ldl))
    return parts


def _closed_ladder(n):
    """H = 2 n_hat, no jumps, in the schroedinger picture."""
    return Generator(HilbertDim(n), constant_hamiltonian(harmonic_hamiltonian(2.0, n)),
                     jumps=())


def _swept_switched_on(n):
    """_swept_complex_drive's H(t) with a complex jump e^(i pi/5) a + 0.2 a^dag
    at rate 0.7 and an a^dag channel at rate 0.4 t, zero at t = 0."""
    a = annihilation(n)
    jump = Operator(HilbertDim(n), np.exp(0.2j * np.pi) * a.matrix + 0.2 * a.dagger().matrix)
    return Generator(HilbertDim(n), _swept_complex_drive(n).hamiltonian,
                     jumps=(JumpTerm(jump, 0.7), JumpTerm(a.dagger(), lambda t: 0.4 * t)))


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

    @pytest.mark.parametrize(
        "omega,temperature,match",
        [(math.nan, 1.0, "omega"), (math.inf, 1.0, "omega"),
         (1.0, math.nan, "temperature"), (1.0, math.inf, "temperature"),
         (1e-320, 1.0, "overflows"), (1e-320, 1e10, "overflows")],
    )
    def test_non_finite_input_or_occupation_is_a_value_error(
        self, omega, temperature, match
    ):
        with pytest.raises(ValueError, match=match):
            bose_occupation(omega, temperature)

    def test_a_cold_mode_is_empty_without_overflow(self):
        # exp(omega/T) overflows past 709.78; the occupation is e^-(omega/T)
        assert bose_occupation(700.0, 1.0) == pytest.approx(1.0 / math.expm1(700.0),
                                                            rel=1e-15)
        assert bose_occupation(710.0, 1.0) == math.exp(-710.0)
        assert bose_occupation(1e6, 1e-3) == 0.0


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

    @pytest.mark.parametrize("kind, r", [("thermal", 0.0), ("squeezed", 0.3)])
    def test_swept_tagged_bath_needs_a_temperature(self, kind, r):
        # sigma and the ledger divide a swept occupation's heat by T, so a
        # tagged bath without one fails at construction, not in the ledger
        h = linear_ramp_schedule(25.0, 20.0, 2.0, dim=6)
        jumps = (JumpTerm(annihilation(6), lambda t: 1.0 + 0.1 * t),)
        occupation = lambda t: 0.1 * t  # noqa: E731
        with pytest.raises(ValueError, match="occupation_fn needs a temperature"):
            Generator(HilbertDim(6), h, jumps, kind=kind, r=r, occupation_fn=occupation)
        gen = Generator(HilbertDim(6), h, jumps, kind=kind, r=r,
                        occupation_fn=occupation, temperature=5.0)
        assert gen.temperature == 5.0

    @pytest.mark.parametrize("build", BUILDERS)
    def test_tagged_bath_needs_a_ladder_schedule(self, build):
        # a swept frequency on a non-diagonal M is no ladder; it fails at
        # construction, not inside evolve
        ramp = linear_ramp_schedule(25.0, 20.0, 2.0, dim=20)
        u = squeeze_operator(0.2, 20).matrix
        general = HamiltonianSchedule(
            dim=ramp.dim, matrix=u.T @ ramp.matrix @ u,
            frequency=ramp.frequency, frequency_dot=ramp.frequency_dot,
        )
        assert general.levels is None
        with pytest.raises(ValueError, match="levels and frequency metadata"):
            build(general, 1.0, None, 20, temperature=5.0)

    def test_rotated_sweep_keeps_its_frequency(self):
        # U^dag omega(t) M U = omega(t) U^dag M U: the rotated schedule keeps
        # omega(t), so the slow-drive check sees the sweep, and by trace
        # invariance its flows from U^dag rho0 U are the unrotated clone's
        # from rho0 at the same steps
        n = 20
        gen = squeezed_generator(linear_ramp_schedule(25, 20, 2, dim=n), 1, None, 0.2,
                                 dim=n, temperature=5)
        u = squeeze_operator(0.2, n)
        rotated = conjugate_generator(gen, u)
        sched, ramp = rotated.hamiltonian, gen.hamiltonian
        assert sched.levels is None
        assert sched.frequency is ramp.frequency
        assert sched.frequency_dot is ramp.frequency_dot
        assert sched.is_constant is ramp.is_constant is False
        rho0 = squeezed_thermal_state(0.3, 0.1, n)
        um = u.matrix
        start = DensityMatrix(Operator(rho0.dim, um.conj().T @ rho0.matrix @ um))
        with pytest.warns(SlowDriveViolation):
            turned = evolve(rotated, start, 0.25, dt=2.5e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            lab = evolve(custom_clone(gen), rho0, 0.25, dt=2.5e-3)
        np.testing.assert_array_equal(turned.times, lab.times)
        assert np.abs(lab.work_cum).max() > 0.1
        np.testing.assert_allclose(turned.dissipated_cum, lab.dissipated_cum,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(turned.work_cum, lab.work_cum, rtol=0, atol=1e-12)
        np.testing.assert_allclose(um @ turned.final_state.matrix @ um.conj().T,
                                   lab.final_state.matrix, rtol=0, atol=1e-12)

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


class TestGeneratorValidation:
    def test_jump_rate_must_be_finite_and_nonnegative(self):
        for rate in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
                JumpTerm(annihilation(4), rate)

    def test_fields_are_checked(self):
        a, h = annihilation(4), constant_hamiltonian(harmonic_hamiltonian(1.0, 4))
        with pytest.raises(ValueError, match="unknown kind 'lossy'"):
            Generator(HilbertDim(4), h, jumps=(), kind="lossy")
        with pytest.raises(ValueError, match="unknown picture 'heisenberg'"):
            Generator(HilbertDim(4), h, jumps=(), picture="heisenberg")
        with pytest.raises(TypeError, match="jumps must be JumpTerm instances"):
            Generator(HilbertDim(4), h, jumps=((a, 1.0),))
        with pytest.raises(ValueError, match="jump operator dimension mismatch"):
            Generator(HilbertDim(4), h, jumps=(JumpTerm(annihilation(5), 1.0),))


class TestApply:
    def test_trace_free_on_random_states(self):
        rng = np.random.default_rng(2)
        gen = squeezed_generator(1.0, 1.0, 0.4, 0.3, dim=15)
        for _ in range(5):
            m = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
            m = m @ m.conj().T
            m /= m.trace()
            assert abs(np.trace(apply(gen, m))) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.8])
    @pytest.mark.parametrize("build", [_closed_ladder, _swept_switched_on])
    def test_closed_system_reduces_to_commutator(self, build, t):
        # and, with jumps, to the textbook form, built here from the
        # schedule and the jumps rather than from the generator's terms
        gen = build(8)
        m = np.zeros((8, 8), dtype=complex)
        m[0, 1] = m[1, 0] = 0.5
        m[0, 0] = m[1, 1] = 0.5
        want = sum(textbook_parts(gen, m, t))
        err = np.abs(apply(gen, m, t) - want).max()
        if not gen.jumps:
            assert err <= 1e-14
        assert err <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("gen,rho,t", [
        (lambda: squeezed_generator(1.0, 1.0, 0.3, 0.25, dim=40),
         lambda: squeezed_thermal_state(0.8, 0.1, 40), 0.0),
        (lambda: _swept_switched_on(20), lambda: coherent_state(0.5 + 0.7j, 20), 0.8),
    ], ids=["squeezed", "swept_switched_on"])
    def test_hermitian_flag_matches_general_path(self, gen, rho, t):
        gen, rho = gen(), rho().matrix
        np.testing.assert_allclose(apply(gen, rho, t, hermitian=True),
                                   apply(gen, rho, t), atol=1e-13)

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
            yield [marks[0]], m[None], [(0.0, 0.0, 0.0)]

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

    def test_snapshot_stride_must_be_positive(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.0, dim=10)
        with pytest.raises(ValueError, match="snapshot_stride must be >= 1"):
            evolve(gen, number_state(0, 10), 1.0, snapshot_stride=0)

    def test_jumpless_interaction_picture_takes_fifty_steps(self):
        # nothing sets a stability scale, so the step is t_final / 50
        h = constant_hamiltonian(harmonic_hamiltonian(1.0, 10))
        gen = Generator(HilbertDim(10), h, jumps=(), picture="interaction")
        rho0 = coherent_state(0.5, 10)
        traj = evolve(gen, rho0, 2.0)
        np.testing.assert_allclose(traj.times, np.arange(51) * 0.04, rtol=0, atol=1e-15)
        np.testing.assert_allclose(traj.final_state.matrix, rho0.matrix, rtol=0, atol=1e-15)


class TestBlockGate:
    """A route hands evolve its snapshots up to dynamics._BLOCK at a time,
    the lab RK4 ending a block early at a drifted trace. evolve checks a
    block's traces, gates positivity on the snapshots before the first
    drifted trace, and the first snapshot in time order that fails names
    the error; no block past it is pulled."""

    def test_gates_read_the_named_tolerances(self, monkeypatch):
        # an eigenvalue of -5e-9 fails the -TOL_PSD gate, and passes once
        # the tolerance is widened
        x = np.diag([1.0 + 5e-9, -5e-9, 0.0])[None]
        with pytest.raises(PositivityLoss, match="-5.000e-09 at t=0;"):
            dynamics._gate_block(HilbertDim(3), x.copy(), [0.0])
        monkeypatch.setattr(dynamics, "TOL_PSD", 1e-8)
        (state,) = dynamics._gate_block(HilbertDim(3), x.copy(), [0.0])
        assert state.min_eig == pytest.approx(-5e-9, rel=1e-12)
        # DRIFT_TOL: a negative one fails every trace, so the lab RK4 ends
        # a block at each step and evolve stops at the first snapshot
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.5, dim=10))
        rho0 = thermal_state(0.1, 10)

        def block_sizes():
            return [len(steps) for steps, _, _ in
                    dynamics._rk4_run(gen, rho0, 0.01, [1, 2, 3, 4, 5])]

        assert block_sizes() == [5]
        monkeypatch.setattr(dynamics, "DRIFT_TOL", -1.0)
        assert block_sizes() == [1] * 5
        with pytest.raises(TraceDrift, match=r"at t=0\.02$"):
            evolve(gen, rho0, 1.0, dt=0.02, snapshot_stride=1)

    @staticmethod
    def planted_run(plant, advanced, size=1):
        """A fake route over the marks yielding blocks of size snapshots,
        plant(j, m) for the j-th (from 0), m a valid thermal state;
        advanced records each snapshot yielded."""
        good = thermal_state(0.1, 10).matrix

        def run(gen, rho0, dt, marks):
            for start in range(0, len(marks), size):
                steps = marks[start:start + size]
                js = range(start, start + len(steps))
                advanced.extend(js)
                rhos = np.array([plant(j, good) for j in js])
                yield steps, rhos, [(0.0, 0.0, 0.0)] * len(steps)

        return run

    @staticmethod
    def planted_rk4(plant, advanced):
        """dynamics._rk4 with plant(j, y) in place of the j-th (from 0)
        state it yields; advanced records each step integrated."""
        rk4 = dynamics._rk4

        def run(*args):
            for j, (step, y, flows) in enumerate(rk4(*args)):
                advanced.append(j)
                yield step, plant(j, y), flows

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

    @pytest.mark.parametrize("j", [0, 31, 32, 33, 64])
    @pytest.mark.parametrize("first", ["positivity", "trace"])
    def test_frame_blocks_name_the_same_failure(self, monkeypatch, first, j):
        # the plants above, on a fake frame route that yields _BLOCK
        # snapshots at once: the same error at the same t, and the run stops
        # at the block that holds it
        drift = lambda m: 1.001 * m  # noqa: E731
        plant = ({j: self.negative, j + 1: drift} if first == "positivity"
                 else {j: drift, j + 1: self.negative})
        advanced, size = [], dynamics._BLOCK
        monkeypatch.setattr(dynamics, "_frame_run", self.planted_run(
            lambda i, m: plant.get(i, np.array)(m), advanced, size))
        gen = thermal_generator(1.0, 1.0, nbar=0.1, dim=10)
        t = f"{(j + 1) * 0.1:g}"
        error, message = ((PositivityLoss, rf"eigenvalue -\S+ at t={t};")
                          if first == "positivity" else
                          (TraceDrift, rf"drifted to \S+ at t={t}$"))
        with pytest.raises(error, match=message):
            evolve(gen, thermal_state(0.1, 10), 7.0, dt=0.1, snapshot_stride=1)
        assert len(advanced) == min((j // size + 1) * size, 70)

    # the real lab RK4 with a drift planted mid-block (steps 11 and 46) and
    # either side of the seam between steps 32 and 33: its block ends there
    @pytest.mark.parametrize("j", [10, 31, 32, 45])
    def test_lab_rk4_stops_at_a_drifted_trace(self, monkeypatch, j):
        advanced = []
        plant = {j: lambda m: 1.001 * m}
        monkeypatch.setattr(dynamics, "_rk4", self.planted_rk4(
            lambda i, m: plant.get(i, np.array)(m), advanced))
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.1, dim=10))
        t = f"{(j + 1) * 0.1:g}"
        with pytest.raises(TraceDrift, match=rf"drifted to 1\.001\d* at t={t}$"):
            evolve(gen, thermal_state(0.1, 10), 7.0, dt=0.1, snapshot_stride=1)
        assert advanced == list(range(j + 1))  # nothing integrated past it

    @pytest.mark.parametrize("neg, j", [(5, 10), (0, 31), (32, 33), (40, 45)])
    def test_lab_rk4_positivity_before_a_drift_in_its_block_wins(self, monkeypatch,
                                                                 neg, j):
        advanced = []
        plant = {neg: self.negative, j: lambda m: 1.001 * m}
        monkeypatch.setattr(dynamics, "_rk4", self.planted_rk4(
            lambda i, m: plant.get(i, np.array)(m), advanced))
        gen = custom_clone(thermal_generator(1.0, 1.0, nbar=0.1, dim=10))
        t = f"{(neg + 1) * 0.1:g}"
        with pytest.raises(PositivityLoss, match=rf"eigenvalue -\S+ at t={t};"):
            evolve(gen, thermal_state(0.1, 10), 7.0, dt=0.1, snapshot_stride=1)
        assert len(advanced) == j + 1  # the block ends at the drift

    @pytest.mark.parametrize("custom", [False, True])
    def test_a_snapshot_is_a_read_only_view_of_its_block(self, custom):
        gen = thermal_generator(1.0, 1.0, nbar=0.1, dim=10)
        gen = custom_clone(gen) if custom else gen
        traj = evolve(gen, coherent_state(0.5, 10), 7.0, dt=0.1, snapshot_stride=1)
        assert len(traj.states) == 71
        for state in traj.states[1:]:
            assert not state.matrix.flags.writeable
            assert not state.matrix.base.flags.writeable
        # both routes hand over blocks of _BLOCK
        blocks = {id(state.matrix.base) for state in traj.states[1:]}
        assert len(blocks) == 3

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


class TestSnapshotDtype:
    """A gated snapshot keeps the dtype its route computed: float64 for a
    real start under a tagged bath, complex128 for a complex start or a
    custom generator. states[0] is the caller's rho0 either way."""

    @staticmethod
    def run(gen, rho0, t_final=1.0, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            return evolve(gen, rho0, t_final, **kwargs)

    @staticmethod
    def squeezed_ramp(n=20):
        sched = linear_ramp_schedule(25.0, 20.0, 1.0, dim=n)
        return squeezed_generator(sched, 1.0, None, 0.2, dim=n, temperature=5.0)

    @pytest.mark.parametrize("case", ["thermal, constant", "thermal, swept", "vacuum",
                                      "coherent, constant", "coherent, swept"])
    def test_a_real_start_under_a_tagged_bath_stores_float64(self, case):
        constant = squeezed_generator(10.0, 1.0, 0.2, 0.4, dim=20)
        gen, rho0 = {
            "thermal, constant": (constant, thermal_state(0.3, 20)),
            "thermal, swept": (self.squeezed_ramp(), thermal_state(0.0067, 20)),
            "vacuum": (constant, number_state(0, 20)),
            "coherent, constant": (constant, coherent_state(0.8, 20)),
            "coherent, swept": (self.squeezed_ramp(), coherent_state(0.8, 20)),
        }[case]
        traj = self.run(gen, rho0)
        assert traj.states[0] is rho0
        assert len(traj.states) > 2
        for state in traj.states[1:]:
            assert state.matrix.dtype == np.float64
            assert not state.matrix.flags.writeable

    @pytest.mark.parametrize("custom", [False, True])
    def test_a_complex_start_or_a_custom_generator_stores_complex128(self, custom):
        gen = self.squeezed_ramp()
        rho0 = thermal_state(0.0067, 20) if custom else coherent_state(0.5 + 0.7j, 20)
        traj = self.run(custom_clone(gen) if custom else gen, rho0)
        assert traj.states[0] is rho0
        for state in traj.states[1:]:
            assert state.matrix.dtype == np.complex128
            assert not state.matrix.flags.writeable

    @pytest.mark.parametrize("custom", [False, True])
    def test_chaining_from_a_float_final_state(self, custom):
        # the lab RK4 casts the float start into its first complex stage, so
        # it matches to the bit; the frame route projects it with real
        # products (S^T rho S) where the complex copy takes complex ones, so
        # the two agree to roundoff. trace_errors[0] is the start's own.
        gen = self.squeezed_ramp()
        mid = self.run(gen, coherent_state(0.8, 20), 0.5).final_state
        assert mid.matrix.dtype == np.float64
        rebuilt = DensityMatrix(Operator(gen.dim, mid.matrix))
        assert rebuilt.matrix.dtype == np.complex128
        gen, tol = (custom_clone(gen), 0.0) if custom else (gen, 1e-14)
        a, b = self.run(gen, mid, 0.5), self.run(gen, rebuilt, 0.5)
        assert len(a.states) == len(b.states) > 2
        np.testing.assert_array_equal(a.times, b.times)
        for x, y in zip(a.states[1:], b.states[1:]):
            assert x.matrix.dtype == y.matrix.dtype
            np.testing.assert_allclose(x.matrix, y.matrix, rtol=0, atol=tol)
            np.testing.assert_allclose(x.eigenvalues, y.eigenvalues, rtol=0, atol=tol)
        flows = ("dissipated_cum", "work_cum") + (() if custom else ("squeezed_heat_cum",))
        for name in flows:
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=0, atol=tol)
        np.testing.assert_allclose(a.trace_errors[1:], b.trace_errors[1:],
                                   rtol=0, atol=tol)

    @staticmethod
    def held_bytes(traj):
        """Bytes of the distinct buffers that store the snapshots past rho0."""
        buffers = {}
        for state in traj.states[1:]:
            for block in state._blocks:
                owner = block if block.base is None else block.base
                buffers[id(owner)] = owner.nbytes
        return sum(buffers.values())

    def test_a_real_trajectory_stores_eight_bytes_an_entry(self):
        # memory guard: squeezed-relax at stride 1 keeps parity, so each
        # snapshot holds its two 20 x 20 float64 parity sectors and nothing
        # of the zeros between them
        gen = squeezed_generator(10.0, 1.0, 0.0, 0.4, dim=40)
        traj = evolve(gen, thermal_state(0.0, 40), 1.0, snapshot_stride=1)
        assert len(traj.states) > 500
        assert self.held_bytes(traj) == (len(traj.states) - 1) * 2 * 20 * 20 * 8

    def test_a_coherent_trajectory_stores_its_whole_matrix(self):
        # a coherent start mixes parities, so each snapshot holds all n^2
        gen = squeezed_generator(10.0, 1.0, 0.0, 0.4, dim=40)
        traj = evolve(gen, coherent_state(0.8, 40), 1.0, snapshot_stride=1)
        assert len(traj.states) > 500
        assert self.held_bytes(traj) == (len(traj.states) - 1) * 40 * 40 * 8


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


def scipy_bordered_expm(blocks):
    """scipy.linalg.expm of bordered blocks [[A, c], [0, 0]], with c scaled
    down to A's 1-norm before and back after (exp is linear in c). Left at
    full size, c raises scipy's squaring count: its E_d weights then drift
    by up to 1e-8 at an interval of 1e3, and turn NaN at the interval cap."""
    n = blocks.shape[-1] - 1
    x = blocks.copy()
    inner = np.abs(x[:, :n, :n]).sum(axis=1).max(axis=1)
    col = np.abs(x[:, :n, n]).sum(axis=1)
    scale = np.where(col > inner, inner / np.where(col > 0, col, 1.0), 1.0)
    x[:, :n, n] *= scale[:, None]
    e = scipy.linalg.expm(x)
    e[:, :n, n] /= scale[:, None]
    return e


class TestBandChannelOracle:
    """_band_channel's tables, the band propagators and E_d weights, against
    the same bordered blocks exponentiated by scipy.linalg.expm up to an
    interval of 30, and against the fully relaxed channel in closed form at
    1e3 and at the interval cap, where every decaying mode has underflowed.

    Measured worst cases on this grid: propagators 8.2e-15 from scipy's,
    weights 4.3e-14 of the largest |weight|, band-0 column sums 1.3e-14
    from 1 at cutoff 60 and 9.3e-15 up to cutoff 40; the relaxed
    channel's propagators exact and its weights 1.5e-14.
    """

    GRID = [(n, nbar, r) for n in (2, 3, 10, 40, 60)
            for nbar in (0.0, 0.3, 2.0) for r in (0.0, 0.4)]
    SHORT = (1e-4, 1e-3, 1e-2, 0.25, 1.0, 5.0, 30.0)
    LONG = (1e3, 1e30)  # 1e30 is past the cap, 1e20 over the largest rate

    @staticmethod
    def tables(n, nbar, r, interval):
        if r:
            gen = squeezed_generator(10.0, 1.0, nbar, r, dim=n)
        else:
            gen = thermal_generator(10.0, 1.0, nbar=nbar, dim=n)
        s = fock._squeeze_matrix(gen.r, n)
        prop, weights = dynamics._band_channel(gen, s, interval, np.arange(n))
        return gen, s, prop, weights

    @pytest.mark.parametrize("n, nbar, r", GRID)
    def test_matches_scipy_expm_of_the_same_blocks(self, n, nbar, r, monkeypatch):
        ours = [self.tables(n, nbar, r, t)[2:] for t in self.SHORT]
        monkeypatch.setattr(dynamics, "_expm_bordered", scipy_bordered_expm)
        for t, (prop, weights) in zip(self.SHORT, ours):
            ref_prop, ref_weights = self.tables(n, nbar, r, t)[2:]
            np.testing.assert_allclose(prop, ref_prop, rtol=0, atol=2e-14, err_msg=t)
            np.testing.assert_allclose(weights, ref_weights, rtol=0,
                                       atol=1e-13 * np.abs(ref_weights).max(),
                                       err_msg=t)

    @pytest.mark.parametrize("n, nbar, r", GRID)
    def test_relaxed_channel_in_closed_form(self, n, nbar, r):
        # band 0 maps every start to the stationary p, the other bands to
        # zero; so E_d = h.(p - x_0) - 2 h_k.x_k, h_k the band-k entries of
        # S^T H S
        for t in self.LONG:
            gen, s, prop, weights = self.tables(n, nbar, r, t)
            q = gen.nbar / (gen.nbar + 1.0)
            p = q ** np.arange(n)
            p /= p.sum()
            h = (s.T * gen.hamiltonian.diagonal(0.0)) @ s
            for k in range(n):
                rows = n - k  # entries past them are padding
                if k == 0:
                    np.testing.assert_allclose(prop[0], np.outer(p, np.ones(n)),
                                               rtol=0, atol=1e-15)
                    expected = p @ np.diagonal(h) - np.diagonal(h)
                else:
                    np.testing.assert_allclose(prop[k, :rows, :rows], 0.0,
                                               rtol=0, atol=1e-15)
                    expected = -2.0 * np.diagonal(h, -k)
                np.testing.assert_allclose(
                    weights[k, :rows], expected, rtol=0,
                    atol=3e-14 * np.abs(weights).max(), err_msg=(t, k))

    @pytest.mark.parametrize("n, nbar, r", GRID)
    def test_band_zero_keeps_the_trace(self, n, nbar, r):
        bound = 1e-14 if n <= 40 else 2e-14
        for t in self.SHORT + self.LONG:
            prop = self.tables(n, nbar, r, t)[2]
            assert np.abs(prop[0].sum(axis=0) - 1.0).max() <= bound, t

    @pytest.mark.parametrize("n", [10, 40])
    def test_runaway_steps_at_a_large_frequency(self, n):
        # omega = 10: scipy's expm of these blocks turned NaN at the cap
        gen = thermal_generator(10.0, 1.0, nbar=0.3, dim=n)
        rho0 = coherent_state(0.5, n)
        with np.errstate(over="raise", invalid="raise"):
            traj = evolve(gen, rho0, 2e30, dt=1e30, snapshot_stride=1)
        steady = steady_state(gen)
        h = gen.hamiltonian.diagonal(0.0)
        de = float((np.diagonal(steady.matrix - rho0.matrix).real * h).sum())
        for state, e_d in zip(traj.states[1:], traj.dissipated_cum[1:]):
            assert trace_distance(state, steady) < 1e-12
            assert e_d == pytest.approx(de, rel=0, abs=1e-12)


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

    def test_kernel_vector_above_the_residual_gate_raises(self, monkeypatch):
        # no solve is exact, so with RESIDUAL_TOL at 0.0 the kernel check
        # answers before the gap and the final residual are read
        monkeypatch.setattr(dynamics, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NonUniqueSteadyState, match="no kernel vector"):
            steady_state(thermal_generator(1.0, 1.0, nbar=0.5, dim=8))

    def test_residual_is_small(self):
        gen = squeezed_generator(1.0, 1.0, 0.3, 0.2, dim=50)
        ss = steady_state(gen)
        assert np.abs(apply(gen, ss)).max() < 1e-10

    def test_steady_state_peak_memory_stays_under_the_build(self):
        # TestSuperoperator's memory input at cutoff 40, whose complex
        # superoperator alone peaks at 56.3 MB: steady_state never forms it.
        # The real matrix R is folded from one real piece per jump (6.1 MB
        # each) built _PIECE_LEVELS levels at a time, and the peak, 24.5 MB,
        # is the second piece's add: the old sum, the scaled piece and the
        # new sum's buffer, which scipy sizes for both. SuperLU's factors
        # are not traced: they show in RSS only
        gen = conjugate_generator(
            thermal_generator(1, 1, nbar=0.3, dim=40), squeeze_operator(-0.5, 40)
        )
        steady_state(gen)  # warm scipy's paths
        tracemalloc.start()
        try:
            steady_state(gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 24.5e6


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


def _complex_drive(n):
    """Custom generator with complex H and a complex jump: a drive
    0.3i(a - a^dag) and loss through e^(i pi/5) a + 0.2 a^dag, whose
    relative phase (unlike a global one) reaches the dissipator."""
    a = annihilation(n)
    am, ad = a.matrix, a.dagger().matrix
    h = ad @ am + 0.3j * (am - ad)
    jump = Operator(HilbertDim(n), np.exp(0.2j * np.pi) * am + 0.2 * ad)
    return Generator(
        HilbertDim(n),
        constant_hamiltonian(Operator(HilbertDim(n), h)),
        jumps=(JumpTerm(jump, 1.3), JumpTerm(a.dagger(), 0.3)),
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
    @pytest.mark.parametrize("build", [_rotated_thermal, _driven_schroedinger,
                                       _complex_drive])
    def test_matches_dense_null_vector(self, build, n):
        gen = build(n)
        assert trace_distance(steady_state(gen), self._dense_kernel(gen)) <= 1e-10

    @pytest.mark.parametrize("n", [6, 12])
    @pytest.mark.parametrize("build", [_rotated_thermal, _driven_schroedinger])
    def test_gap_gate_reads_the_dense_second_singular_value(self, monkeypatch, build, n):
        # sigma_2 of the complex superoperator, independent of the basis
        # the solve works in; the gate sits on it to 1e-3 either way
        gen = build(n)
        sigma_2 = scipy.linalg.svdvals(superoperator(gen).toarray())[-2]
        monkeypatch.setattr(dynamics, "GAP_TOL", sigma_2 * (1 + 1e-3))
        with pytest.raises(NonUniqueSteadyState, match="not isolated"):
            steady_state(gen)
        monkeypatch.setattr(dynamics, "GAP_TOL", sigma_2 * (1 - 1e-3))
        steady_state(gen)

    def test_non_hermitian_hamiltonian_is_a_value_error(self):
        # such an H breaks the real form R, and evolve would only report a
        # PositivityLoss (at t = 0.0089) whose remedy does not apply; the
        # schedule rejects it before either route runs
        n = 8
        rng = np.random.default_rng(3)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for run in (steady_state, lambda gen: evolve(gen, thermal_state(0.3, n), 0.05)):
            with pytest.raises(ValueError, match="does not preserve Hermiticity"):
                sched = constant_hamiltonian(Operator(HilbertDim(n), h))
                run(Generator(HilbertDim(n), sched, jumps=(JumpTerm(annihilation(n), 1.0),)))

    def test_hermiticity_gate_is_relative_to_the_matrix_scale(self):
        # roundoff of a rotated M passes; 1e-12 above the scale fails
        m = np.diag(np.arange(6.0)) * 1e3
        m[0, 1] = 1e-10
        HamiltonianSchedule(HilbertDim(6), m)
        m[0, 1] = 1e-8
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            HamiltonianSchedule(HilbertDim(6), m)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_hermitian_basis_is_unitary_and_real_on_hermitian_states(self, n):
        u = dynamics._hermitian_basis(n)
        assert np.abs((u.conj().T @ u).toarray() - np.eye(n * n)).max() <= 1e-15
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g + g.conj().T
        coords = u.conj().T @ rho.reshape(-1)
        assert np.abs(coords.imag).max() <= 1e-15
        np.testing.assert_allclose((u @ coords.real).reshape(n, n), rho, atol=1e-14)

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


def _swept_complex_drive(n):
    """Custom schroedinger-picture generator under H(t) = omega(t) M, a
    complex M under a linear sweep of omega."""
    a = annihilation(n)
    am, ad = a.matrix, a.dagger().matrix
    m = ad @ am + 0.3j * (am - ad) + 0.2 * (am @ am + ad @ ad)
    sched = HamiltonianSchedule(HilbertDim(n), m, frequency=lambda t: 2.0 - 0.5 * t,
                                frequency_dot=lambda t: -0.5)
    return Generator(HilbertDim(n), sched, jumps=(JumpTerm(a, 0.7),))


def _switched_on(n):
    """Damping plus an a^dag channel whose rate 0.4 t is zero at t = 0."""
    a = annihilation(n)
    return Generator(
        HilbertDim(n),
        constant_hamiltonian(harmonic_hamiltonian(1.0, n)),
        jumps=(JumpTerm(a, 1.0), JumpTerm(a.dagger(), lambda t: 0.4 * t)),
    )


class TestRealPieces:
    """The real matrix steady_state solves, folded from real per-jump
    pieces, against U^H L U of the complex superoperator."""

    @pytest.mark.parametrize("t", [0.0, 0.8])
    @pytest.mark.parametrize("n", [2, 7, 12])
    @pytest.mark.parametrize("build", [_rotated_thermal, _swept_complex_drive,
                                       _complex_drive, _switched_on])
    def test_matches_the_rotated_superoperator(self, build, n, t):
        gen = build(n)
        u = dynamics._hermitian_basis(n).toarray()
        want = u.conj().T @ superoperator(gen, t).toarray() @ u
        got = dynamics._fold(gen, t, dynamics._pieces(gen, dynamics._real_piece)).toarray()
        scale = np.abs(want).max()
        assert np.abs(want.imag).max() <= 1e-13 * scale
        assert np.abs(got - want.real).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_piece_matches_the_dense_kron(self, n):
        # rho -> F rho + rho F^dag + 2 L rho L^dag preserves Hermiticity for
        # any F and L, and _real_piece takes a single level, which no
        # Generator has
        rng = np.random.default_rng(n)
        f, lm = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                 for _ in range(2))
        eye = np.eye(n)
        k = np.kron(f, eye) + np.kron(eye, f.conj()) + 2.0 * np.kron(lm, lm.conj())
        u = dynamics._hermitian_basis(n).toarray()
        want = u.conj().T @ k @ u
        got = dynamics._real_piece(f, lm).toarray()
        assert np.abs(got - want.real).max() <= 1e-13 * np.abs(want).max()


def _squeezed_bath(n):
    return squeezed_generator(1.0, 1.0, 0.4, 0.2, dim=n)


class TestSuperoperator:
    @pytest.mark.parametrize("t", [0.0, 0.8])
    @pytest.mark.parametrize("build", [_squeezed_bath, _rotated_thermal, _swept_complex_drive,
                                       _complex_drive, _switched_on])
    def test_matches_apply_on_basis(self, build, t):
        gen = build(8)
        sup = superoperator(gen, t)
        assert scipy.sparse.issparse(sup)
        for basis in matrix_units(8):
            direct = apply(gen, basis, t)
            via = (sup @ basis.reshape(-1)).reshape(8, 8)
            np.testing.assert_allclose(via, direct, atol=1e-12)

    def test_builds_one_piece_per_jump_with_a_nonzero_rate(self, monkeypatch):
        a = annihilation(6)
        gen = Generator(
            HilbertDim(6),
            constant_hamiltonian(harmonic_hamiltonian(1.0, 6)),
            jumps=(JumpTerm(a, 1.0), JumpTerm(a.dagger(), lambda t: t)),
        )
        # terms: -i[H, .] (weight 1), then a and a^dag by rate
        index = {id(f): k for k, (_weight, f, _lm) in enumerate(gen._terms)}
        built = []
        piece = dynamics._complex_piece
        monkeypatch.setattr(dynamics, "_complex_piece",
                            lambda f, lm: built.append(index[id(f)]) or piece(f, lm))
        superoperator(gen, t=0.0)
        assert built == [0, 1]  # the a^dag rate is zero at t = 0
        superoperator(gen, t=0.5)
        assert built == [0, 1, 0, 1, 2]

    def test_peak_memory_holds_one_piece_at_a_time(self):
        # at cutoff 40 the result is a 702,400-entry CSR (13.4 MB) and one
        # piece's kron chain peaks at 56.3 MB; a fold that kept the last
        # piece alive while building the next would reach about 70 MB
        gen = conjugate_generator(
            thermal_generator(1, 1, nbar=0.3, dim=40), squeeze_operator(-0.5, 40)
        )
        superoperator(gen)  # warm scipy's paths
        tracemalloc.start()
        try:
            superoperator(gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 56.3e6

    def test_result_owns_no_oversized_buffer(self):
        # scipy's sparse add can keep a sum's entries in buffers up to twice
        # their size, which steady_state would hold through its solve
        gen = _rotated_thermal(20)
        sup = superoperator(gen)
        for part in (sup.data, sup.indices):
            root = part
            while root.base is not None:
                root = root.base
            assert root.nbytes == part.nbytes


@st.composite
def small_generators(draw):
    """(generator, t, X): n from 2 to 6, a Hermitian M with or without a
    linear omega(t), 0 to 3 complex jumps at constant or linear rates,
    either picture, t in [0, 2] and a complex (not Hermitian) X."""
    n = draw(st.integers(2, 6))
    unit = st.floats(-1.0, 1.0)

    def matrix():
        return np.array(draw(st.lists(unit, min_size=2 * n * n, max_size=2 * n * n))
                        ).view(complex).reshape(n, n)

    a = matrix()
    m = a + a.conj().T
    if draw(st.booleans()):
        w0, w1 = draw(unit), draw(unit)
        sched = HamiltonianSchedule(HilbertDim(n), m, frequency=lambda t: w0 + w1 * t,
                                    frequency_dot=lambda t: w1)
    else:
        sched = HamiltonianSchedule(HilbertDim(n), m)
    jumps = []
    for _ in range(draw(st.integers(0, 3))):
        g0, g1 = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 1.0))
        rate = draw(st.sampled_from([g0, lambda t: g0 + g1 * t]))
        jumps.append(JumpTerm(Operator(HilbertDim(n), matrix()), rate))
    picture = draw(st.sampled_from(["schroedinger", "interaction"]))
    gen = Generator(HilbertDim(n), sched, jumps=tuple(jumps), picture=picture)
    return gen, draw(st.floats(0.0, 2.0)), matrix()


class TestTermListProperties:
    """apply, superoperator and the real fold on random small generators,
    against the textbook form, which reads no term list, and each other."""

    @settings(derandomize=True, database=None, deadline=None)
    @given(small_generators())
    def test_the_three_readers_agree(self, case):
        gen, t, x = case
        n = gen.dim.cutoff
        parts = textbook_parts(gen, x, t)
        # each check is to 1e-13 of the sum of the terms' largest entries
        scale = sum(np.abs(p).max() for p in parts)
        got = apply(gen, x, t)
        assert np.abs(got - sum(parts, np.zeros((n, n)))).max() <= 1e-13 * scale
        sup = superoperator(gen, t).toarray()
        assert np.abs((sup @ x.reshape(-1)).reshape(n, n) - got).max() <= 1e-13 * scale
        u = dynamics._hermitian_basis(n).toarray()
        want = u.conj().T @ sup @ u
        real = dynamics._fold(gen, t, dynamics._pieces(gen, dynamics._real_piece)).toarray()
        tol = 1e-13 * np.abs(want).max()
        assert np.abs(want.imag).max() <= tol
        assert np.abs(real - want.real).max() <= tol


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

    def test_rejects_dimension_mismatch(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=12)
        with pytest.raises(ValueError, match="^dimension mismatch"):
            conjugate_generator(gen, squeeze_operator(0.0, 10))

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
        np.testing.assert_array_equal(ladder.derivative(1.0), np.zeros((5, 5)))
        mixed = Operator(HilbertDim(5), h.matrix + annihilation(5).matrix
                         + annihilation(5).dagger().matrix)
        general = constant_hamiltonian(mixed)
        assert general.levels is None
        np.testing.assert_array_equal(general.evaluate(1.0), mixed.matrix)
        ramp = linear_ramp_schedule(25.0, 20.0, 100.0, dim=6)
        np.testing.assert_array_equal(ramp.evaluate(40.0),
                                      np.diag(ramp.diagonal(40.0).astype(complex)))
        np.testing.assert_array_equal(ramp.derivative(40.0),
                                      np.diag(-0.05 * np.arange(6)))

    def test_matrix_is_validated_and_frequency_comes_with_its_derivative(self):
        m = harmonic_hamiltonian(1.0, 5).matrix
        with pytest.raises(ValueError, match="expected shape"):
            HamiltonianSchedule(HilbertDim(5), m[:4, :4])
        with pytest.raises(ValueError, match="finite"):
            HamiltonianSchedule(HilbertDim(5), np.full((5, 5), np.nan))
        with pytest.raises(ValueError, match="together"):
            HamiltonianSchedule(HilbertDim(5), m, frequency=lambda t: 1.0)

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

    @pytest.mark.parametrize("p0", [[1.5, -0.5], [np.inf, 0.0], [0.5, np.nan, 0.5]])
    def test_rejects_negative_or_non_finite_entries(self, p0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            relax_populations(np.array(p0), 0.5, 1.0, 1.0)


def pascal_table(x, size):
    """c[k, m] = C(k, m) x^m (1-x)^(k-m), row by row (Pascal's rule)."""
    c = np.zeros((size, size))
    c[0, 0] = 1.0
    for k in range(size - 1):
        row = c[k, : k + 1]
        np.multiply(row, 1.0 - x, out=c[k + 1, : k + 1])
        c[k + 1, 1 : k + 2] += x * row
    return c


def table_channel(p0, nbar, kappa, t):
    """relax_populations' loss-then-amplifier on whole n x n tables, before
    renormalising: (populations, leak)."""
    eta = math.exp(-2.0 * kappa * t)
    gain = 1.0 + (1.0 - eta) * nbar
    lost = pascal_table(eta / gain, p0.size).T @ p0
    out = pascal_table(1.0 / gain, p0.size) @ lost / gain
    return out, 1.0 - out.sum()


class TestChunkedChannel:
    """relax_populations applies its two binomial tables chunk by chunk;
    above one chunk of C levels it must still agree with the whole-table
    products, and at most one chunk it must be them."""

    C = dynamics._PASCAL_CHUNK
    SIZES = [C - 1, C, C + 1, 2 * C + 1, 640, 1740]

    @staticmethod
    def assert_agrees(got, want, exact):
        if exact:
            assert got.tobytes() == want.tobytes()
        big = want > 1e-250
        assert np.abs(got - want).max() <= 1e-15
        assert (np.abs(got - want)[big] / want[big]).max() <= 1e-13

    @pytest.mark.parametrize("n", SIZES)
    def test_hot_start_into_a_warm_bath(self, n):
        p0 = thermal_populations(n / 25.0, n)
        want, _leak = table_channel(p0, n / 30.0, 1.0, 0.3)
        got = relax_populations(p0, n / 30.0, 1.0, 0.3)
        self.assert_agrees(got, want / want.sum(), n <= self.C)

    @pytest.mark.parametrize("n", SIZES)
    def test_pure_loss_of_a_spread_start(self, n):
        # every level occupied: thinning from the top chunk down, and an
        # amplifier of gain 1 that must hand each level back unchanged
        p0 = np.random.default_rng(n).random(n)
        p0 /= p0.sum()
        want, _leak = table_channel(p0, 0.0, 1.0, 0.05)
        got = relax_populations(p0, 0.0, 1.0, 0.05)
        self.assert_agrees(got, want / want.sum(), n <= self.C)

    def test_a_leak_above_one_chunk_raises_and_matches_the_tables(self):
        n, nbar, t = 2 * self.C + 1, 20.0, 10.0
        p0 = thermal_populations(3.0, n)
        _want, leak = table_channel(p0, nbar, 1.0, t)
        eta = math.exp(-2.0 * t)
        gain = 1.0 + (1.0 - eta) * nbar
        out = dynamics._spread(dynamics._thin(p0, eta / gain), 1.0 / gain) / gain
        assert leak > 1e-3
        assert abs((1.0 - out.sum()) - leak) <= 1e-15
        with pytest.raises(CutoffLeak, match=f"leaks {leak:.3e} past cutoff {n}"):
            relax_populations(p0, nbar, 1.0, t)

    def test_no_n_by_n_table_is_formed(self):
        # one 1,740 x 1,740 float table alone is 24 MB
        p0 = thermal_populations(60.0, 1740)
        relax_populations(p0, 0.5, 1.0, 0.3)  # warm numpy's paths
        tracemalloc.start()
        try:
            relax_populations(p0, 0.5, 1.0, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


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
        assert required_cutoff(0.0) == CUTOFF_FLOOR  # lam = 0: the floor itself

    def test_rejects_negative_occupation_and_reports_no_convergence(self):
        with pytest.raises(ValueError, match="nbar must be nonnegative"):
            required_cutoff(-1.0)
        # lam = 1 - 1e-6: the tail bound still exceeds the tolerance at 1e5
        with pytest.raises(ValueError, match="cutoff search did not converge"):
            required_cutoff(1e6)
        # lam = 1 - 1.9e-13: the bound is still rising at the floor, where
        # it reads 1.5e-11, below the tolerance
        with pytest.raises(ValueError, match="cutoff search did not converge"):
            required_cutoff(0.0, 15.0)
        # e^(2r) overflows: no cutoff holds the state
        with pytest.raises(CutoffLeak, match="overflows"):
            required_cutoff(0.0, 360.0)

    @pytest.mark.parametrize(
        "nbar,r", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf)]
    )
    def test_non_finite_input_is_a_value_error(self, nbar, r):
        # a NaN tail bound never exceeds the tolerance, so the search
        # would stop at the floor
        with pytest.raises(ValueError, match="must be nonnegative and finite|r must be finite"):
            required_cutoff(nbar, r)

    def test_monotone(self):
        assert required_cutoff(1.0) <= required_cutoff(2.0)
        assert required_cutoff(0.5, 0.2) <= required_cutoff(0.5, 0.6)

    def test_sized_state_fits(self):
        n = required_cutoff(2.0)
        thermal_state(2.0, n)  # must not raise
