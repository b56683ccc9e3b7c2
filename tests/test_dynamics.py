import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from squeezedbath import (
    CutoffLeak,
    DensityMatrix,
    Generator,
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
        assert sq.kind == "thermal" and sq.r is None
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

    def test_real_input_stays_real_only_under_real_interaction_generator(self):
        gen = squeezed_generator(1.0, 1.0, 0.3, 0.25, dim=30)
        rho = squeezed_thermal_state(0.3, 0.1, 30).matrix
        out = apply(gen, rho.real)
        assert not np.iscomplexobj(out)
        np.testing.assert_allclose(out, apply(gen, rho), atol=1e-14)
        assert np.iscomplexobj(apply(gen, rho))
        closed = Generator(HilbertDim(30), constant_hamiltonian(
            harmonic_hamiltonian(1.0, 30)), jumps=())
        assert np.iscomplexobj(apply(closed, rho.real))


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

    def test_trace_drift_raised_for_runaway_step(self):
        # dt far past the RK4 edge grows the stiff modes until roundoff
        # alone moves the trace past the 1e-8 gate, before positivity is read
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=10)
        with pytest.raises(TraceDrift):
            evolve(gen, coherent_state(0.5, 10), 2e4, dt=1e3, snapshot_stride=1)

    def test_non_finite_state_fails_the_trace_gate(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=10)
        with np.errstate(all="ignore"), pytest.raises(TraceDrift):
            evolve(gen, coherent_state(0.5, 10), 2e80, dt=1e80, snapshot_stride=1)

    def test_positivity_loss_raised_for_oversized_step(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=12)
        with pytest.raises(PositivityLoss):
            evolve(gen, number_state(0, 12), 3.0, dt=1.5)

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

    def test_validation_errors(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.0, dim=10)
        with pytest.raises(ValueError):
            evolve(gen, number_state(0, 12), 1.0)
        with pytest.raises(ValueError):
            evolve(gen, number_state(0, 10), -1.0)
        with pytest.raises(ValueError):
            evolve(gen, number_state(0, 10), 1.0, dt=-0.1)


class TestRepresentationOracle:
    """The real-matrix and population integrators against the complex one.

    Conjugating by U = diag(exp(i phi n)) multiplies every band-k jump
    element by exp(i phi k), so the rotated generator has complex jumps
    and runs on the complex matrix, while diagonal states and the ladder
    H(t) are left unchanged. The two runs must then agree to roundoff:
    rho(t) = U rho_tilde(t) U^dag with the same E_d and W.
    """

    PHASE = 0.7

    def _compare(self, gen, rho0, t_final, expected):
        phases = np.exp(1j * self.PHASE * np.arange(gen.dim.cutoff))
        u = Operator(gen.dim, np.diag(phases))
        rotated_gen = conjugate_generator(gen, u)
        assert isinstance(dynamics._state_representation(gen, rho0), expected)
        rotated_rep = dynamics._state_representation(rotated_gen, rho0)
        assert isinstance(rotated_rep, dynamics._MatrixState)
        assert rotated_rep.dtype is complex
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            direct = evolve(gen, rho0, t_final)
        rotated = evolve(rotated_gen, rho0, t_final)
        np.testing.assert_array_equal(direct.times, rotated.times)
        np.testing.assert_allclose(direct.dissipated_cum, rotated.dissipated_cum,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(direct.work_cum, rotated.work_cum,
                                   rtol=0, atol=1e-12)
        um = u.matrix
        for a, b in zip(direct.states, rotated.states):
            np.testing.assert_allclose(a.matrix, um @ b.matrix @ um.conj().T,
                                       rtol=0, atol=1e-12)
        return direct

    def test_squeezed_ramp_real_matrix_path(self):
        sched = linear_ramp_schedule(25.0, 20.0, 2.0, dim=40)
        gen = squeezed_generator(sched, 1.0, None, 0.2, dim=40, temperature=5.0)
        rho0 = thermal_state(bose_occupation(25.0, 5.0), 40)
        traj = self._compare(gen, rho0, 2.0, dynamics._MatrixState)
        assert dynamics._state_representation(gen, rho0).dtype is float
        assert abs(traj.dissipated_cum[-1]) > 1e-3

    def test_thermal_ramp_population_path(self):
        sched = linear_ramp_schedule(2.0, 1.5, 2.0, dim=40)
        gen = thermal_generator(sched, 1.0, dim=40, temperature=1.0)
        p = thermal_populations(0.2, 40) + 0.5 * thermal_populations(1.0, 40)
        rho0 = DensityMatrix(Operator(HilbertDim(40), np.diag(p / p.sum())))
        traj = self._compare(gen, rho0, 2.0, dynamics._PopulationState)
        assert abs(traj.dissipated_cum[-1]) > 1e-3
        assert abs(traj.work_cum[-1]) > 1e-3


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
        _u, _s, vh = scipy.linalg.svd(superoperator(gen))
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
        for basis in matrix_units(8):
            direct = apply(gen, basis)
            via = (sup @ basis.reshape(-1)).reshape(8, 8)
            np.testing.assert_allclose(via, direct, atol=1e-12)

    def test_sparse_agrees_with_dense(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.4, dim=9)
        dense = superoperator(gen)
        sparse = superoperator(gen, sparse=True).toarray()
        np.testing.assert_allclose(sparse, dense, atol=1e-14)


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
