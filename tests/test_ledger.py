import dataclasses
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
    annihilation,
    LedgerInconsistent,
    NotUnitary,
    Operator,
    SlowDriveViolation,
    Trajectory,
    accumulate_ledger,
    alt_path_energy,
    bath_invariant_state,
    bose_occupation,
    coherent_state,
    conjugate_generator,
    constant_hamiltonian,
    entropy_bound_report,
    evolve,
    firstlaw_tolerance,
    linear_ramp_schedule,
    number_operator,
    number_state,
    passive_decompose,
    passive_energy,
    passive_frame_generator,
    relative_entropy,
    sigma_nonthermal,
    sigma_series,
    squeeze_operator,
    squeezed_generator,
    squeezed_thermal_state,
    superoperator,
    thermal_generator,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)
from squeezedbath import dynamics, ledger
from squeezedbath.passivity import EIG_FLOOR

# bose_occupation(1, T) = 0.5 at this temperature
T_HALF = 1.0 / math.log(3.0)


def _driven_stroke(stride=None):
    sched = linear_ramp_schedule(25.0, 20.0, 5.0, dim=20)
    gen = thermal_generator(sched, 1.0, dim=20, temperature=5.0)
    rho0 = thermal_state(bose_occupation(25.0, 5.0), 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(gen, rho0, 5.0, snapshot_stride=stride)
    return gen, traj


def _custom_clone(gen):
    """The same jumps and schedule under the "custom" tag."""
    return Generator(
        dim=gen.dim,
        hamiltonian=gen.hamiltonian,
        jumps=gen.jumps,
        kind="custom",
        picture=gen.picture,
        kappa=gen.kappa,
        temperature=gen.temperature,
        occupation_fn=gen.occupation_fn,
    )


def _driven_squeezed_stroke(evolve_as_custom=False, r=0.2, dim=20):
    """A 25 -> 20 squeezed sweep, evolved under gen or its custom clone."""
    sched = linear_ramp_schedule(25.0, 20.0, 2.0, dim=dim)
    gen = squeezed_generator(sched, 1.0, None, r, dim=dim, temperature=5.0)
    rho0 = thermal_state(bose_occupation(25.0, 5.0), dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(_custom_clone(gen) if evolve_as_custom else gen, rho0, 2.0)
    return gen, traj


def _schroedinger_generator(n=12):
    """A custom generator whose H is not diagonal, so evolve keeps the
    commutator and the ledger takes the matrix branch of Tr[m H(t)]."""
    a = annihilation(n).matrix
    h = Operator(HilbertDim(n), 1.5 * a.conj().T @ a + 0.4 * (a + a.conj().T))
    gen = Generator(
        dim=HilbertDim(n),
        hamiltonian=constant_hamiltonian(h),
        jumps=(JumpTerm(annihilation(n), 1.2),
               JumpTerm(annihilation(n).dagger(), 0.3)),
    )
    assert gen.hamiltonian.levels is None and gen.picture == "schroedinger"
    return gen, h


class TestSigmaSeries:
    def test_telescoping_against_invariant_is_exact(self):
        gen = thermal_generator(1.0, 1.0, nbar=1.0, dim=30)
        traj = evolve(gen, thermal_state(0.5, 30), 16.0)
        inv = bath_invariant_state(gen)
        sig = sigma_series(traj, gen)
        assert sig[0] == 0.0
        ref = relative_entropy(traj.states[0], inv)
        for i in range(0, len(traj.states), max(1, len(traj.states) // 7)):
            assert sig[i] + relative_entropy(traj.states[i], inv) == pytest.approx(
                ref, abs=1e-12
            )

    def test_monotone_for_time_independent_generator(self):
        gen = thermal_generator(1.0, 1.0, nbar=1.0, dim=30)
        traj = evolve(gen, thermal_state(0.5, 30), 16.0)
        assert np.all(np.diff(sigma_series(traj, gen)) >= -1e-12)

    def test_fixed_temperature_drive_uses_clausius_form(self):
        gen, traj = _driven_stroke()
        sig = sigma_series(traj, gen)
        ds = von_neumann_entropy(traj.states[-1]) - von_neumann_entropy(
            traj.states[0]
        )
        assert sig[-1] == pytest.approx(
            ds - traj.dissipated_cum[-1] / 5.0, abs=1e-12
        )

    def test_quadrature_route_agrees_with_closed_form(self):
        # same jumps and picture, but the "custom" tag forces the
        # trapezoid fallback; both routes describe the same stroke
        gen, traj = _driven_stroke()
        sa = sigma_series(traj, gen)
        sb = sigma_series(traj, _custom_clone(gen))
        assert np.abs(sa - sb).max() < 1e-8

    def test_quadrature_invariants_are_steady_states(self, monkeypatch):
        # the route builds each term's real piece once per call, and every
        # invariant it reads is steady_state's to the bit
        gen, traj = _driven_stroke(stride=40)
        clone = _custom_clone(gen)
        seen, built = [], []
        steady_states, piece = ledger._steady_states, dynamics._real_piece

        def spy(gen, times):
            times = list(times)
            for t, inv in zip(times, steady_states(gen, times)):
                seen.append((t, inv))
                yield inv

        monkeypatch.setattr(ledger, "_steady_states", spy)
        monkeypatch.setattr(dynamics, "_real_piece",
                            lambda f, lm: built.append(lm) or piece(f, lm))
        sigma_series(traj, clone)
        # an interaction-picture clone: one term per jump, no H term
        assert [id(lm) for lm in built] == [id(j.operator.matrix) for j in clone.jumps]
        assert [t for t, _inv in seen] == traj.times.tolist()
        for t, inv in seen:
            want = dynamics.steady_state(clone, t=t).matrix
            assert inv.matrix.tobytes() == want.tobytes()

    def test_quadrature_route_rejects_a_non_hermitian_hamiltonian(self):
        # the stroke's swept schedule on a non-Hermitian M: the schedule
        # raises before the route solves for any invariant
        gen, traj = _driven_stroke(stride=40)
        m = gen.hamiltonian.matrix.copy()
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            sched = dataclasses.replace(gen.hamiltonian, matrix=m)
            sigma_series(traj, Generator(gen.dim, sched, gen.jumps, picture="schroedinger"))

    def test_driven_squeezed_stroke_reads_sigma_off_the_trajectory(self, monkeypatch):
        gen, traj = _driven_squeezed_stroke()
        assert traj.squeezed_heat_cum.shape == traj.times.shape

        def forbidden(*args, **kwargs):
            raise AssertionError("sigma_series rebuilt the invariant per snapshot")

        monkeypatch.setattr(ledger, "bath_invariant_state", forbidden)
        monkeypatch.setattr(ledger, "_log_state", forbidden)
        sig = sigma_series(traj, gen)
        assert sig[0] == 0.0
        assert np.diff(sig).min() >= -1e-12

    def test_squeezed_trajectory_without_its_heat_is_rejected(self):
        gen, traj = _driven_squeezed_stroke(evolve_as_custom=True)
        assert traj.squeezed_heat_cum is None
        with pytest.raises(ValueError, match="must come from evolve under this"):
            sigma_series(traj, gen)

    def test_zero_temperature_sweep_has_a_fixed_invariant(self):
        # bose_occupation(omega, 0) = 0 at every omega: the rates are
        # constant and sigma telescopes against the squeezed vacuum
        sched = linear_ramp_schedule(25.0, 20.0, 3.0, dim=30)
        gen = squeezed_generator(sched, 1.0, None, 0.3, dim=30, temperature=0.0)
        assert gen.occupation_fn is None and gen.nbar == 0.0
        assert not any(callable(j.rate) for j in gen.jumps)
        with pytest.warns(SlowDriveViolation):
            traj = evolve(gen, thermal_state(0.4, 30), 3.0)
        assert traj.squeezed_heat_cum is None
        sig = sigma_series(traj, gen)
        assert sig[0] == 0.0
        assert np.diff(sig).min() >= -1e-12
        # the invariant is the pure S|0>; with its null space floored at
        # EIG_FLOOR, ln rho_inv = ln(EIG_FLOOR) (1 - |psi><psi|)
        psi = np.linalg.eigh(squeezed_thermal_state(0.0, 0.3, 30).matrix)[1][:, -1]
        fid = np.array([np.vdot(psi, s.matrix @ psi).real for s in traj.states])
        s0 = von_neumann_entropy(traj.states[0])
        ds = np.array([von_neumann_entropy(s) - s0 for s in traj.states])
        np.testing.assert_allclose(sig, ds + math.log(EIG_FLOOR) * (fid[0] - fid),
                                   rtol=0, atol=1e-9)

    def test_squeezed_invariant_past_the_cutoff_raises(self):
        # at r = 0.5 the squeezed invariant puts 1.6e-4 on the top two of
        # 12 levels, although the evolved state itself stays positive
        gen, traj = _driven_squeezed_stroke(r=0.5, dim=12)
        with pytest.raises(CutoffLeak):
            sigma_series(traj, gen)

    def test_thermal_stroke_squeezed_heat_is_its_dissipated_heat(self):
        # a thermal bath is the r = 0 squeezed bath: S = 1, so Phi = E_d
        _, traj = _driven_stroke()
        np.testing.assert_allclose(traj.squeezed_heat_cum, traj.dissipated_cum,
                                   rtol=0, atol=1e-12)
        assert abs(traj.dissipated_cum[-1]) > 1e-2


class TestSpohnSigma:
    def test_zero_at_the_invariant(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.8, dim=40)
        inv = bath_invariant_state(gen)
        assert relative_entropy(inv, inv) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_pair_matches_geometric_closed_form(self):
        n1, n2 = 0.5, 1.0
        spohn = relative_entropy(thermal_state(n1, 30), thermal_state(n2, 30))
        s1 = (n1 + 1) * math.log(n1 + 1) - n1 * math.log(n1)
        closed = -s1 - (n1 * math.log(n2 / (n2 + 1)) - math.log(n2 + 1))
        # truncation tail of thermal(1.0) at 30 levels is ~1e-9
        assert spohn == pytest.approx(closed, abs=2e-9)

    def test_pure_target_diverges(self):
        assert relative_entropy(
            coherent_state(1.0, 40), number_state(0, 40)
        ) == math.inf

    def test_full_relaxation_exhausts_the_budget(self):
        gen = thermal_generator(1.0, 1.0, nbar=1.0, dim=30)
        rho0 = thermal_state(0.5, 30)
        traj = evolve(gen, rho0, 16.0)
        total = relative_entropy(rho0, bath_invariant_state(gen))
        assert sigma_series(traj, gen)[-1] == pytest.approx(total, abs=1e-8)


class TestSigmaNonthermal:
    def test_identity_frame_reduces_to_relative_entropy(self):
        rho0 = squeezed_thermal_state(0.4, 0.3, 40)
        pi = thermal_state(1.0, 40)
        eye = Operator(HilbertDim(40), np.eye(40))
        assert sigma_nonthermal(rho0, eye, pi) == relative_entropy(rho0, pi)

    def test_matched_frame_zeroes_the_production(self):
        rho0 = squeezed_thermal_state(0.4, 0.3, 40)
        assert sigma_nonthermal(
            rho0, squeeze_operator(0.3, 40), thermal_state(0.4, 40)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_against_squeezed_frame_diverges(self):
        # the rotated vacuum is not supported inside the ground target
        assert sigma_nonthermal(
            number_state(0, 40), squeeze_operator(0.4, 40), thermal_state(0.0, 40)
        ) == math.inf

    def test_rejects_nonunitary_frame(self):
        with pytest.raises(NotUnitary):
            sigma_nonthermal(
                thermal_state(0.5, 20), annihilation(20), thermal_state(0.5, 20)
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sigma_nonthermal(
                thermal_state(0.5, 20), squeeze_operator(0.1, 30), thermal_state(0.5, 20)
            )


class TestAccumulateLedger:
    def test_first_law_holds_per_snapshot(self):
        gen, traj = _driven_stroke()
        led = accumulate_ledger(traj, gen)
        resid = led.energy - led.energy[0] - (led.dissipated_cum + led.work_cum)
        assert np.abs(resid).max() < 1e-12

    def test_split_columns_are_consistent(self):
        gen, traj = _driven_stroke()
        led = accumulate_ledger(traj, gen)
        split = led.dissipated_cum - (
            led.passive_dissipated_cum + led.ergotropy_dissipated_cum
        )
        assert np.abs(split).max() == 0.0
        assert np.abs(led.ergotropy - (led.energy - led.passive_energy)).max() < 1e-12
        assert led.sigma_cum[0] == 0.0
        assert np.all(led.min_eigs > -1e-9)
        assert np.all(led.trace_errors < 1e-9)

    def test_min_eig_column_holds_the_unclipped_spectrum(self):
        # the README decay run: roundoff leaves tiny negative eigenvalues
        # that the -1e-9 gate accepts, and the column must show them
        gen = thermal_generator(10.0, 1.0, nbar=0.0, dim=40)
        traj = evolve(gen, coherent_state(1.0, 40), 4.0)
        led = accumulate_ledger(traj, gen)
        smallest = [np.linalg.eigvalsh(s.matrix)[0] for s in traj.states]
        np.testing.assert_allclose(led.min_eigs, smallest, rtol=0, atol=1e-15)
        assert led.min_eigs.min() < 0.0
        assert led.min_eigs.min() > -1e-9

    @pytest.mark.parametrize("case", ["constant", "swept", "schroedinger"])
    def test_columns_match_a_per_snapshot_reference_to_the_bit(self, case):
        # the columns are computed over blocks of snapshots at once; each
        # must equal the public per-state call, snapshot by snapshot
        if case == "constant":
            gen = squeezed_generator(10.0, 1.0, 0.2, 0.3, dim=30)
            traj = evolve(gen, coherent_state(0.6 + 0.5j, 30), 3.0)
        elif case == "swept":
            gen, traj = _driven_squeezed_stroke()
        else:
            gen, _ = _schroedinger_generator()
            traj = evolve(gen, coherent_state(0.8, 12), 1.5)
        assert len(traj.times) > 3 * ledger._BLOCK  # several blocks and seams
        led = accumulate_ledger(traj, gen)
        sched = gen.hamiltonian
        ref = {"energy": [], "passive_energy": [], "entropy": [], "min_eigs": []}
        for t, state in zip(traj.times.tolist(), traj.states):
            ref["energy"].append(sched.trace_with(state.matrix, t))
            h = Operator(gen.dim, sched.evaluate(t))
            ref["passive_energy"].append(passive_energy(state, h))
            ref["entropy"].append(von_neumann_entropy(state))
            ref["min_eigs"].append(state.min_eig)
        for name, column in ref.items():
            np.testing.assert_array_equal(getattr(led, name), column, err_msg=name)
        assert led.entropy.max() > 0.01 and led.min_eigs.min() < 0.0
        # sigma_cum from the same entropies: delta_S - Phi/T on the swept
        # bath, else telescoped with one trace per snapshot against ln rho_inv
        s = np.array(ref["entropy"])
        if case == "swept":
            sigma = (s - s[0]) - traj.squeezed_heat_cum / gen.temperature
        else:
            log_inv = ledger._log_state(bath_invariant_state(gen)).T.ravel()
            cross = np.array([np.dot(state.matrix.ravel(), log_inv).real
                              for state in traj.states])
            sigma = (s - s[0]) + (cross - cross[0])
        np.testing.assert_array_equal(led.sigma_cum, sigma)

    def test_rotated_sweep_levels_are_omega_times_the_spectrum_of_m(self):
        # a driven rotated bath: H(t) = omega(t) U^dag n U is not diagonal,
        # so the energy is Tr[rho H(t)] per snapshot and the passive levels
        # sort(omega(t) spec(M)), from one eigensolve of M, not of each H(t)
        n = 20
        gen = squeezed_generator(linear_ramp_schedule(25, 20, 2, dim=n), 1, None, 0.2,
                                 dim=n, temperature=5)
        u = squeeze_operator(0.2, n).matrix
        rotated = conjugate_generator(gen, Operator(HilbertDim(n), u))
        rho0 = squeezed_thermal_state(0.3, 0.1, n)
        start = DensityMatrix(Operator(rho0.dim, u.T @ rho0.matrix @ u))
        with pytest.warns(SlowDriveViolation):
            traj = evolve(rotated, start, 0.25, snapshot_stride=4)
        assert len(traj.times) > ledger._BLOCK  # two blocks and a seam
        led = accumulate_ledger(traj, rotated)
        sched = rotated.hamiltonian
        assert sched.levels is None and sched.frequency is not None
        times = traj.times.tolist()
        energy = [sched.trace_with(s.matrix, t) for s, t in zip(traj.states, times)]
        np.testing.assert_array_equal(led.energy, energy)
        passive = [passive_energy(s, Operator(rotated.dim, sched.evaluate(t)))
                   for s, t in zip(traj.states, times)]
        np.testing.assert_allclose(led.passive_energy, passive, rtol=0, atol=1e-12)
        assert led.ergotropy.max() > 0.1

    def test_block_seams_drop_or_repeat_no_snapshot(self):
        # prefixes ending around block boundaries give the full run's
        # columns, down to the single snapshot of a run with no interval
        gen, traj = _driven_squeezed_stroke()
        full = accumulate_ledger(traj, gen)
        b = ledger._BLOCK
        for m in (1, 2, b, b + 1, b + 2, 2 * b + 1):
            part = Trajectory(**{f.name: getattr(traj, f.name)[:m]
                                 for f in dataclasses.fields(traj)})
            led = accumulate_ledger(part, gen)
            for name in ("energy", "passive_energy", "entropy", "min_eigs",
                         "passive_dissipated_cum", "sigma_cum"):
                np.testing.assert_array_equal(getattr(led, name),
                                              getattr(full, name)[:m], err_msg=name)

    def test_schroedinger_custom_generator_matches_expm(self):
        # a non-diagonal H takes the commutator into evolve's stability
        # step and the matrix branch of Tr[m H(t)] in evolve and the ledger
        gen, h = _schroedinger_generator()
        n = gen.dim.cutoff
        rho0 = coherent_state(0.8, n)
        traj = evolve(gen, rho0, 1.5)
        prop = scipy.linalg.expm(superoperator(gen).toarray() * 1.5)
        exact = (prop @ rho0.matrix.reshape(-1)).reshape(n, n)
        np.testing.assert_allclose(traj.final_state.matrix, exact, rtol=0, atol=1e-9)
        led = accumulate_ledger(traj, gen)
        energies = [np.trace(s.matrix @ h.matrix).real for s in traj.states]
        np.testing.assert_allclose(led.energy, energies, rtol=0, atol=1e-12)
        # the commutator carries no energy, so every energy change is bath flow
        np.testing.assert_allclose(led.energy - led.energy[0], led.dissipated_cum,
                                   rtol=0, atol=1e-10)
        assert np.all(led.work_cum == 0.0)
        assert np.all(np.diff(led.sigma_cum) >= -1e-12)

    def test_cross_check_compares_the_bath_flow_with_its_midpoint_sum(self):
        # E_d against sum_k Tr[(rho_k+1 - rho_k) H(t_mid)], within
        # firstlaw_tolerance(delta E, omega(0)); the passive split plays no part
        gen, traj = _driven_stroke()
        sched, t = gen.hamiltonian, traj.times.tolist()
        midpoint = sum(sched.trace_with(b.matrix - a.matrix, 0.5 * (t0 + t1))
                       for a, b, t0, t1 in zip(traj.states, traj.states[1:], t, t[1:]))
        energy = accumulate_ledger(traj, gen).energy
        tol = firstlaw_tolerance(energy[-1] - energy[0], 25.0)
        for offset, raises in ((0.5 * tol, False), (1.5 * tol, True)):
            flow = traj.dissipated_cum.copy()
            flow[-1] = midpoint + offset
            moved = dataclasses.replace(traj, dissipated_cum=flow)
            if raises:
                with pytest.raises(LedgerInconsistent, match="midpoint sum"):
                    accumulate_ledger(moved, gen)
            else:
                accumulate_ledger(moved, gen)

    def test_sparse_snapshots_raise_inconsistency(self):
        gen, traj = _driven_stroke(stride=50)
        with pytest.raises(LedgerInconsistent):
            accumulate_ledger(traj, gen)

    def test_pure_loss_flow_is_all_ergotropy(self):
        # an amplitude-damped coherent state stays pure, so its passive
        # energy is pinned at zero and the bath drains ergotropy alone
        gen = thermal_generator(10.0, 1.0, nbar=0.0, dim=30)
        traj = evolve(gen, coherent_state(1.0, 30), 2.0)
        led = accumulate_ledger(traj, gen)
        assert np.abs(led.passive_dissipated_cum).max() < 1e-8
        assert led.ergotropy_dissipated_cum[-1] == pytest.approx(
            10.0 * (math.exp(-4.0) - 1.0), abs=1e-9
        )

    def test_state_functions_insensitive_to_step_size(self):
        gen = thermal_generator(1.0, 1.0, dim=30, temperature=T_HALF)
        rho0 = coherent_state(1.2, 30)
        out = []
        for dt in (0.01, 0.005):
            led = accumulate_ledger(evolve(gen, rho0, 3.0, dt=dt), gen)
            out.append(
                (
                    led.sigma_cum[-1],
                    led.passive_dissipated_cum[-1],
                    led.dissipated_cum[-1],
                )
            )
        for a, b in zip(*out):
            assert a == pytest.approx(b, abs=1e-8)

    def test_tolerance_scales_with_energy_and_frequency(self):
        assert firstlaw_tolerance(2.0, 10.0) == pytest.approx(1e-5)
        assert firstlaw_tolerance(-30.0, 10.0) == pytest.approx(3e-5)


class TestRealSnapshots:
    """A real start under a tagged bath gives float64 snapshots, stored as
    their two parity sectors when the start keeps parity. Every consumer
    reads them like the same snapshots re-wrapped as complex, and like
    them re-wrapped as full matrices of their own dtype, with the same
    spectra. The ledger, both sigma routes and the report agree to the
    bit; the passivity functions, which run a real eigensolver on a real
    snapshot, agree to roundoff."""

    @staticmethod
    def rewrap(traj, matrix):
        """traj with each state re-wrapped from matrix(state), stored whole."""
        states = tuple(DensityMatrix._gated(s.dim, matrix(s), s.eigenvalues)
                       for s in traj.states)
        return dataclasses.replace(traj, states=states)

    @classmethod
    def pair(cls, case):
        """gen, the report's temperature, the evolved trajectory, and its
        complex and full re-wraps."""
        gen, rho0, t_final, temperature = cls.CASES[case]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            traj = evolve(gen, rho0, t_final)
        assert all(s.matrix.dtype == np.float64 for s in traj.states[1:])
        sectors = {len(s._blocks) for s in traj.states[1:]}
        assert sectors == ({2} if case in cls.SECTOR_STORED else {1})
        return gen, temperature, traj, (cls.rewrap(traj, lambda s: s.matrix.astype(complex)),
                                        cls.rewrap(traj, lambda s: s.matrix.copy()))

    CASES = {  # (generator, start, duration, bath temperature for the report)
        "decay": lambda: (thermal_generator(10.0, 1.0, nbar=0.0, dim=20),
                          coherent_state(1.0, 20), 2.0, None),
        "squeezed relax": lambda: (squeezed_generator(10.0, 1.0, 0.0, 0.4, dim=20),
                                   thermal_state(0.0, 20), 2.0, None),
        "squeezed contact": lambda: (squeezed_generator(10.0, 1.0, 0.1, 0.2, dim=20),
                                     coherent_state(0.8, 20), 2.0, 10.0 / math.log(11.0)),
        "squeezed stroke": lambda: (
            squeezed_generator(linear_ramp_schedule(25.0, 20.0, 2.0, dim=20), 1.0,
                               None, 0.2, dim=20, temperature=5.0),
            thermal_state(bose_occupation(25.0, 5.0), 20), 2.0, 5.0),
    }
    SECTOR_STORED = {"squeezed relax", "squeezed stroke"}  # the starts that keep parity

    @pytest.mark.parametrize("case", CASES)
    def test_ledger_sigma_and_report_agree(self, case):
        gen, temperature, real, copies = self.pair(case)
        for other in copies:
            a, b = accumulate_ledger(real, gen), accumulate_ledger(other, gen)
            for field in dataclasses.fields(a):
                np.testing.assert_array_equal(getattr(a, field.name),
                                              getattr(b, field.name), err_msg=field.name)
            np.testing.assert_array_equal(sigma_series(real, gen), sigma_series(other, gen))
            if temperature is not None:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SlowDriveViolation)
                    x = entropy_bound_report(real, gen, temperature)
                    y = entropy_bound_report(other, gen, temperature)
                assert x == y

    @pytest.mark.parametrize("case", CASES)
    def test_passivity_functions_agree_to_roundoff(self, case):
        gen, _, real, copies = self.pair(case)
        h = Operator(gen.dim, gen.hamiltonian.evaluate(0.0))
        reference = thermal_state(0.5, 20)
        middle = len(real.states) // 2
        for other in copies:
            for i in (1, middle, -1):
                x, y = real.states[i], other.states[i]
                px, py = passive_decompose(x, h), passive_decompose(y, h)
                assert px.ergotropy == pytest.approx(py.ergotropy, rel=0, abs=1e-14)
                assert px.passive_energy == pytest.approx(py.passive_energy,
                                                          rel=0, abs=1e-14)
                np.testing.assert_allclose(px.passive_state.matrix,
                                           py.passive_state.matrix, rtol=0, atol=1e-14)
                assert math.isfinite(relative_entropy(x, reference))
                assert relative_entropy(x, reference) == pytest.approx(
                    relative_entropy(y, reference), rel=0, abs=1e-14)
                assert trace_distance(x, real.states[middle]) == pytest.approx(
                    trace_distance(y, other.states[middle]), rel=0, abs=1e-14)

    def test_a_drive_that_breaks_parity_mid_run_switches_storage(self):
        # H(t) = w(t) (a + a^dag) with w = 0 up to t0 = 1 and rising after:
        # the thermal start keeps parity, so the first three blocks of the
        # lab RK4 are sector-stored, and the drive then mixes the parities,
        # so the later blocks are stored whole. Either way .matrix holds the
        # route's normalised matrix and the ledger reads it like a full copy;
        # values are compared, as a stored -0.0 may come back as +0.0.
        n, t0, dt = 16, 1.0, 0.01
        a = annihilation(n)
        sched = dynamics.HamiltonianSchedule(
            dim=HilbertDim(n), matrix=a.matrix + a.matrix.conj().T,
            frequency=lambda t: 0.5 * max(t - t0, 0.0),
            frequency_dot=lambda t: 0.5 if t > t0 else 0.0)
        gen = Generator(dim=HilbertDim(n), hamiltonian=sched,
                        jumps=(JumpTerm(a, 1.3), JumpTerm(a.dagger(), 0.3)))
        rho0 = thermal_state(0.2, n)
        traj = evolve(gen, rho0, 2.0, dt=dt, snapshot_stride=1)
        blocks = 3 * dynamics._BLOCK
        assert [len(s._blocks) for s in traj.states[1:]] == [2] * blocks + [1] * (200 - blocks)
        route = [rho0.matrix]
        for _, rhos, _ in dynamics._rk4_run(gen, rho0, dt, list(range(1, 201))):
            route.extend(rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None])
        np.testing.assert_array_equal(traj.times, [step * dt for step in range(201)])
        for state, m in zip(traj.states, route, strict=True):
            assert state.matrix.dtype == np.complex128
            np.testing.assert_array_equal(state.matrix, m)
        full = self.rewrap(traj, lambda s: s.matrix.copy())
        a, b = accumulate_ledger(traj, gen), accumulate_ledger(full, gen)
        for field in dataclasses.fields(a):
            np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name),
                                          err_msg=field.name)


class TestPassiveFrame:
    def test_squeezed_bath_maps_to_plain_damping(self):
        sq = squeezed_generator(1.0, 1.0, 0.2, 0.3, dim=40)
        pf = passive_frame_generator(sq)
        assert pf.kind == "thermal"
        assert pf.nbar == 0.2
        assert pf.kappa == 1.0
        assert pf.dim.cutoff == 40
        assert trace_distance(bath_invariant_state(pf), thermal_state(0.2, 40)) < 1e-12

    def test_thermal_and_custom_pass_through(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=20)
        assert passive_frame_generator(gen) is gen


class TestAltPath:
    def test_rejects_squeezed_generator(self):
        sq = squeezed_generator(1.0, 1.0, 0.2, 0.3, dim=40)
        with pytest.raises(ValueError):
            alt_path_energy(sq, coherent_state(0.5, 40), 1.0)

    def test_flow_matches_energy_change_for_constant_h(self):
        gen = thermal_generator(1.0, 1.0, dim=30, temperature=T_HALF)
        e_alt, alt_traj = alt_path_energy(gen, coherent_state(1.2, 30), 4.0)
        h = number_operator(30).matrix
        de = float(
            np.einsum(
                "ij,ji->",
                alt_traj.final_state.matrix - alt_traj.states[0].matrix,
                h,
            ).real
        )
        assert e_alt == pytest.approx(de, abs=1e-12)

    def test_passive_start_reproduces_the_direct_path(self):
        gen = thermal_generator(1.0, 1.0, dim=30, temperature=T_HALF)
        rho0 = thermal_state(0.8, 30)
        traj = evolve(gen, rho0, 3.0)
        e_alt, _ = alt_path_energy(gen, rho0, 3.0)
        assert e_alt == float(traj.dissipated_cum[-1])


class TestEntropyBoundReport:
    @pytest.mark.parametrize(
        "r, tau, alpha",
        [
            (0.2, 2.0, None),
            (0.2, 4.0, None),
            (0.2, 10.0, None),
            (0.2, 2.0, 1.0),
            (0.0, 2.0, None),
            (0.0, 2.0, 1.0),
        ],
    )
    def test_comparison_path_matches_alt_path_energy(self, r, tau, alpha):
        # the report runs the passive-frame path as a thermal channel;
        # alt_path_energy integrates the same path on the density matrix
        sched = linear_ramp_schedule(25.0, 20.0, tau, dim=40)
        gen = squeezed_generator(sched, 1.0, None, r, dim=40, temperature=5.0)
        if alpha is None:
            rho0 = thermal_state(bose_occupation(25.0, 5.0), 40)
        else:  # a start that is not its own passive state
            rho0 = coherent_state(alpha, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            traj = evolve(gen, rho0, tau)
            rep = entropy_bound_report(traj, gen)
            e_alt, _ = alt_path_energy(passive_frame_generator(gen), rho0, tau)
        assert rep.alt_energy == pytest.approx(e_alt, rel=0, abs=1e-12)

    def test_constant_thermal_relaxation_matches_alt_path_energy(self):
        gen = thermal_generator(1.0, 1.0, dim=30, temperature=T_HALF)
        rho0 = coherent_state(1.2, 30)
        rep = entropy_bound_report(evolve(gen, rho0, 4.0), gen)
        e_alt, _ = alt_path_energy(gen, rho0, 4.0)
        assert rep.alt_energy == pytest.approx(e_alt, rel=0, abs=1e-12)

    def test_only_a_custom_bath_evolves_its_comparison_path(self, monkeypatch):
        calls = []
        for name in ("evolve", "alt_path_energy"):
            inner = getattr(ledger, name)
            monkeypatch.setattr(
                ledger, name,
                lambda *a, _f=inner, _n=name, **k: calls.append(_n) or _f(*a, **k),
            )
        sched = linear_ramp_schedule(25.0, 20.0, 1.0, dim=16)
        rho0 = coherent_state(0.5, 16)
        for r in (0.2, 0.0):
            gen = squeezed_generator(sched, 1.0, None, r, dim=16, temperature=5.0)
            clone = _custom_clone(gen)
            for bath, expected in ((gen, []), (clone, ["evolve"])):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SlowDriveViolation)
                    traj = evolve(bath, rho0, 1.0)
                    calls.clear()
                    entropy_bound_report(traj, bath)
                assert calls == expected, (r, bath.kind)

    def test_custom_report_solves_its_invariant_once(self, monkeypatch):
        # a time-independent custom bath: the report's invariant is the one
        # the telescoped sigma reads, and the comparison path starts from
        # the report's own pi_0; both match the public routes to the bit
        gen = conjugate_generator(thermal_generator(1.0, 1.0, nbar=0.3, dim=20),
                                  squeeze_operator(-0.25, 20))
        t_bath = 1.0 / math.log(1.0 + 1.0 / 0.3)
        traj = evolve(gen, coherent_state(0.6, 20), 1.0)
        solves, kernel_state = [], dynamics._kernel_state
        monkeypatch.setattr(dynamics, "_kernel_state",
                            lambda *a: solves.append(a[2]) or kernel_state(*a))
        rep = entropy_bound_report(traj, gen, t_bath)
        assert solves == [0.0]
        assert rep.alt_energy == alt_path_energy(gen, traj.states[0], 1.0)[0]
        assert rep.sigma_spohn == sigma_series(traj, gen)[-1]

    def test_driven_custom_report_solves_each_snapshot_once(self, monkeypatch):
        # the quadrature route reads the report's t = 0 invariant in place of
        # its own first solve, and sigma stays sigma_series' to the bit
        sched = linear_ramp_schedule(25.0, 24.5, 1.0, dim=16)
        clone = _custom_clone(thermal_generator(sched, 1.0, dim=16, temperature=5.0))
        rho0 = thermal_state(bose_occupation(25.0, 5.0), 16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowDriveViolation)
            traj = evolve(clone, rho0, 1.0, snapshot_stride=60)
            want = sigma_series(traj, clone)[-1]
            solves, kernel_state = [], dynamics._kernel_state
            monkeypatch.setattr(dynamics, "_kernel_state",
                                lambda *a: solves.append(a[2]) or kernel_state(*a))
            rep = entropy_bound_report(traj, clone)
        assert solves == traj.times.tolist()
        assert rep.sigma_spohn == want
        pi0 = passive_decompose(rho0, Operator(clone.dim, sched.evaluate(0.0))).passive_state
        assert rep.passive_rel_entropy == relative_entropy(pi0, dynamics.steady_state(clone))

    def test_alt_path_below_the_total_heat_is_inconsistent(self, monkeypatch):
        # on a direct thermal relaxation the comparison path from pi_0
        # dissipates at least the stroke's own heat; plant one that does not
        gen = thermal_generator(1.0, 1.0, dim=30, temperature=T_HALF)
        traj = evolve(gen, coherent_state(1.2, 30), 4.0)
        entropy_bound_report(traj, gen)
        contact, e_d = ledger._thermal_contact, float(traj.dissipated_cum[-1])

        def planted(gen, n0, t_final):
            n, _heat, work = contact(gen, n0, t_final)
            return n, e_d - 1e-3, work

        monkeypatch.setattr(ledger, "_thermal_contact", planted)
        with pytest.raises(LedgerInconsistent, match="alt-path bound"):
            entropy_bound_report(traj, gen)

    def test_relaxation_bounds_are_ordered_and_obeyed(self):
        gen = thermal_generator(1.0, 1.0, dim=30, temperature=T_HALF)
        traj = evolve(gen, coherent_state(1.2, 30), 4.0)
        rep = entropy_bound_report(traj, gen)
        assert rep.bound_alt_path >= rep.bound_total_heat
        assert rep.slack_total_heat >= -1e-9
        assert rep.slack_alt_path >= -1e-9
        # fixed-temperature bath: sigma is exactly the loose-bound slack
        assert rep.sigma_spohn == pytest.approx(rep.slack_total_heat, abs=1e-12)

    def test_alt_slack_saturates_at_passive_relative_entropy(self):
        # run to convergence: delta_S - E'/T climbs to S(pi_0 || rho_bath)
        gen = thermal_generator(1.0, 1.0, dim=30, temperature=T_HALF)
        traj = evolve(gen, coherent_state(1.2, 30), 4.0)
        rep = entropy_bound_report(traj, gen)
        assert rep.passive_rel_entropy == pytest.approx(math.log(1.5), abs=1e-12)
        assert rep.slack_alt_path == pytest.approx(rep.passive_rel_entropy, abs=1e-6)

    def test_passive_start_collapses_both_bounds(self):
        # both paths relax the same thermal start: each flow is the channel's
        # mean law omega (eta n0 + (1 - eta) N - n0), with N = 0.5 at T_HALF
        gen = thermal_generator(1.0, 1.0, dim=30, temperature=T_HALF)
        rho0 = thermal_state(0.8, 30)
        traj = evolve(gen, rho0, 3.0)
        rep = entropy_bound_report(traj, gen)
        p = np.diagonal(rho0.matrix).real
        n0 = float(p @ np.arange(30))
        eta = math.exp(-6.0)
        mean_law = eta * n0 + (1.0 - eta) * 0.5 - n0
        assert rep.dissipated == pytest.approx(mean_law, rel=0, abs=1e-12)
        assert rep.alt_energy == pytest.approx(mean_law, rel=0, abs=1e-12)
        q = np.diagonal(thermal_state(0.5, 30).matrix).real
        assert math.isfinite(rep.passive_rel_entropy)
        assert rep.passive_rel_entropy == pytest.approx(
            float(np.sum(p * np.log(p / q))), rel=0, abs=1e-12
        )

    def test_requires_a_temperature(self):
        gen = thermal_generator(1.0, 1.0, nbar=0.5, dim=20)
        traj = evolve(gen, thermal_state(0.3, 20), 1.0)
        with pytest.raises(ValueError):
            entropy_bound_report(traj, gen)

    def test_squeezed_stroke_reports_through_the_passive_frame(self):
        gen = squeezed_generator(1.0, 1.0, 0.3, 0.2, dim=40)
        t_eff = 1.0 / math.log(1.0 + 1.0 / 0.3)
        traj = evolve(gen, thermal_state(0.8, 40), 4.0)
        rep = entropy_bound_report(traj, gen, bath_temperature=t_eff)
        assert math.isfinite(rep.sigma_spohn)
        assert rep.sigma_spohn >= -1e-9
        assert rep.slack_alt_path >= -1e-9
        assert rep.alt_energy != rep.dissipated

    def test_fast_sweep_warns_once_per_stroke(self):
        # |d(omega)/dt|/omega = 0.1 to 0.125 against the 0.01 kappa threshold;
        # the comparison path replays the same schedule and must not warn again
        sched = linear_ramp_schedule(25.0, 20.0, 2.0, dim=20)
        gen = squeezed_generator(sched, 1.0, None, 0.2, dim=20, temperature=5.0)
        rho0 = thermal_state(bose_occupation(25.0, 5.0), 20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = evolve(gen, rho0, 2.0)
            entropy_bound_report(traj, gen)
        slow = [w for w in caught if issubclass(w.category, SlowDriveViolation)]
        assert len(slow) == 1
