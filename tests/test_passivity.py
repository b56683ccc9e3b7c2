import math

import numpy as np
import pytest

from squeezedbath import (
    DensityMatrix,
    Operator,
    HilbertDim,
    coherent_state,
    ergotropy,
    harmonic_hamiltonian,
    majorizes,
    number_state,
    passive_decompose,
    passive_energy,
    relative_entropy,
    squeeze_operator,
    squeezed_thermal_state,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)
from squeezedbath.passivity import EIG_FLOOR, _population_entropy


def diag_state(*populations):
    return DensityMatrix(np.diag(populations).astype(complex))


class TestPassiveDecompose:
    def test_thermal_state_is_its_own_passive(self):
        rho = thermal_state(0.7, 40)
        dec = passive_decompose(rho, harmonic_hamiltonian(1.0, 40))
        assert dec.ergotropy < 1e-12
        assert trace_distance(dec.passive_state, rho) < 1e-10

    def test_coherent_state_passive_counterpart_is_ground(self):
        omega = 2.0
        rho = coherent_state(1.0, 40)
        dec = passive_decompose(rho, harmonic_hamiltonian(omega, 40))
        assert trace_distance(dec.passive_state, number_state(0, 40)) < 1e-8
        assert math.isclose(dec.ergotropy, omega * 1.0, rel_tol=1e-9)

    def test_two_level_permutation(self):
        rho = diag_state(0.3, 0.7)
        h = Operator(HilbertDim(2), np.diag([0.0, 1.0]).astype(complex))
        dec = passive_decompose(rho, h)
        np.testing.assert_allclose(dec.passive_state.matrix,
                                   np.diag([0.7, 0.3]), atol=1e-14)
        assert math.isclose(dec.ergotropy, 0.4, abs_tol=1e-14)

    def test_extraction_unitary_realizes_the_map(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = m @ m.conj().T
        rho = DensityMatrix(Operator(HilbertDim(6), m / m.trace()))
        h = harmonic_hamiltonian(1.3, 6)
        dec = passive_decompose(rho, h)
        u = dec.extraction_unitary.matrix
        assert np.abs(u.conj().T @ u - np.eye(6)).max() < 1e-12
        moved = u @ rho.matrix @ u.conj().T
        assert np.abs(moved - dec.passive_state.matrix).max() < 1e-12

    def test_spectrum_preserved_and_energy_split(self):
        rho = squeezed_thermal_state(0.5, 0.3, 60)
        h = harmonic_hamiltonian(1.0, 60)
        dec = passive_decompose(rho, h)
        np.testing.assert_allclose(np.sort(dec.passive_state.eigenvalues),
                                   np.sort(rho.eigenvalues), atol=1e-12)
        total = dec.passive_energy + dec.ergotropy
        assert math.isclose(total, float(np.real(np.trace(rho.matrix @ h.matrix))),
                            rel_tol=1e-10)

    def test_degenerate_hamiltonian_stable(self):
        rho = diag_state(0.2, 0.5, 0.3)
        h = Operator(HilbertDim(3), np.diag([0.0, 1.0, 1.0]).astype(complex))
        dec = passive_decompose(rho, h)
        # 0.5 to the ground level; the degenerate block keeps index order
        np.testing.assert_allclose(np.diag(dec.passive_state.matrix).real,
                                   [0.5, 0.3, 0.2], atol=1e-14)
        assert math.isclose(dec.passive_energy, 0.5, abs_tol=1e-14)


class TestErgotropy:
    def test_passive_states_give_zero(self):
        h = harmonic_hamiltonian(1.0, 30)
        for rho in (thermal_state(0.4, 30), number_state(0, 30)):
            assert abs(ergotropy(rho, h)) < 1e-12

    def test_squeezed_vacuum_closed_form(self):
        omega = 1.0
        rho = squeezed_thermal_state(0.0, 0.4, 40)
        val = ergotropy(rho, harmonic_hamiltonian(omega, 40))
        assert math.isclose(val, omega * math.sinh(0.4) ** 2, rel_tol=1e-8)

    def test_bounded_by_energy_above_ground(self):
        rng = np.random.default_rng(3)
        h = harmonic_hamiltonian(1.7, 12)
        for _ in range(20):
            m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            m = m @ m.conj().T
            rho = DensityMatrix(Operator(HilbertDim(12), m / m.trace()))
            energy = float(np.real(np.trace(rho.matrix @ h.matrix)))
            w = ergotropy(rho, h)
            assert 0.0 <= w <= energy + 1e-12

    def test_minimality_against_random_unitaries(self):
        rng = np.random.default_rng(11)
        h = harmonic_hamiltonian(1.0, 10)
        m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        m = m @ m.conj().T
        rho = DensityMatrix(Operator(HilbertDim(10), m / m.trace()))
        e_pas = passive_energy(rho, h)
        for _ in range(50):
            g = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
            q, _ = np.linalg.qr(g)
            rotated = q @ rho.matrix @ q.conj().T
            energy = float(np.real(np.trace(rotated @ h.matrix)))
            assert energy >= e_pas - 1e-10


class TestNonDiagonalHamiltonian:
    def test_joint_rotation_leaves_the_passive_split_unchanged(self):
        # rotating a diagonal ladder by V makes H non-diagonal, so its
        # eigenbasis comes from eigh; rotating the state with it must
        # carry every passive quantity along
        n = 8
        rng = np.random.default_rng(11)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v = np.linalg.qr(g)[0]
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m0 = w @ w.conj().T
        rho0 = DensityMatrix(m0 / np.trace(m0).real)
        h0 = harmonic_hamiltonian(1.3, n)
        rho = DensityMatrix(v @ rho0.matrix @ v.conj().T)
        h = Operator(HilbertDim(n), v @ h0.matrix @ v.conj().T)
        assert np.abs(h.matrix - np.diag(np.diag(h.matrix))).max() > 0.1

        ref = passive_decompose(rho0, h0)
        dec = passive_decompose(rho, h)
        assert dec.passive_energy == pytest.approx(ref.passive_energy, abs=1e-12)
        assert dec.ergotropy == pytest.approx(ref.ergotropy, abs=1e-12)
        assert dec.ergotropy > 0.1
        assert passive_energy(rho, h) == pytest.approx(ref.passive_energy, abs=1e-12)
        assert ergotropy(rho, h) == pytest.approx(ref.ergotropy, abs=1e-12)
        np.testing.assert_allclose(
            dec.passive_state.matrix,
            v @ ref.passive_state.matrix @ v.conj().T, rtol=0, atol=1e-12,
        )
        u = dec.extraction_unitary.matrix
        np.testing.assert_allclose(u @ rho.matrix @ u.conj().T,
                                   dec.passive_state.matrix, rtol=0, atol=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(coherent_state(1.0, 40)) < 1e-10

    def test_maximally_mixed(self):
        d = 7
        rho = DensityMatrix(np.eye(d, dtype=complex) / d)
        assert math.isclose(von_neumann_entropy(rho), math.log(d), rel_tol=1e-12)

    def test_thermal_closed_form(self):
        # (nbar+1)ln(nbar+1) - nbar ln(nbar) at nbar=1 gives 2 ln 2
        val = von_neumann_entropy(thermal_state(1.0, 40))
        assert math.isclose(val, 2 * math.log(2), rel_tol=1e-9)

    @pytest.mark.parametrize("n", [50, 300])
    def test_a_stack_sums_each_row_as_its_own_call_to_the_bit(self, n):
        # unsorted rows, some with entries at or below EIG_FLOOR, exact
        # zeros or a NaN among their populations, and two pure states
        rng = np.random.default_rng(n)
        rows = []
        for kept in (n, n // 2, 9, 3):
            p = np.zeros(n)
            p[:kept] = rng.dirichlet(np.ones(kept))
            p[kept:] = rng.choice([0.0, 1e-16, EIG_FLOOR, -2e-16], size=n - kept)
            rows.append(rng.permutation(p))
        rows[1][rng.integers(n)] = math.nan
        rows.append(rng.permutation(np.eye(n)[0]))  # pure: -0.0 unclamped
        rows.append(rng.permutation(np.append(1.0 + 4e-16, np.zeros(n - 1))))
        stack = _population_entropy(np.array(rows))
        single = [_population_entropy(row) for row in rows]
        assert all(type(s) is float for s in single)
        assert stack.tobytes() == np.array(single).tobytes()
        assert stack.min() >= 0.0 and stack[0] > 1.0
        for s in (*stack[-2:], *single[-2:]):
            assert s == 0.0 and math.copysign(1.0, s) == 1.0
        # entries at or below the floor drop out of the sum
        above = rows[2][rows[2] > EIG_FLOOR]
        assert single[2] == pytest.approx(-float(np.sum(above * np.log(above))),
                                          rel=1e-14)


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        rho = thermal_state(0.6, 30)
        assert abs(relative_entropy(rho, rho)) < 1e-12

    def test_support_mismatch_is_infinite(self):
        assert relative_entropy(number_state(0, 5), number_state(1, 5)) == math.inf

    @pytest.mark.parametrize("n", [30, 40])
    def test_hotter_start_against_a_full_rank_thermal_state(self, n):
        # the reference's tail falls below EIG_FLOOR but is still support
        rho, sig = thermal_state(0.8, n), thermal_state(0.5, n)
        p, q = np.diagonal(rho.matrix).real, np.diagonal(sig.matrix).real
        oracle = float(np.sum(p * np.log(p / q)))
        assert relative_entropy(rho, sig) == pytest.approx(oracle, rel=0, abs=1e-12)

    def test_geometric_law_oracle(self):
        val = relative_entropy(thermal_state(0.5, 40), thermal_state(1.0, 40))
        p = np.array([(0.5 / 1.5) ** n / 1.5 for n in range(200)])
        q = np.array([(1.0 / 2.0) ** n / 2.0 for n in range(200)])
        oracle = float(np.sum(p * (np.log(p) - np.log(q))))
        assert val > 0
        assert math.isclose(val, oracle, rel_tol=1e-7)

    def test_nonnegative_and_faithful(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            a = a @ a.conj().T
            b = b @ b.conj().T
            rho = DensityMatrix(Operator(HilbertDim(6), a / a.trace()))
            sig = DensityMatrix(Operator(HilbertDim(6), b / b.trace()))
            assert relative_entropy(rho, sig) >= -1e-12
        assert relative_entropy(rho, rho) < 1e-12


class TestMajorizes:
    def test_pure_majorizes_everything(self):
        pure = number_state(2, 4)
        mixed = diag_state(0.4, 0.3, 0.2, 0.1)
        assert majorizes(pure, mixed)
        assert not majorizes(mixed, pure)

    def test_everything_majorizes_maximally_mixed(self):
        mm = DensityMatrix(np.eye(4, dtype=complex) / 4)
        assert majorizes(diag_state(0.4, 0.3, 0.2, 0.1), mm)
        assert majorizes(mm, mm)

    def test_incomparable_pair(self):
        one = diag_state(0.5, 0.5, 0.0)
        two = diag_state(0.6, 0.2, 0.2)
        assert not majorizes(one, two)
        assert not majorizes(two, one)

    def test_implies_passive_energy_and_entropy_ordering(self):
        h = harmonic_hamiltonian(1.0, 4)
        hi = diag_state(0.7, 0.2, 0.08, 0.02)
        lo = diag_state(0.4, 0.3, 0.2, 0.1)
        assert majorizes(hi, lo)
        assert passive_energy(lo, h) >= passive_energy(hi, h)
        assert von_neumann_entropy(lo) >= von_neumann_entropy(hi)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert math.isclose(trace_distance(number_state(0, 4), number_state(1, 4)),
                            1.0, rel_tol=1e-12)

    def test_metric_properties(self):
        a = thermal_state(0.3, 40)
        b = thermal_state(0.6, 40)
        c = squeezed_thermal_state(0.3, 0.2, 40)
        assert trace_distance(a, a) < 1e-12
        d_ab = trace_distance(a, b)
        assert math.isclose(d_ab, trace_distance(b, a), rel_tol=1e-12)
        assert d_ab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12


def test_every_two_argument_function_checks_dimensions():
    rho, h, sigma = number_state(1, 6), harmonic_hamiltonian(1.0, 5), number_state(1, 5)
    for call in (lambda: passive_decompose(rho, h), lambda: passive_energy(rho, h),
                 lambda: ergotropy(rho, h), lambda: relative_entropy(rho, sigma),
                 lambda: majorizes(rho, sigma), lambda: trace_distance(rho, sigma)):
        with pytest.raises(ValueError, match="^dimension mismatch"):
            call()
