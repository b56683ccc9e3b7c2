import math

import numpy as np
import pytest
import scipy.linalg

from squeezedbath import (
    CutoffLeak,
    DensityMatrix,
    HilbertDim,
    NotUnitary,
    Operator,
    annihilation,
    coherent_state,
    harmonic_hamiltonian,
    number_operator,
    number_state,
    real_expectation,
    squeeze_operator,
    required_cutoff,
    squeezed_thermal_populations,
    squeezed_thermal_state,
    thermal_populations,
    thermal_state,
    von_neumann_entropy,
)
from squeezedbath import fock
from squeezedbath.fock import _squeeze_matrix


def test_hilbert_dim_validation():
    assert HilbertDim(2).cutoff == 2
    with pytest.raises(ValueError):
        HilbertDim(1)
    with pytest.raises(TypeError):
        HilbertDim(2.5)
    with pytest.raises(TypeError):
        HilbertDim(True)


def test_operator_shape_and_finiteness():
    with pytest.raises(ValueError):
        Operator(HilbertDim(3), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Operator(HilbertDim(2), np.array([[np.inf, 0], [0, 0]]))


def test_mismatched_dimensions_are_rejected():
    with pytest.raises(ValueError, match="^dimension mismatch"):
        annihilation(3) @ annihilation(4)
    with pytest.raises(ValueError, match="nbar must be nonnegative"):
        thermal_populations(-1.0, 10)


def test_operator_matrix_is_read_only():
    a = annihilation(4)
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 1.0


def test_annihilation_smallest_size():
    a = annihilation(2)
    np.testing.assert_array_equal(a.matrix, [[0, 1], [0, 0]])


def test_number_operator_diagonal():
    n = number_operator(4)
    np.testing.assert_array_equal(n.matrix, np.diag([0.0, 1.0, 2.0, 3.0]))
    a = annihilation(4)
    np.testing.assert_allclose((a.dagger() @ a).matrix, n.matrix, atol=1e-15)


def test_commutator_identity_with_truncation_corner():
    dim = 7
    a = annihilation(dim).matrix
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(dim)
    expected[-1, -1] = 1 - dim
    np.testing.assert_allclose(comm, expected, atol=1e-13)


def test_harmonic_hamiltonian_scales_number_operator():
    h = harmonic_hamiltonian(2.5, 5)
    np.testing.assert_allclose(h.matrix, 2.5 * number_operator(5).matrix)


class TestSqueezeOperator:
    def test_zero_squeezing_is_identity(self):
        np.testing.assert_allclose(squeeze_operator(0.0, 12).matrix, np.eye(12))

    def test_inverse_property(self):
        s = squeeze_operator(0.4, 40).matrix
        sm = squeeze_operator(-0.4, 40).matrix
        assert np.abs(s @ sm - np.eye(40)).max() < 1e-9

    def test_unitarity(self):
        s = squeeze_operator(0.5, 60).matrix
        assert np.abs(s.conj().T @ s - np.eye(60)).max() < 1e-9

    def test_squeezed_vacuum_mean_occupation(self):
        s = squeeze_operator(0.4, 40).matrix
        vac = np.zeros(40)
        vac[0] = 1.0
        mean = np.real(s[:, 0].conj() @ (np.arange(40) * s[:, 0]))
        assert math.isclose(mean, math.sinh(0.4) ** 2, rel_tol=1e-10)
        assert math.isclose(mean, 0.168717, abs_tol=5e-7)
        assert vac @ vac == 1.0

    def test_cutoff_leak_raises(self):
        with pytest.raises(CutoffLeak):
            squeeze_operator(0.35, 16)

    def test_lost_unitarity_raises_not_unitary(self, monkeypatch):
        monkeypatch.setattr(fock, "_squeeze_matrix", lambda r, n: 2.0 * np.eye(n))
        with pytest.raises(NotUnitary, match="lost unitarity"):
            squeeze_operator(0.1, 12)


class TestSqueezeMatrixOracle:
    """The parity-block eigensolve construction against a dense expm."""

    @pytest.mark.parametrize("n", [2, 3, 40, 41, 287])
    @pytest.mark.parametrize("r", [-0.4, 0.0, 0.3, 1.0])
    def test_matches_dense_expm(self, n, r):
        a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
        expected = scipy.linalg.expm(0.5 * r * (a @ a - a.T @ a.T))
        s = _squeeze_matrix(r, n)
        assert np.abs(s - expected).max() <= 1e-11
        assert np.abs(s.T @ s - np.eye(n)).max() <= 1e-14
        odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
        assert np.all(s[odd] == 0.0)
        assert not s.flags.writeable

    def test_orthogonal_at_the_largest_otto_cutoff(self):
        # run_otto's automatic cutoff at the README's r = 1, x = 0.3 point;
        # run_otto itself builds no S (it works from the populations), so
        # this sizes the largest squeezed space the README runs ask for
        n = 1928
        s = _squeeze_matrix(1.0, n)
        assert np.abs(s.T @ s - np.eye(n)).max() <= 1e-14

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_is_a_value_error(self, r):
        # S is real orthogonal only for a finite r; no eigensolve is tried
        with pytest.raises(ValueError, match="r must be finite"):
            _squeeze_matrix(r, 20)
        with pytest.raises(ValueError, match="r must be finite"):
            squeeze_operator(r, 20)
        with pytest.raises(ValueError, match="r must be finite"):
            squeezed_thermal_state(0.2, r, 20)


class TestThermalState:
    def test_vacuum_limit(self):
        rho = thermal_state(0.0, 8)
        np.testing.assert_allclose(rho.matrix, number_state(0, 8).matrix)

    def test_geometric_populations_nbar_one(self):
        p = thermal_populations(1.0, 40)
        raw = 0.5 ** (np.arange(40) + 1)
        np.testing.assert_allclose(p, raw / raw.sum(), rtol=1e-12)

    def test_mean_occupation(self):
        rho = thermal_state(0.8, 40)
        assert math.isclose(real_expectation(rho, number_operator(40)), 0.8,
                            rel_tol=1e-8)

    def test_tail_leak_raises(self):
        with pytest.raises(CutoffLeak):
            thermal_state(2.0, 40)
        thermal_state(2.0, 58)  # required_cutoff(2.0) sizes this


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        np.testing.assert_allclose(coherent_state(0.0, 6).matrix,
                                   number_state(0, 6).matrix)

    def test_purity(self):
        rho = coherent_state(1.0, 40).matrix
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_poisson_mean(self):
        rho = coherent_state(1.5, 40)
        assert math.isclose(real_expectation(rho, number_operator(40)), 2.25,
                            rel_tol=1e-9)

    def test_leak_raises(self):
        with pytest.raises(CutoffLeak):
            coherent_state(3.0, 12)
        # |alpha|^2 overflows: the whole weight is clipped
        with pytest.raises(CutoffLeak, match="clipped weight 1.000e"):
            coherent_state(1e200, 10)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.5, -math.inf)])
    def test_non_finite_amplitude_is_a_value_error(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_state(alpha, 10)


class TestSqueezedThermalPopulations:
    """The three-term recurrence against the diagonal of S diag(p) S^T."""

    @pytest.mark.parametrize(
        "nbar,r", [(0.0, 0.1), (0.5, 1.0), (3.0, 1.0), (0.2, 2.0), (20.0, 0.5),
                   (0.0, -1.0)]
    )
    def test_matches_the_squeezed_state_diagonal(self, nbar, r):
        n = required_cutoff(nbar, r)
        p = squeezed_thermal_populations(nbar, r, n)
        rho = squeezed_thermal_state(nbar, r, n)
        assert np.abs(p - np.diag(rho.matrix).real).max() <= 1e-11
        np.testing.assert_array_equal(p, squeezed_thermal_populations(nbar, -r, n))

    @pytest.mark.parametrize("r", [0.1, 0.7, -1.5])
    def test_squeezed_vacuum_fills_even_levels_only(self, r):
        p = squeezed_thermal_populations(0.0, r, required_cutoff(0.0, r))
        assert np.all(p[1::2] == 0.0)
        assert np.all(p >= 0.0)
        # renormalised over the cutoff, which clips at most TOL_LEAK
        assert p[0] == pytest.approx(1.0 / math.cosh(r), rel=fock.TOL_LEAK)

    def test_clipped_tail_raises(self):
        with pytest.raises(CutoffLeak, match="tail mass"):
            squeezed_thermal_populations(0.5, 1.0, 60)
        with pytest.raises(CutoffLeak, match="tail mass"):
            squeezed_thermal_populations(2.0, 0.0, 40)
        with pytest.raises(ValueError, match="nbar must be nonnegative"):
            squeezed_thermal_populations(-0.1, 0.3, 40)

    @pytest.mark.parametrize(
        "nbar,r", [(math.nan, 0.3), (math.inf, 0.3), (0.3, math.nan),
                   (0.3, math.inf), (0.0, -math.inf)]
    )
    def test_non_finite_input_is_a_value_error(self, nbar, r):
        # both recurrence coefficients would be NaN, and so every population
        with pytest.raises(ValueError, match="must be nonnegative and finite|r must be finite"):
            squeezed_thermal_populations(nbar, r, 40)

    @pytest.mark.parametrize(
        "nbar,r", [(0.3, 20.0), (0.3, 50.0), (0.0, 179.0), (0.3, 355.0),
                   (0.3, 400.0), (2.0, -1e6), (1e200, 0.5)]
    )
    def test_strong_squeezing_is_a_cutoff_leak(self, nbar, r):
        # where a = (1 + n_b)^2 - m_b^2, formed as a difference, would cancel
        # to 0 (r = 20) or below (r = 50) and m_b^2 would overflow (r > 178),
        # and where sinh^2 r itself overflows: every one is a clipped tail
        with pytest.raises(CutoffLeak, match=r"tail mass 1\.000e\+00 |overflows"):
            squeezed_thermal_populations(nbar, r, 40)

    def test_top_levels_are_gated_too(self):
        # the tail past the cutoff of 3 is below TOL_LEAK, but the top two
        # levels carry more
        nbar = 1e-3
        assert (nbar / (nbar + 1)) ** 3 < fock.TOL_LEAK
        with pytest.raises(CutoffLeak, match="top-two-level"):
            squeezed_thermal_populations(nbar, 0.0, 3)

    @pytest.mark.parametrize(
        "nbar,n", [(0.0, 5), (0.3, 20), (1.7, 60), (0.0, 40), (5.0, 200)]
    )
    def test_zero_squeezing_is_the_geometric_law(self, nbar, n):
        q = nbar / (nbar + 1.0)
        geometric = (1.0 - q) * q ** np.arange(n)
        geometric /= geometric.sum()
        np.testing.assert_array_equal(squeezed_thermal_populations(nbar, 0.0, n),
                                      geometric)
        np.testing.assert_array_equal(thermal_populations(nbar, n), geometric)


class TestSqueezedThermalState:
    # (0, 2): the exact vacuum fits the smallest cutoff, where the
    # top-two-level gate covers every level
    @pytest.mark.parametrize(
        "nbar,n", [(0.0, 2), (0.0, 3), (0.0, 5), (0.3, 20), (0.7, 40), (1.7, 60),
                   (0.0, 40), (2.0, 58), (5.0, 200), (9.508, 300)]
    )
    def test_zero_squeezing_is_the_thermal_state(self, nbar, n):
        # bath_invariant_state relies on this being exact, not approximate
        np.testing.assert_array_equal(_squeeze_matrix(0.0, n), np.eye(n))
        rho = squeezed_thermal_state(nbar, 0.0, n)
        thermal = thermal_state(nbar, n)
        np.testing.assert_array_equal(rho.matrix, thermal.matrix)
        np.testing.assert_array_equal(rho.eigenvalues, thermal.eigenvalues)

    def test_entropy_matches_thermal(self):
        rho = squeezed_thermal_state(1.0, 0.3, 60)
        assert math.isclose(von_neumann_entropy(rho),
                            von_neumann_entropy(thermal_state(1.0, 60)),
                            abs_tol=1e-9)

    @pytest.mark.parametrize("nbar,r", [(0.0, 0.4), (0.5, 0.3), (1.0, 0.4)])
    def test_mean_occupation_closed_form(self, nbar, r):
        rho = squeezed_thermal_state(nbar, r, 80)
        target = nbar + (2 * nbar + 1) * math.sinh(r) ** 2
        assert math.isclose(real_expectation(rho, number_operator(80)), target,
                            rel_tol=1e-8)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(Operator(HilbertDim(2), m))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(Operator(HilbertDim(2), 0.7 * np.eye(2)))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(Operator(HilbertDim(2), m))

    def test_accepts_array_input_and_caches_spectrum(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        np.testing.assert_allclose(rho.eigenvalues, [0.25, 0.75])
        assert rho.min_eig == 0.25
        assert rho.trace_error < 1e-15


def test_number_state_levels():
    rho = number_state(3, 6)
    expected = np.zeros((6, 6))
    expected[3, 3] = 1.0
    np.testing.assert_array_equal(rho.matrix, expected)
    with pytest.raises(ValueError):
        number_state(6, 6)
