"""Ergotropy, passive states, entropies and spectral order relations.

The passive state of (rho, H) keeps rho's spectrum but pairs the largest
populations with the lowest energy levels. Ergotropy is the energy gap
to that rearrangement: the most work a cyclic unitary can pull out.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .fock import DensityMatrix, Operator, real_expectation

EIG_FLOOR = 1e-14  # spectral weight below this counts as zero support
# Integrator snapshots scatter a few 1e-15 of mass across a reference's
# numerically null levels; genuine support mismatches in this model family
# carry >= 1e-2. The divergence verdict keys off the wider margin.
SUPPORT_TOL = 1e-12
TOL_MAJOR = 1e-10


@dataclasses.dataclass(frozen=True)
class PassiveDecomposition:
    passive_state: DensityMatrix
    extraction_unitary: Operator
    ergotropy: float
    passive_energy: float


def _hamiltonian_eigensystem(hamiltonian: Operator):
    """Ascending eigenvalues and eigenvectors; diagonal H short-circuits."""
    m = hamiltonian.matrix
    if not np.any(m - np.diag(np.diag(m))):
        diag = np.real(np.diag(m))
        order = np.argsort(diag, kind="stable")
        vecs = np.eye(m.shape[0], dtype=complex)[:, order]
        return diag[order], vecs
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def passive_decompose(
    rho: DensityMatrix, hamiltonian: Operator
) -> PassiveDecomposition:
    """Passive state, extraction unitary and ergotropy of (rho, H).

    Ties in either spectrum are broken stably (by index), so the result
    is deterministic even for degenerate inputs. The extraction unitary
    U satisfies  U rho U^dag = passive_state  and is built from the two
    eigenbases directly.
    """
    if hamiltonian.dim != rho.dim:
        raise ValueError("dimension mismatch between state and Hamiltonian")
    e_vals, e_vecs = _hamiltonian_eigensystem(hamiltonian)
    p_vals, p_vecs = np.linalg.eigh(rho.matrix)
    # descending populations, stable under ties
    desc = np.argsort(-p_vals, kind="stable")
    p_sorted = p_vals[desc]
    v_sorted = p_vecs[:, desc]

    passive_m = (e_vecs * p_sorted) @ e_vecs.conj().T
    # U maps the k-th most populated rho-eigenvector onto the k-th lowest level
    u = e_vecs @ v_sorted.conj().T

    energy = real_expectation(rho, hamiltonian)
    clipped = np.clip(p_sorted, 0.0, None)
    passive_energy = float(clipped @ e_vals)
    erg = max(energy - passive_energy, 0.0)

    passive = DensityMatrix(
        Operator(rho.dim, passive_m), _spectrum=np.clip(p_vals, 0.0, None)
    )
    return PassiveDecomposition(
        passive_state=passive,
        extraction_unitary=Operator(rho.dim, u),
        ergotropy=erg,
        passive_energy=passive_energy,
    )


def ergotropy(rho: DensityMatrix, hamiltonian: Operator) -> float:
    """Extractable work of (rho, H); spectra only, no unitary built."""
    passive = passive_energy(rho, hamiltonian)  # checks the dimensions first
    return max(real_expectation(rho, hamiltonian) - passive, 0.0)


def passive_energy(rho: DensityMatrix, hamiltonian: Operator) -> float:
    """Energy of the passive rearrangement of rho under H."""
    if hamiltonian.dim != rho.dim:
        raise ValueError("dimension mismatch between state and Hamiltonian")
    e_vals, _ = _hamiltonian_eigensystem(hamiltonian)
    p_desc = np.clip(rho.eigenvalues[::-1], 0.0, None)
    return float(p_desc @ e_vals)


def _population_entropy(p: np.ndarray):
    """-sum p ln p in nats over the last axis of a spectrum or population
    array, in any order: a float for one, an array for a stack of them,
    each row summed as its own 1-D call would sum it. Entries at or below
    EIG_FLOOR (and NaN) are set to 1 before the log, so they contribute 0.
    Never below +0.0: a pure state would give -0.0 (negating 1 ln 1), or a
    few ulps below 0 when roundoff lifts its one eigenvalue past 1."""
    p = np.where(p > EIG_FLOOR, p, 1.0)
    s = -(p * np.log(p)).sum(axis=-1)
    s = np.where(s > 0.0, s, 0.0)
    return float(s) if s.ndim == 0 else s


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr[rho ln rho] in nats; eigenvalues below EIG_FLOOR contribute 0."""
    return _population_entropy(rho.eigenvalues)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho || sigma) = Tr[rho (ln rho - ln sigma)].

    Infinite when rho puts weight where sigma has none: below EIG_FLOOR,
    or exactly zero for a diagonal sigma, whose eigenvalues are exact.
    Small negative rounding residue is clamped to zero.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    s_vals, s_vecs = _hamiltonian_eigensystem(sigma)
    diagonal = not np.any(sigma.matrix - np.diag(np.diagonal(sigma.matrix)))
    null = s_vals <= (0.0 if diagonal else EIG_FLOOR)
    r_vals, r_vecs = np.linalg.eigh(rho.matrix)
    overlap = np.abs(s_vecs.conj().T @ r_vecs) ** 2  # |<s_i|r_j>|^2
    if overlap[null].sum(axis=0) @ np.clip(r_vals, 0.0, None) > SUPPORT_TOL:
        return math.inf
    # as in rho's entropy, its weight below EIG_FLOOR counts as zero
    r_pos = np.where(r_vals > EIG_FLOOR, r_vals, 0.0)
    term_rho = -_population_entropy(r_pos)
    # Tr[rho ln sigma] via sigma's eigenbasis; null directions carry no rho weight
    log_s = np.log(np.where(null, 1.0, s_vals))
    term_cross = float(log_s @ overlap @ r_pos)
    return max(term_rho - term_cross, 0.0)


def majorizes(rho: DensityMatrix, sigma: DensityMatrix) -> bool:
    """True when rho's spectrum majorizes sigma's (rho is 'purer')."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    a = np.sort(rho.eigenvalues)[::-1].cumsum()
    b = np.sort(sigma.eigenvalues)[::-1].cumsum()
    return bool(np.all(a >= b - TOL_MAJOR))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    diff = rho.matrix - sigma.matrix
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
