"""Energy bookkeeping along trajectories: first-law split and entropy bounds.

The dissipated energy E_d (bath flow) splits into a passive part, the
portion that moves the passive-state energy, and an ergotropy part, the
portion that builds or burns extractable work. E_d, co-integrated with the
state, is cross-checked against its midpoint sum over the snapshots;
disagreement raises LedgerInconsistent.

Entropy production sigma follows the relative-entropy route: for a
time-independent generator with invariant state rho_inv,

    sigma(t) = S(rho_0 || rho_inv) - S(rho_t || rho_inv)
             = [S(rho_t) - S(rho_0)] + Tr[(rho_t - rho_0) ln rho_inv],

which is monotone nondecreasing. The second form is used because it
telescopes exactly from snapshots, with no quadrature error. A driven
tagged bath at fixed temperature T has the frozen invariant
S rho_th(N(t)) S^dag (S = 1 for a thermal bath), so
ln rho_inv(t) = -(omega(t)/T) S n S^dag - ln Z(t) and, as Tr L(rho) = 0,
sigma = delta_S - Phi/T exactly, with Phi the heat evolve co-integrates in
the damped mode's energy. Only custom generators go through trapezoid
quadrature of the instantaneous production rate with the invariant
recomputed per snapshot.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings

import numpy as np

from .dynamics import (
    _BLOCK,
    Generator,
    _thermal_contact,
    Trajectory,
    _steady_states,
    apply,
    bath_invariant_state,
    evolve,
    thermal_generator,
)
from .errors import LedgerInconsistent, SlowDriveViolation
from .fock import DensityMatrix, Operator, _check_unitary
from .fock import squeezed_thermal_state, thermal_state
from .passivity import (
    EIG_FLOOR,
    _hamiltonian_eigensystem,
    _population_entropy,
    passive_decompose,
    relative_entropy,
)

TOL_FIRSTLAW_SCALE = 1e-6


@dataclasses.dataclass(frozen=True)
class FirstLawLedger:
    """Per-snapshot energy accounting for one trajectory.

    All arrays align with times. Cumulative columns start at zero;
    instantaneous columns are properties of the snapshot state.
    """

    times: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    ergotropy: np.ndarray
    passive_energy: np.ndarray
    dissipated_cum: np.ndarray
    work_cum: np.ndarray
    passive_dissipated_cum: np.ndarray
    ergotropy_dissipated_cum: np.ndarray
    sigma_cum: np.ndarray
    trace_errors: np.ndarray
    min_eigs: np.ndarray


@dataclasses.dataclass(frozen=True)
class EntropyReport:
    """Entropy balance of one relaxation stroke against its bath.

    slack_* entries are delta_S minus the corresponding dissipated-energy
    bound; both are nonnegative up to integrator error when the bath is
    thermal. alt_energy is the bath flow along the comparison path that
    starts from the passive state and runs in the bath's passive frame.
    """

    delta_S: float
    sigma_spohn: float
    dissipated: float
    alt_energy: float
    bound_total_heat: float
    bound_alt_path: float
    slack_total_heat: float
    slack_alt_path: float
    passive_rel_entropy: float


def _log_state(rho: DensityMatrix) -> np.ndarray:
    """Matrix log of a state, eigenvalues floored to keep it finite."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    logs = np.log(np.clip(vals, EIG_FLOOR, None))
    return (vecs * logs) @ vecs.conj().T


def _is_time_independent(gen: Generator) -> bool:
    if any(callable(j.rate) for j in gen.jumps):
        return False
    # interaction picture: a constant-rate dissipator is autonomous even
    # when H(t) sweeps, because H only enters the bookkeeping
    return gen.hamiltonian.is_constant or gen.picture == "interaction"


def sigma_series(traj: Trajectory, gen: Generator) -> np.ndarray:
    """Cumulative entropy production along a trajectory.

    Three routes. Time-independent generators (a T = 0 bath among them)
    use the exact telescoping form against the invariant state. A tagged
    bath with a swept occupation uses delta_S - Phi/T, exact because
    ln rho_inv(t) is affine in omega(t)/T, with Phi = squeezed_heat_cum:
    the trajectory must come from evolve under gen (one without it raises
    ValueError), and an invariant that leaks past the cutoff raises
    CutoffLeak. Custom driven generators fall back to trapezoid quadrature
    of the production rate with the frozen-time invariant recomputed per
    snapshot.
    """
    spectra = np.array([s._eigs for s in traj.states])
    return _sigma(traj, gen, _population_entropy(spectra))


def _sigma(traj: Trajectory, gen: Generator, entropy: np.ndarray,
           invariant: DensityMatrix | None = None) -> np.ndarray:
    """sigma_series with the snapshots' entropies already computed, and
    bath_invariant_state(gen, t=0.0) too when invariant is given."""
    if _is_time_independent(gen):
        if invariant is None:
            invariant = bath_invariant_state(gen, t=0.0)
        # Tr[rho ln rho_inv] against the fixed invariant, one dot per state
        # where it is stored; a float64 state is cast to complex exactly
        log_inv = _log_state(invariant).T.ravel()
        cross = np.array([np.dot(s.matrix.ravel(), log_inv) for s in traj.states]).real
        return (entropy - entropy[0]) + (cross - cross[0])
    if gen.kind == "custom":
        return _sigma_by_quadrature(traj, gen, invariant)
    heat = traj.squeezed_heat_cum
    if heat is None:
        raise ValueError(
            "trajectory carries no squeezed-mode heat; the trajectory must "
            "come from evolve under this generator"
        )
    # the invariant must fit under the cutoff at every snapshot; its
    # top-level population grows with the occupation, so check the peak
    squeezed_thermal_state(max(map(gen.occupation_at, traj.times)), gen.r, gen.dim)
    return (entropy - entropy[0]) - heat / gen.temperature


def _sigma_by_quadrature(traj: Trajectory, gen: Generator,
                         first: DensityMatrix | None = None) -> np.ndarray:
    """Trapezoid quadrature of the Spohn rate for a custom driven generator.

    The frozen-time invariant at each snapshot is steady_state's, to the
    bit; the real pieces of its solves (one per jump, and one for a
    schroedinger-picture H) are built once per call, and only their
    weights change from one snapshot's solve to the next. first, the
    invariant at t = 0 when given, is read in place of that solve.
    """
    rates = np.empty(len(traj.states))
    times = traj.times.tolist()
    reuse = first is not None and times[0] == 0.0
    invariants = _steady_states(gen, times[reuse:])
    if reuse:
        invariants = itertools.chain([first], invariants)
    for i, (t, state, inv) in enumerate(zip(traj.times, traj.states, invariants)):
        log_inv = _log_state(inv)
        log_rho = _log_state(state)
        flow = apply(gen, state, float(t))
        rates[i] = -float(np.einsum("ij,ji->", flow, log_rho - log_inv).real)
    return np.concatenate(
        ([0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(traj.times)))
    )


def sigma_nonthermal(
    rho0: DensityMatrix, unitary: Operator, pi_ss: DensityMatrix
) -> float:
    """Total entropy production via the bath's passive frame.

    The initial state is rotated by the frame unitary and compared with
    the passive invariant pi_ss; valid for baths whose invariant is a
    unitary rotation of a passive (e.g. thermal) state.
    """
    if unitary.dim != rho0.dim:
        raise ValueError("dimension mismatch")
    u = unitary.matrix
    _check_unitary(u, "frame operator")
    rotated = DensityMatrix(
        Operator(rho0.dim, u.conj().T @ rho0.matrix @ u),
        _spectrum=rho0.eigenvalues,
    )
    return relative_entropy(rotated, pi_ss)


def _reference_frequency(gen: Generator, spectrum: np.ndarray) -> float:
    """|omega(0)| (1 without a frequency) times the largest gap of the
    ascending spectrum of H(t) = omega(t) M's matrix M; 1.0 where that is 0."""
    sched = gen.hamiltonian
    w = 1.0 if sched.frequency is None else abs(sched.frequency(0.0))
    ref = w * float(np.diff(spectrum).max())
    return ref if ref > 0 else 1.0


def firstlaw_tolerance(delta_e: float, omega_ref: float) -> float:
    return TOL_FIRSTLAW_SCALE * max(abs(delta_e), abs(omega_ref))


def _ledger_rows(gen: Generator, states: tuple, times: np.ndarray,
                 spectrum: np.ndarray) -> tuple:
    """Ledger columns of consecutive snapshots: per snapshot the energy,
    passive energy, min_eig and entropy; per interval the increments of
    Tr[rho H] and Tr[pi H] at its midpoint. spectrum is the ascending
    spectrum of M in H(t) = omega(t) M, so H(t)'s levels are
    sort(omega(t) spectrum). Each column is its per-state form to the bit,
    the passive energy of a non-diagonal M with a frequency to roundoff."""
    sched, m = gen.hamiltonian, len(states)
    ts = times.tolist() + (0.5 * (times[:-1] + times[1:])).tolist()  # + midpoints
    spectra = np.array([state._eigs for state in states])
    # descending populations pair with ascending levels in the passive state
    p_desc = np.clip(spectra[:, ::-1], 0.0, None)
    w = np.ones(len(ts)) if sched.frequency is None else list(map(sched.frequency, ts))
    if sched.levels is None:  # a general H: per-time traces
        energy = [sched.trace_with(s.matrix, t) for s, t in zip(states, ts)]
        de = [sched.trace_with(b.matrix - a.matrix, t)
              for a, b, t in zip(states, states[1:], ts[m:])]
    else:  # a ladder reads the diagonals alone
        diag = np.array([s.populations for s in states])
        # sched.diagonal(t) at every t: the same product per entry
        h = np.multiply.outer(w, sched.levels)
        energy = (diag * h[:m]).sum(axis=1)
        de = (np.diff(diag, axis=0) * h[m:]).sum(axis=1)
    levels = np.sort(np.multiply.outer(w, spectrum), axis=1)
    pas = (p_desc[:, None, :] @ levels[:m, :, None])[:, 0, 0]
    dpas = (np.diff(p_desc, axis=0)[:, None, :] @ levels[m:, :, None])[:, 0, 0]
    rows = [energy, pas, spectra[:, 0], _population_entropy(spectra)]
    return np.array(rows), np.array([de, dpas])


def accumulate_ledger(traj: Trajectory, gen: Generator) -> FirstLawLedger:
    """Build the first-law ledger for a trajectory.

    The passive share of the bath flow accrues step increments
    Tr[(pi_{k+1} - pi_k) H_mid]; for constant H these telescope exactly.
    The ergotropy share is E_d minus that. The cross-check compares E_d,
    co-integrated by evolve, with its midpoint sum
    sum_k Tr[(rho_{k+1} - rho_k) H_mid], which must agree within
    TOL_FIRSTLAW_SCALE * max(|delta E|, omega_ref); the sum's quadrature
    error scales with the snapshot spacing, so keep snapshots dense when H
    is driven.
    """
    times, n = traj.times, len(traj.times)
    # one eigensolve of M serves every snapshot, as passive_energy reads it
    spectrum = _hamiltonian_eigensystem(Operator(gen.dim, gen.hamiltonian.matrix))[0]
    rows, intervals = [], []
    # _BLOCK intervals at a time bound the stacked rows; a block's last
    # snapshot opens the next block, so only the final block keeps it
    for i in range(0, max(n - 1, 1), _BLOCK):
        j = min(i + _BLOCK, n - 1) + 1
        row, interval = _ledger_rows(gen, traj.states[i:j], times[i:j], spectrum)
        rows.append(row if j == n else row[:, :-1])
        intervals.append(interval)
    energy, pas, min_eigs, entropy = np.concatenate(rows, axis=1)
    de, dpas = np.concatenate(intervals, axis=1)
    ergo = np.clip(energy - pas, 0.0, None)
    pas_d = np.cumsum(np.concatenate(([0.0], dpas)))  # increments in order
    ergo_d = traj.dissipated_cum - pas_d

    e_d, midpoint = traj.dissipated_cum[-1], de.sum()
    tol = firstlaw_tolerance(energy[-1] - energy[0], _reference_frequency(gen, spectrum))
    mismatch = abs(e_d - midpoint)
    if mismatch > tol:
        raise LedgerInconsistent(
            f"co-integrated bath flow E_d = {e_d:.6e} disagrees with its midpoint "
            f"sum of Tr[(rho_k+1 - rho_k) H_mid] = {midpoint:.6e} by {mismatch:.3e} "
            f"(tolerance {tol:.3e}); snapshots may be too sparse for the drive"
        )

    return FirstLawLedger(
        times=times.copy(),
        energy=energy,
        entropy=entropy,
        ergotropy=ergo,
        passive_energy=pas,
        dissipated_cum=traj.dissipated_cum.copy(),
        work_cum=traj.work_cum.copy(),
        passive_dissipated_cum=pas_d,
        ergotropy_dissipated_cum=ergo_d,
        sigma_cum=_sigma(traj, gen, entropy),
        trace_errors=traj.trace_errors.copy(),
        min_eigs=min_eigs,
    )


def passive_frame_generator(gen: Generator) -> Generator:
    """The thermal generator acting in the bath's passive frame.

    For a squeezed bath this is the plain thermal damping with the same
    schedule, coupling and occupation; thermal and custom generators are
    returned unchanged (a custom generator is assumed to be the caller's
    own passive-frame construction).
    """
    if gen.kind != "squeezed":
        return gen
    # a swept occupation is rebuilt from the temperature, a fixed one kept
    return thermal_generator(
        gen.hamiltonian,
        gen.kappa,
        gen.nbar,
        gen.dim,
        temperature=gen.temperature if gen.nbar is None else None,
    )


def alt_path_energy(
    gen_thermal: Generator,
    rho0: DensityMatrix,
    t_final: float,
) -> tuple[float, Trajectory]:
    """Bath flow along the comparison path started from the passive state.

    The initial state is replaced by its passive rearrangement under H(0)
    and evolved under gen_thermal for the same duration, at evolve's own
    step. For a squeezed stroke pass the passive-frame generator, not the
    squeezed one. Returns the final cumulative bath flow and the
    comparison trajectory.
    """
    if gen_thermal.kind == "squeezed":
        raise ValueError(
            "alt_path_energy expects the bath's passive-frame generator; "
            "see passive_frame_generator"
        )
    h0 = Operator(gen_thermal.dim, gen_thermal.hamiltonian.evaluate(0.0))
    pi0 = passive_decompose(rho0, h0).passive_state
    traj = evolve(gen_thermal, pi0, t_final)
    return float(traj.dissipated_cum[-1]), traj


def entropy_bound_report(
    traj: Trajectory,
    gen: Generator,
    bath_temperature: float | None = None,
) -> EntropyReport:
    """Entropy balance of a finished stroke against its bath.

    The bath temperature defaults to the generator's. The comparison path
    starts from the passive state under H(0) and runs in the bath's
    passive frame. For a tagged bath (thermal or squeezed) that frame is a
    thermal contact, one phase-insensitive channel whose mean, and so whose
    flow, closes on itself: dynamics._thermal_contact integrates it on gen,
    and its invariant is the thermal state at N(0). A custom generator is
    its own passive frame, evolved from pi_0 as alt_path_energy would, and
    its invariant at t = 0 is solved once, for the report and sigma alike.
    Both dissipated fluxes are divided by the temperature; the slacks
    delta_S - bound quantify how far the stroke is from saturating each
    inequality.
    """
    if bath_temperature is None:
        bath_temperature = gen.temperature
    if bath_temperature is None or bath_temperature <= 0:
        raise ValueError("entropy bounds need a positive bath temperature")
    t_bath = float(bath_temperature)

    entropy = _population_entropy(np.array([s._eigs for s in traj.states]))
    delta_s = float(entropy[-1] - entropy[0])
    e_d = float(traj.dissipated_cum[-1])

    t_final = float(traj.times[-1] - traj.times[0])
    h0 = Operator(gen.dim, gen.hamiltonian.evaluate(0.0))
    pi0 = passive_decompose(traj.states[0], h0).passive_state
    # the comparison path replays the stroke's schedule over the same span,
    # so a too-fast sweep was already reported when the stroke was evolved
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowDriveViolation)
        if gen.kind == "custom":
            e_alt = float(evolve(gen, pi0, t_final).dissipated_cum[-1])
            invariant = bath_invariant_state(gen, t=0.0)
        else:
            n0 = float(pi0.populations @ np.arange(gen.dim.cutoff))
            _, e_alt, _ = _thermal_contact(gen, n0, t_final)
            invariant = thermal_state(gen.occupation_at(0.0), gen.dim)

    # a custom bath's invariant is the bath's own, which sigma reads at t = 0
    own = invariant if gen.kind == "custom" else None
    sigma = float(_sigma(traj, gen, entropy, own)[-1])
    rel = relative_entropy(pi0, invariant)

    bound_total = e_d / t_bath
    bound_alt = e_alt / t_bath
    if gen.kind != "squeezed" and _is_time_independent(gen):
        # direct thermal relaxation: the alt path can only dissipate at
        # least as much, so its bound is the tighter (larger) one
        tol = TOL_FIRSTLAW_SCALE * max(1.0, abs(bound_total), abs(bound_alt))
        if bound_alt < bound_total - tol:
            raise LedgerInconsistent(
                f"alt-path bound {bound_alt:.6e} fell below the total-heat "
                f"bound {bound_total:.6e} on a thermal relaxation"
            )
    return EntropyReport(
        delta_S=delta_s,
        sigma_spohn=sigma,
        dissipated=e_d,
        alt_energy=e_alt,
        bound_total_heat=bound_total,
        bound_alt_path=bound_alt,
        slack_total_heat=delta_s - bound_total,
        slack_alt_path=delta_s - bound_alt,
        passive_rel_entropy=rel,
    )
