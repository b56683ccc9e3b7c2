"""Energy bookkeeping along trajectories: first-law split and entropy bounds.

The dissipated energy E_d (bath flow) splits into a passive part, the
portion that moves the passive-state energy, and an ergotropy part, the
portion that builds or burns extractable work. The split is computed two
independent ways and cross-checked; disagreement raises LedgerInconsistent.

Entropy production sigma follows the relative-entropy route: for a
time-independent generator with invariant state rho_inv,

    sigma(t) = S(rho_0 || rho_inv) - S(rho_t || rho_inv)
             = [S(rho_t) - S(rho_0)] + Tr[(rho_t - rho_0) ln rho_inv],

which is monotone nondecreasing. The second form is used because it
telescopes exactly from snapshots, with no quadrature error. Driven
thermal baths at fixed temperature admit the closed form
delta_S - E_d/T; anything else goes through trapezoid quadrature of the
instantaneous production rate with the invariant recomputed per snapshot.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .dynamics import (
    Generator,
    Trajectory,
    apply,
    bath_invariant_state,
    conjugate_generator,
    evolve,
    thermal_generator,
)
from .errors import LedgerInconsistent, NotUnitary
from .fock import TOL_UNITARY, DensityMatrix, Operator
from .passivity import (
    EIG_FLOOR,
    passive_decompose,
    relative_entropy,
    von_neumann_entropy,
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


def _sigma_against_invariant(
    traj: Trajectory, invariant: DensityMatrix
) -> np.ndarray:
    """Cumulative entropy production against a fixed invariant state."""
    log_inv = _log_state(invariant)
    rho0 = traj.states[0]
    s0 = von_neumann_entropy(rho0)
    ref = float(np.einsum("ij,ji->", rho0.matrix, log_inv).real)
    out = np.empty(len(traj.states))
    for i, state in enumerate(traj.states):
        s_i = von_neumann_entropy(state)
        cross = float(np.einsum("ij,ji->", state.matrix, log_inv).real)
        out[i] = (s_i - s0) + (cross - ref)
    out[0] = 0.0
    return out


def _is_time_independent(gen: Generator) -> bool:
    if not gen.hamiltonian.is_constant and gen.picture == "schroedinger":
        return False
    if any(callable(j.rate) for j in gen.jumps):
        return False
    # interaction picture: a constant-rate dissipator is autonomous even
    # when H(t) sweeps, because H only enters the bookkeeping
    return gen.hamiltonian.is_constant or gen.picture == "interaction"


def sigma_series(traj: Trajectory, gen: Generator) -> np.ndarray:
    """Cumulative entropy production along a trajectory.

    Time-independent generators use the exact telescoping form against
    the invariant state. Driven thermal baths at fixed temperature use
    delta_S - E_d/T with the co-integrated bath flow (exact, since
    ln rho_inv(t) is an affine function of H(t)/T). The general driven
    case falls back to trapezoid quadrature of the production rate with
    the frozen-time invariant recomputed per snapshot.
    """
    if _is_time_independent(gen):
        return _sigma_against_invariant(traj, bath_invariant_state(gen, t=0.0))
    if gen.kind == "thermal" and gen.temperature is not None and gen.temperature > 0:
        s0 = von_neumann_entropy(traj.states[0])
        ds = np.array([von_neumann_entropy(s) - s0 for s in traj.states])
        return ds - traj.dissipated_cum / gen.temperature

    rates = np.empty(len(traj.states))
    for i, (t, state) in enumerate(zip(traj.times, traj.states)):
        log_inv = _log_state(bath_invariant_state(gen, t=float(t)))
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
    err = np.abs(u.conj().T @ u - np.eye(rho0.dim.cutoff)).max()
    if err > TOL_UNITARY:
        raise NotUnitary(f"frame operator fails U^dag U = 1 by {err:.3e}")
    rotated = DensityMatrix(
        Operator(rho0.dim, u.conj().T @ rho0.matrix @ u),
        _spectrum=rho0.eigenvalues,
    )
    return relative_entropy(rotated, pi_ss)


def _h_levels(gen: Generator, t: float) -> np.ndarray:
    """Ascending energy levels of H(t)."""
    sched = gen.hamiltonian
    if sched.levels is not None:
        return np.sort(sched.diagonal(t))
    return np.linalg.eigvalsh(sched.evaluate(t))


def _energy(gen: Generator, m: np.ndarray, t: float) -> float:
    """Tr[m H(t)], from the diagonal alone for a ladder schedule."""
    sched = gen.hamiltonian
    if sched.levels is not None:
        return float(np.diagonal(m).real @ sched.diagonal(t))
    return float(np.einsum("ij,ji->", m, sched.evaluate(t)).real)


def _reference_frequency(gen: Generator) -> float:
    sched = gen.hamiltonian
    if sched.frequency is not None:
        w = abs(sched.frequency(0.0))
        if w > 0:
            return w
    levels = _h_levels(gen, 0.0)
    gaps = np.diff(levels)
    return float(gaps.max()) if len(gaps) and gaps.max() > 0 else 1.0


def firstlaw_tolerance(delta_e: float, omega_ref: float) -> float:
    return TOL_FIRSTLAW_SCALE * max(abs(delta_e), abs(omega_ref))


def accumulate_ledger(traj: Trajectory, gen: Generator) -> FirstLawLedger:
    """Build the first-law ledger for a trajectory.

    The passive share of the bath flow accrues step increments
    Tr[(pi_{k+1} - pi_k) H_mid]; for constant H these telescope exactly.
    The ergotropy share is E_d minus that. An independent midpoint
    estimate of the same split must agree within
    TOL_FIRSTLAW_SCALE * max(|delta E|, omega_ref); the cross-check's own
    quadrature error scales with the snapshot spacing, so keep snapshots
    dense when H is driven.
    """
    n = len(traj.states)
    times = traj.times
    energy = np.empty(n)
    entropy = np.empty(n)
    pas = np.empty(n)
    min_eigs = np.empty(n)
    spectra_desc = []
    for i, state in enumerate(traj.states):
        levels = _h_levels(gen, float(times[i]))
        p_desc = np.clip(state.eigenvalues[::-1], 0.0, None)
        spectra_desc.append(p_desc)
        energy[i] = _energy(gen, state.matrix, float(times[i]))
        pas[i] = float(p_desc @ levels)
        entropy[i] = von_neumann_entropy(state)
        min_eigs[i] = state.min_eig
    ergo = np.clip(energy - pas, 0.0, None)

    pas_d = np.zeros(n)
    cross = np.zeros(n)
    for k in range(n - 1):
        t_mid = 0.5 * (float(times[k]) + float(times[k + 1]))
        levels_mid = _h_levels(gen, t_mid)
        # descending populations pair with ascending levels in the passive state
        dp = spectra_desc[k + 1] - spectra_desc[k]
        pas_d[k + 1] = pas_d[k] + float(dp @ levels_mid)
        de = _energy(gen, traj.states[k + 1].matrix - traj.states[k].matrix, t_mid)
        cross[k + 1] = cross[k] + de - (pas_d[k + 1] - pas_d[k])

    ergo_d = traj.dissipated_cum - pas_d

    delta_e = energy[-1] - energy[0]
    tol = firstlaw_tolerance(delta_e, _reference_frequency(gen))
    mismatch = abs(ergo_d[-1] - cross[-1])
    if mismatch > tol:
        raise LedgerInconsistent(
            f"ergotropy-flow split disagrees between the co-integrated and "
            f"midpoint routes by {mismatch:.3e} (tolerance {tol:.3e}); "
            "snapshots may be too sparse for the drive"
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
        sigma_cum=sigma_series(traj, gen),
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
    dt: float | None = None,
) -> tuple[float, Trajectory]:
    """Bath flow along the comparison path started from the passive state.

    The initial state is replaced by its passive rearrangement under H(0)
    and evolved under gen_thermal for the same duration. For a squeezed
    stroke pass the passive-frame generator, not the squeezed one.
    Returns the final cumulative bath flow and the comparison trajectory.
    """
    if gen_thermal.kind == "squeezed":
        raise ValueError(
            "alt_path_energy expects the bath's passive-frame generator; "
            "see passive_frame_generator"
        )
    h0 = Operator(gen_thermal.dim, gen_thermal.hamiltonian.evaluate(0.0))
    pi0 = passive_decompose(rho0, h0).passive_state
    traj = evolve(gen_thermal, pi0, t_final, dt=dt)
    return float(traj.dissipated_cum[-1]), traj


def entropy_bound_report(
    traj: Trajectory,
    gen: Generator,
    bath_temperature: float | None = None,
    frame: Operator | None = None,
    *,
    dt: float | None = None,
) -> EntropyReport:
    """Entropy balance of a finished stroke against its bath.

    The bath temperature defaults to the generator's; the comparison path
    runs under the passive-frame generator (derived from the bath tag, or
    from an explicit frame unitary for custom baths). Both dissipated
    fluxes are divided by the temperature; the slacks delta_S - bound
    quantify how far the stroke is from saturating each inequality.
    """
    if bath_temperature is None:
        bath_temperature = gen.temperature
    if bath_temperature is None or bath_temperature <= 0:
        raise ValueError("entropy bounds need a positive bath temperature")
    t_bath = float(bath_temperature)

    if frame is not None:
        alt_gen = conjugate_generator(gen, frame)
    else:
        alt_gen = passive_frame_generator(gen)

    s0 = von_neumann_entropy(traj.states[0])
    s1 = von_neumann_entropy(traj.states[-1])
    delta_s = s1 - s0
    e_d = float(traj.dissipated_cum[-1])

    t_final = float(traj.times[-1] - traj.times[0])
    e_alt, _alt_traj = alt_path_energy(alt_gen, traj.states[0], t_final, dt=dt)

    sigma = float(sigma_series(traj, gen)[-1])

    h0 = Operator(gen.dim, alt_gen.hamiltonian.evaluate(0.0))
    pi0 = passive_decompose(traj.states[0], h0).passive_state
    rel = relative_entropy(pi0, bath_invariant_state(alt_gen, t=0.0))

    bound_total = e_d / t_bath
    bound_alt = e_alt / t_bath
    if alt_gen is gen and _is_time_independent(gen):
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
