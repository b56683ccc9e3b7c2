"""Markovian dissipators, time evolution and steady states.

Jump convention: a JumpTerm (L, rate) contributes

    rate * (2 L rho L^dag - L^dag L rho - rho L^dag L)

to d(rho)/dt. With the damping pair {(a, kappa(nbar+1)), (a^dag, kappa nbar)}
this makes amplitudes decay at kappa and populations relax toward nbar at
2*kappa.

Built-in bath generators are tagged interaction picture: the coherent
commutator is dropped from the equation of motion (it only rotates phases
for the diagonal bath couplings used here) while H(t) is still carried for
energy bookkeeping. Custom generators default to the schroedinger picture
and do include -i[H, rho].
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    CutoffLeak,
    NonUniqueSteadyState,
    NotUnitary,
    PositivityLoss,
    SlowDriveViolation,
    SteadyStateResidual,
    TraceDrift,
)
from .fock import (
    DEFAULT_CUTOFF,
    TOL_LEAK,
    DensityMatrix,
    DimLike,
    HilbertDim,
    Operator,
    as_dim,
    squeezed_thermal_state,
    thermal_state,
)

RateLike = Union[float, Callable[[float], float]]

GAP_TOL = 1e-6
RESIDUAL_TOL = 1e-10
# steady_state takes one route at every cutoff; this only names the
# small/large split that benchmark spans report
DENSE_STEADY_LIMIT = 32
SLOW_DRIVE_FRAC = 0.01


def bose_occupation(omega: float, temperature: float) -> float:
    """Planck occupation 1/(exp(omega/T) - 1); zero at T = 0."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if temperature == 0:
        return 0.0
    return 1.0 / math.expm1(omega / temperature)


def _rate_at(rate: RateLike, t: float) -> float:
    """A jump rate at time t; a callable must give a finite, nonnegative value."""
    if not callable(rate):
        return rate
    g = float(rate(t))
    if not (math.isfinite(g) and g >= 0):
        raise ValueError(f"jump rate is {g} at t={t}; must be finite and >= 0")
    return g


@dataclasses.dataclass(frozen=True)
class JumpTerm:
    """Dissipation channel: operator plus a constant or time-dependent rate."""

    operator: Operator
    rate: RateLike

    def __post_init__(self) -> None:
        if not callable(self.rate):
            r = float(self.rate)
            if not math.isfinite(r) or r < 0:
                raise ValueError(f"rate must be finite and nonnegative, got {r}")
            object.__setattr__(self, "rate", r)

    def rate_at(self, t: float) -> float:
        return _rate_at(self.rate, t)


@dataclasses.dataclass(frozen=True)
class HamiltonianSchedule:
    """Time-dependent Hamiltonian H(t) with its explicit time derivative.

    A ladder schedule has H(t) = frequency(t) * diag(levels) (diag(levels)
    without a frequency), read by diagonal/diagonal_derivative; a general
    one gives the matrices through evaluate_fn/derivative_fn.
    """

    dim: HilbertDim
    evaluate_fn: Optional[Callable[[float], np.ndarray]] = None
    derivative_fn: Optional[Callable[[float], np.ndarray]] = None
    is_constant: bool = False
    frequency: Optional[Callable[[float], float]] = None
    frequency_dot: Optional[Callable[[float], float]] = None
    levels: Optional[np.ndarray] = None

    def diagonal(self, t: float) -> np.ndarray:
        """Diagonal of H(t) for a ladder schedule."""
        if self.frequency is None:
            return self.levels
        return self.frequency(t) * self.levels

    def diagonal_derivative(self, t: float) -> np.ndarray:
        """Diagonal of dH/dt for a ladder schedule."""
        if self.frequency_dot is None:
            return np.zeros_like(self.levels)
        return self.frequency_dot(t) * self.levels

    def evaluate(self, t: float) -> np.ndarray:
        if self.levels is None:
            return self.evaluate_fn(t)
        return np.diag(self.diagonal(t).astype(complex))

    def derivative(self, t: float) -> np.ndarray:
        if self.levels is None:
            return self.derivative_fn(t)
        return np.diag(self.diagonal_derivative(t).astype(complex))


def constant_hamiltonian(op: Operator) -> HamiltonianSchedule:
    m = op.matrix
    if not np.any(m - np.diag(np.diagonal(m))):
        return HamiltonianSchedule(
            dim=op.dim, is_constant=True, levels=np.diagonal(m).real.copy()
        )
    zero = np.zeros_like(m)
    return HamiltonianSchedule(
        dim=op.dim,
        evaluate_fn=lambda t: m,
        derivative_fn=lambda t: zero,
        is_constant=True,
    )


def oscillator_schedule(
    frequency: Callable[[float], float],
    frequency_dot: Callable[[float], float],
    dim: DimLike = DEFAULT_CUTOFF,
) -> HamiltonianSchedule:
    """H(t) = frequency(t) * n_hat for a swept harmonic ladder."""
    d = as_dim(dim)
    return HamiltonianSchedule(
        dim=d,
        frequency=frequency,
        frequency_dot=frequency_dot,
        levels=np.arange(d.cutoff, dtype=float),
    )


def linear_ramp_schedule(
    omega_start: float,
    omega_end: float,
    duration: float,
    dim: DimLike = DEFAULT_CUTOFF,
) -> HamiltonianSchedule:
    """Frequency swept linearly from omega_start to omega_end over duration."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    slope = (omega_end - omega_start) / duration
    return oscillator_schedule(
        frequency=lambda t: omega_start + slope * t,
        frequency_dot=lambda t: slope,
        dim=dim,
    )


@dataclasses.dataclass(eq=False)
class Generator:
    """Dissipative generator: jump channels plus a (possibly driven) H(t).

    kind tags which analytic structure applies ("thermal", "squeezed",
    "custom"); invariant states and entropy routes key off it, evolve does
    not. kappa/nbar/r/temperature are bookkeeping metadata mirroring the
    construction parameters; nbar is None when the occupation varies in
    time (occupation_fn then holds it).
    """

    dim: HilbertDim
    hamiltonian: HamiltonianSchedule
    jumps: tuple
    kind: str = "custom"
    picture: str = "schroedinger"
    kappa: Optional[float] = None
    temperature: Optional[float] = None
    nbar: Optional[float] = None
    r: Optional[float] = None
    occupation_fn: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("thermal", "squeezed", "custom"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.picture not in ("interaction", "schroedinger"):
            raise ValueError(f"unknown picture {self.picture!r}")
        if self.hamiltonian.dim != self.dim:
            raise ValueError("Hamiltonian dimension mismatch")
        jumps = tuple(self.jumps)
        for j in jumps:
            if not isinstance(j, JumpTerm):
                raise TypeError("jumps must be JumpTerm instances")
            if j.operator.dim != self.dim:
                raise ValueError("jump operator dimension mismatch")
        self.jumps = jumps
        self._compiled = {}

    def occupation_at(self, t: float) -> Optional[float]:
        if self.occupation_fn is not None:
            return float(self.occupation_fn(t))
        return self.nbar

    @functools.cached_property
    def _real_jumps(self) -> bool:
        """Every jump operator has real matrix elements."""
        return not any(np.any(j.operator.matrix.imag) for j in self.jumps)

    def _terms(self, real: bool = False):
        """Per-jump factors (L, L^dag, L^dag L, rate), built once per dtype.

        real=True keeps only the real parts, which is exact when every
        jump is real. Dense arrays below the BLAS-friendly size where
        sparse call overhead dominates; CSR beyond it.
        """
        if real not in self._compiled:
            dense = self.dim.cutoff <= 256
            terms = []
            for j in self.jumps:
                lm = j.operator.matrix
                if real:
                    lm = np.ascontiguousarray(lm.real)
                if dense:
                    ld = np.ascontiguousarray(lm.conj().T)
                    terms.append((lm, ld, ld @ lm, j.rate))
                else:
                    l_sp = scipy.sparse.csr_matrix(lm)
                    ld_sp = scipy.sparse.csr_matrix(lm.conj().T)
                    terms.append((l_sp, ld_sp, (ld_sp @ l_sp).tocsr(), j.rate))
            self._compiled[real] = tuple(terms)
        return self._compiled[real]


def apply(gen: Generator, rho, t: float = 0.0, *, hermitian: bool = False) -> np.ndarray:
    """Action of the generator on a state (ndarray or DensityMatrix).

    hermitian=True promises the input is Hermitian, letting the
    anticommutator half be mirrored instead of recomputed; the integrator
    uses this on its stage values. A real input under an interaction-picture
    generator whose jumps are all real is worked on in real arithmetic and
    returns a real array; every other input returns a complex array.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    real = (
        not np.iscomplexobj(m) and gen.picture == "interaction" and gen._real_jumps
    )
    out = None
    csum = None
    for lm, ld, ldl, rate in gen._terms(real):
        g = _rate_at(rate, t)
        if g == 0.0:
            continue
        sandwich = (lm @ m) @ ld
        sandwich *= 2.0 * g
        if out is None:
            out = sandwich
            csum = g * ldl
        else:
            out += sandwich
            csum = csum + g * ldl
    if out is None:
        out = np.zeros(m.shape, dtype=float if real else complex)
    else:
        left = csum @ m
        out -= left
        out -= left.conj().T if hermitian else m @ csum
    if gen.picture == "schroedinger":
        h = gen.hamiltonian.evaluate(t)
        out += -1j * (h @ m - m @ h)
    return out


def squeezed_mode_operator(r: float, dim: DimLike = DEFAULT_CUTOFF) -> Operator:
    """b = a cosh(r) + a^dag sinh(r), the mode the squeezed bath damps."""
    d = as_dim(dim)
    n = d.cutoff
    rungs = np.sqrt(np.arange(1, n))
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n - 1), np.arange(1, n)] = math.cosh(r) * rungs
    m[np.arange(1, n), np.arange(n - 1)] = math.sinh(r) * rungs
    return Operator(d, m)


def _bath_generator(
    omega,
    kappa: float,
    nbar: Optional[float],
    r: float,
    dim: DimLike,
    temperature: Optional[float],
) -> Generator:
    """Oscillator damped through b = a cosh(r) + a^dag sinh(r).

    r = 0 is the thermal bath (b = a exactly), tagged "thermal" with
    r=None; any other r is tagged "squeezed".
    """
    d = as_dim(dim)
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if (nbar is None) == (temperature is None):
        raise ValueError("provide exactly one of nbar or temperature")
    given = nbar if nbar is not None else temperature
    if given < 0:
        raise ValueError(f"nbar or temperature must be nonnegative, got {given}")

    if isinstance(omega, HamiltonianSchedule):
        schedule = omega
        if schedule.dim != d:
            raise ValueError("schedule dimension mismatch")
        if schedule.frequency is None:
            raise ValueError("schedule must carry frequency metadata")
    else:
        w = float(omega)
        schedule = HamiltonianSchedule(
            dim=d,
            is_constant=True,
            frequency=lambda t: w,
            frequency_dot=lambda t: 0.0,
            levels=np.arange(d.cutoff, dtype=float),
        )

    occupation_fn = None
    if nbar is not None or schedule.is_constant:
        if nbar is None:
            nbar = bose_occupation(schedule.frequency(0.0), temperature)
        nbar = float(nbar)
        down: RateLike = kappa * (nbar + 1.0)
        up: RateLike = kappa * nbar
    else:
        freq = schedule.frequency

        def occupation_fn(t: float) -> float:
            return bose_occupation(freq(t), temperature)

        down = lambda t: kappa * (occupation_fn(t) + 1.0)  # noqa: E731
        up = lambda t: kappa * occupation_fn(t)  # noqa: E731

    b_op = squeezed_mode_operator(r, d)
    jumps = [JumpTerm(b_op, down)]
    if not (isinstance(up, float) and up == 0.0):
        jumps.append(JumpTerm(b_op.dagger(), up))
    return Generator(
        dim=d,
        hamiltonian=schedule,
        jumps=tuple(jumps),
        kind="squeezed" if r else "thermal",
        picture="interaction",
        kappa=float(kappa),
        temperature=temperature,
        nbar=nbar,
        r=float(r) if r else None,
        occupation_fn=occupation_fn,
    )


def thermal_generator(
    omega,
    kappa: float,
    nbar: Optional[float] = None,
    dim: DimLike = DEFAULT_CUTOFF,
    *,
    temperature: Optional[float] = None,
) -> Generator:
    """Damped oscillator coupled to a thermal bath.

    omega may be a number (static ladder) or a HamiltonianSchedule built
    by oscillator_schedule/linear_ramp_schedule (swept ladder). Provide
    exactly one of nbar or a bath temperature; with a temperature and a
    swept frequency the occupation tracks the instantaneous frequency.
    """
    return _bath_generator(omega, kappa, nbar, 0.0, dim, temperature)


def squeezed_generator(
    omega,
    kappa: float,
    nbar: Optional[float],
    r: float,
    dim: DimLike = DEFAULT_CUTOFF,
    *,
    temperature: Optional[float] = None,
) -> Generator:
    """Oscillator damped by a squeezed thermal bath.

    nbar is the thermal occupation before squeezing; to derive it from a
    bath temperature instead pass nbar=None (exactly one of the two).
    omega may be a schedule (same protocol as thermal_generator); the
    occupation then tracks the instantaneous frequency, which requires a
    temperature. The invariant state at frozen time t is
    squeezed_thermal_state(occupation, r); r = 0 is thermal_generator.
    """
    return _bath_generator(omega, kappa, nbar, float(r), dim, temperature)


def bath_invariant_state(gen: Generator, t: float = 0.0) -> DensityMatrix:
    """The state the bath coupling alone would relax to at frozen time t.

    Analytic for the tagged kinds; numeric kernel search otherwise.
    """
    occ = gen.occupation_at(t)
    if gen.kind == "thermal" and occ is not None:
        return thermal_state(occ, gen.dim)
    if gen.kind == "squeezed" and occ is not None and gen.r is not None:
        return squeezed_thermal_state(occ, gen.r, gen.dim)
    return steady_state(gen, t=t)


def conjugate_generator(gen: Generator, unitary: Operator) -> Generator:
    """Rotate the generator into the frame rho_tilde = U^dag rho U.

    Every jump becomes U^dag L U and H(t) becomes U^dag H(t) U; rates and
    picture are untouched. The result is tagged "custom": no analytic
    shortcut is assumed for the rotated form.
    """
    if unitary.dim != gen.dim:
        raise ValueError("dimension mismatch")
    u = unitary.matrix
    err = np.abs(u.conj().T @ u - np.eye(gen.dim.cutoff)).max()
    if err > 1e-9:
        raise NotUnitary(f"conjugating operator fails U^dag U = 1 by {err:.3e}")
    ud = u.conj().T

    new_jumps = tuple(
        JumpTerm(Operator(gen.dim, ud @ j.operator.matrix @ u), j.rate)
        for j in gen.jumps
    )
    old = gen.hamiltonian
    schedule = HamiltonianSchedule(
        dim=gen.dim,
        evaluate_fn=lambda t: ud @ old.evaluate(t) @ u,
        derivative_fn=lambda t: ud @ old.derivative(t) @ u,
        is_constant=old.is_constant,
    )
    return Generator(
        dim=gen.dim,
        hamiltonian=schedule,
        jumps=new_jumps,
        kind="custom",
        picture=gen.picture,
        kappa=gen.kappa,
        temperature=gen.temperature,
        nbar=None,
        r=None,
    )


# ---------------------------------------------------------------------------
# time evolution


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Snapshots of an evolve() run plus co-integrated energy currents.

    dissipated_cum[i] = integral of Tr[L(rho) H] up to times[i] (energy in
    through the bath coupling); work_cum[i] = integral of Tr[rho dH/dt].
    """

    times: np.ndarray
    states: tuple
    dissipated_cum: np.ndarray
    work_cum: np.ndarray
    trace_errors: np.ndarray

    @property
    def final_state(self) -> DensityMatrix:
        return self.states[-1]


def _stability_dt(gen: Generator, t_final: float) -> float:
    """Step small enough that the stiffest decay mode stays accurate.

    The margin below the stability edge keeps local truncation error on
    near-zero eigenvalues under the positivity gate even for pure states.
    """
    scale = 0.0
    for j in gen.jumps:
        g = j.rate_at(0.0)
        m = np.abs(j.operator.matrix)
        norm2 = math.sqrt(float(m.sum(axis=0).max() * m.sum(axis=1).max()))
        scale += 4.0 * g * norm2**2
    if gen.picture == "schroedinger":
        h = np.abs(gen.hamiltonian.evaluate(0.0))
        scale += 2.0 * math.sqrt(float(h.sum(axis=0).max() * h.sum(axis=1).max()))
    if scale == 0.0:
        return t_final / 50.0
    return min(0.5 / scale, t_final / 50.0)


def _warn_if_drive_fast(gen: Generator, t_final: float) -> None:
    sched = gen.hamiltonian
    if sched.frequency is None or sched.frequency_dot is None or gen.kappa is None:
        return
    for t in (0.0, 0.5 * t_final, t_final):
        w = sched.frequency(t)
        wdot = sched.frequency_dot(t)
        if w > 0 and abs(wdot) / w > SLOW_DRIVE_FRAC * gen.kappa:
            warnings.warn(
                f"frequency sweep rate |d(omega)/dt|/omega = {abs(wdot) / w:.3e} "
                f"exceeds {SLOW_DRIVE_FRAC:g}*kappa at t={t:g}; "
                "quasi-static bookkeeping may be inaccurate",
                SlowDriveViolation,
                stacklevel=3,
            )
            return


class _MatrixState:
    """The full density matrix, in complex or (when it stays real) float."""

    def __init__(self, gen: Generator, dtype: type) -> None:
        self.gen = gen
        self.dtype = dtype

    def start(self, rho0: DensityMatrix) -> np.ndarray:
        m = rho0.matrix.real if self.dtype is float else rho0.matrix
        return m.astype(self.dtype, copy=True)

    def deriv(self, m: np.ndarray, t: float) -> np.ndarray:
        return apply(self.gen, m, t, hermitian=True)

    @staticmethod
    def diagonal(m: np.ndarray) -> np.ndarray:
        return m.diagonal().real

    @staticmethod
    def trace(m: np.ndarray) -> float:
        return float(m.trace().real)

    @staticmethod
    def symmetrise(m: np.ndarray) -> np.ndarray:
        return 0.5 * (m + m.conj().T)

    @staticmethod
    def spectrum(m: np.ndarray):
        return m, np.linalg.eigvalsh(m)


class _PopulationState:
    """Level populations of a state that stays diagonal.

    Holds when every jump sits on one band L[n, n+k]: L rho L^dag and
    L^dag L rho are then diagonal for diagonal rho, and each jump moves
    population from level n+k to level n at rate 2 g |L[n, n+k]|^2.
    """

    def __init__(self, gen: Generator, offsets: Sequence[int]) -> None:
        n = gen.dim.cutoff
        self.flows = []
        for j, k in zip(gen.jumps, offsets):
            weight = np.abs(np.diagonal(j.operator.matrix, k)) ** 2
            rows = slice(max(0, -k), n - max(0, k))
            cols = slice(max(0, k), n - max(0, -k))
            self.flows.append((rows, cols, weight, j.rate))

    @staticmethod
    def start(rho0: DensityMatrix) -> np.ndarray:
        return np.diagonal(rho0.matrix).real.copy()

    def deriv(self, p: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros_like(p)
        for rows, cols, weight, rate in self.flows:
            g = _rate_at(rate, t)
            if g == 0.0:
                continue
            flow = (2.0 * g) * weight * p[cols]
            out[rows] += flow
            out[cols] -= flow
        return out

    @staticmethod
    def diagonal(p: np.ndarray) -> np.ndarray:
        return p

    @staticmethod
    def trace(p: np.ndarray) -> float:
        return float(p.sum())

    @staticmethod
    def symmetrise(p: np.ndarray) -> np.ndarray:
        return p

    @staticmethod
    def spectrum(p: np.ndarray):
        return np.diag(p), np.sort(p)


def _band_offset(m: np.ndarray) -> Optional[int]:
    """Offset k of the one band m[n, n+k] holding every nonzero, else None."""
    rows, cols = np.nonzero(m)
    ks = np.unique(cols - rows)
    if ks.size > 1:
        return None
    return int(ks[0]) if ks.size else 0


def _state_representation(gen: Generator, rho0: DensityMatrix):
    """Cheapest representation that holds the trajectory exactly.

    In the interaction picture H(t) drops out of the equation of motion,
    so real jumps keep a real state real, and band jumps keep a diagonal
    state diagonal. The energy currents then need only the diagonal of
    H(t), which a diagonal-ladder schedule supplies.
    """
    m = rho0.matrix
    if gen.picture != "interaction" or not gen._real_jumps or np.any(m.imag):
        return _MatrixState(gen, complex)
    offsets = [_band_offset(j.operator.matrix) for j in gen.jumps]
    if (
        gen.hamiltonian.levels is not None
        and None not in offsets
        and not np.any(m - np.diag(np.diagonal(m)))
    ):
        return _PopulationState(gen, offsets)
    return _MatrixState(gen, float)


def evolve(
    gen: Generator,
    rho0: DensityMatrix,
    t_final: float,
    dt: Optional[float] = None,
    snapshot_stride: Optional[int] = None,
) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta propagation with energy ledgers.

    The bath energy current Tr[L(rho)H] and drive power Tr[rho dH/dt] are
    integrated alongside the state with the same stage values, so the
    cumulative columns share the integrator's order of accuracy. Snapshots
    (every snapshot_stride steps, final step always included) are validated:
    a significantly negative eigenvalue raises PositivityLoss.

    The state is carried in the cheapest form the run keeps exact. Under
    an interaction-picture generator with real jumps a real rho0 stays
    real and is integrated in float arithmetic. If in addition every jump
    sits on a single band of the Fock basis, H(t) is a ladder schedule
    and rho0 is diagonal, only the level populations are
    integrated; they are then also the spectrum. Anything else runs on the
    complex matrix. Snapshots are complex DensityMatrix objects either way.
    """
    if rho0.dim != gen.dim:
        raise ValueError("state dimension mismatch")
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if dt is None:
        dt = _stability_dt(gen, t_final)
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    if n_steps > 20_000_000:
        raise ValueError(f"step count {n_steps} is unreasonable; enlarge dt")
    dt = t_final / n_steps
    if snapshot_stride is None:
        snapshot_stride = max(1, n_steps // 400)
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")

    _warn_if_drive_fast(gen, t_final)

    sched = gen.hamiltonian
    ladder = sched.levels is not None
    track_work = not sched.is_constant
    rep = _state_representation(gen, rho0)

    def heat_rate(k: np.ndarray, t: float) -> float:
        if ladder:
            return float((rep.diagonal(k) * sched.diagonal(t)).sum())
        return float(np.einsum("ij,ji->", k, sched.evaluate(t)).real)

    def work_rate(m: np.ndarray, t: float) -> float:
        if not track_work:
            return 0.0
        if ladder:
            return float((rep.diagonal(m) * sched.diagonal_derivative(t)).sum())
        return float(np.einsum("ij,ji->", m, sched.derivative(t)).real)

    rho = rep.start(rho0)
    e_d = 0.0
    w = 0.0

    times = [0.0]
    states = [rho0]
    diss = [0.0]
    work = [0.0]
    terr = [rho0.trace_error]

    def snapshot(step: int, m: np.ndarray) -> None:
        t = step * dt
        tr = rep.trace(m)
        err = abs(tr - 1.0)
        if not err <= 1e-8:  # NaN fails too
            raise TraceDrift(f"integrator trace drifted to {tr:.12f} at t={t:g}")
        x, eigs = rep.spectrum(rep.symmetrise(m / tr))
        if eigs[0] < -1e-9:
            raise PositivityLoss(
                f"negative eigenvalue {eigs[0]:.3e} at t={t:g}; "
                "shrink dt or raise the cutoff"
            )
        times.append(t)
        states.append(
            DensityMatrix(Operator(gen.dim, x), _spectrum=np.clip(eigs, 0.0, None))
        )
        diss.append(e_d)
        work.append(w)
        terr.append(err)

    for step in range(1, n_steps + 1):
        t0 = (step - 1) * dt
        th = t0 + 0.5 * dt
        t1 = t0 + dt

        k1 = rep.deriv(rho, t0)
        g1 = heat_rate(k1, t0)
        p1 = work_rate(rho, t0)

        r2 = rho + (0.5 * dt) * k1
        k2 = rep.deriv(r2, th)
        g2 = heat_rate(k2, th)
        p2 = work_rate(r2, th)

        r3 = rho + (0.5 * dt) * k2
        k3 = rep.deriv(r3, th)
        g3 = heat_rate(k3, th)
        p3 = work_rate(r3, th)

        r4 = rho + dt * k3
        k4 = rep.deriv(r4, t1)
        g4 = heat_rate(k4, t1)
        p4 = work_rate(r4, t1)

        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = rep.symmetrise(rho)  # scrub roundoff asymmetry
        e_d += (dt / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        w += (dt / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)

        if step % snapshot_stride == 0 or step == n_steps:
            snapshot(step, rho)

    return Trajectory(
        times=np.asarray(times),
        states=tuple(states),
        dissipated_cum=np.asarray(diss),
        work_cum=np.asarray(work),
        trace_errors=np.asarray(terr),
    )


# ---------------------------------------------------------------------------
# steady states


def superoperator(gen: Generator, t: float = 0.0, sparse: bool = False):
    """Matrix of the generator on row-major vectorised states.

    Built in CSR; sparse=False returns the same matrix as a dense array.
    """
    n = gen.dim.cutoff
    eye = scipy.sparse.identity(n, format="csr", dtype=complex)
    kron = functools.partial(scipy.sparse.kron, format="csr")
    total = scipy.sparse.csr_matrix((n * n, n * n), dtype=complex)
    if gen.picture == "schroedinger":
        h = scipy.sparse.csr_matrix(gen.hamiltonian.evaluate(t))
        total = total - 1j * (kron(h, eye) - kron(eye, h.T))
    for j in gen.jumps:
        g = _rate_at(j.rate, t)
        if g == 0.0:
            continue
        lm = scipy.sparse.csr_matrix(j.operator.matrix)
        ldl = lm.conj().T @ lm
        total = total + g * (
            2.0 * kron(lm, lm.conj()) - kron(ldl, eye) - kron(eye, ldl.T)
        )
    return total.tocsr() if sparse else total.toarray()


def steady_state(gen: Generator, *, t: float = 0.0) -> DensityMatrix:
    """Unique kernel state of the generator frozen at time t.

    One sparse LU factors the superoperator L bordered by the unit trace
    vector y = vec(1)/sqrt(n), M = [[L, y], [y^H, 0]]. As y^H L = 0, the
    solve M [x; mu] = [0; 1] gives the kernel vector. The same factors
    apply the pseudo-inverse L^+ (input projected off y, output off x) and
    its adjoint, so one svds gives the gap sigma_2(L) = 1 / ||L^+||_2.
    NonUniqueSteadyState is raised for an exactly singular M (degenerate
    or traceless kernel), for ||L x|| above RESIDUAL_TOL or NaN at the
    unit solve vector x (no kernel; never below sigma_min), for
    sigma_2 < GAP_TOL (kernel not isolated) and for a unit x with trace
    below 1e-8. SteadyStateResidual is raised when apply() leaves more
    than RESIDUAL_TOL on the normalised state.
    """
    n = gen.dim.cutoff
    size = n * n
    lmat = superoperator(gen, t=t, sparse=True)
    y = np.eye(n, dtype=complex).reshape(-1) / math.sqrt(n)
    y_col = scipy.sparse.csc_matrix(y[:, None])
    bordered = scipy.sparse.bmat([[lmat, y_col], [y_col.conj().T, None]], "csc")
    try:
        lu = scipy.sparse.linalg.splu(bordered)
    except RuntimeError as exc:  # exactly singular factor
        raise NonUniqueSteadyState(f"degenerate or traceless kernel: {exc}") from exc
    vec = lu.solve(np.append(np.zeros(size, dtype=complex), 1.0))[:size]
    vec = vec / np.linalg.norm(vec)
    miss = np.linalg.norm(lmat @ vec)
    if not miss <= RESIDUAL_TOL:
        raise NonUniqueSteadyState(f"no kernel vector: ||L x|| = {miss:.3e}")

    def solve(v: np.ndarray, trans: str, drop_in: np.ndarray, drop_out: np.ndarray):
        # bordered solve, unit vector drop_in (drop_out) projected out of
        # the input (output)
        v = np.append(v.ravel() - drop_in * np.vdot(drop_in, v.ravel()), 0.0)
        w = lu.solve(v, trans=trans)[:size]
        return w - drop_out * np.vdot(drop_out, w)

    pinv = scipy.sparse.linalg.LinearOperator(
        (size, size),
        matvec=lambda v: solve(v, "N", y, vec),
        rmatvec=lambda v: solve(v, "H", vec, y),
        dtype=complex,
    )
    # a generic start: vec(1) projects to zero, and an all-ones vector is
    # orthogonal to slow traceless population modes
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    # the gap only meets a threshold, so 1e-6 relative accuracy is ample;
    # a short Lanczos basis (ARPACK needs 1 < ncv < size) halves the solves
    gap = 1.0 / scipy.sparse.linalg.svds(
        pinv, k=1, ncv=min(8, size - 1), tol=1e-6, v0=v0,
        return_singular_vectors=False,
    )[0]
    if gap < GAP_TOL:
        raise NonUniqueSteadyState(f"kernel not isolated: next singular value {gap:.3e}")

    x = vec.reshape(n, n)
    x = 0.5 * (x + x.conj().T)
    tr = float(x.trace().real)
    if abs(tr) < 1e-8:
        raise NonUniqueSteadyState("kernel vector is traceless")
    x = x / tr
    resid = np.abs(apply(gen, x, t)).max()
    if resid > RESIDUAL_TOL:
        raise SteadyStateResidual(f"steady-state residual {resid:.3e} too large")
    return DensityMatrix(Operator(gen.dim, x))


# ---------------------------------------------------------------------------
# population relaxation as a Gaussian channel


def _binomial_table(x: float, size: int) -> np.ndarray:
    """B_x transposed: c[k, m] = C(k, m) x^m (1-x)^(k-m), so row k is
    Binomial(k, x).

    Built by the Pascal recurrence: row k+1 is (1-x) times row k plus x
    times row k moved one level up. Every term is nonnegative, so nothing
    cancels.
    """
    c = np.zeros((size, size))
    c[0, 0] = 1.0
    for k in range(size - 1):
        row = c[k, : k + 1]
        np.multiply(row, 1.0 - x, out=c[k + 1, : k + 1])
        c[k + 1, 1 : k + 2] += x * row
    return c


def relax_populations(
    p0: np.ndarray, nbar: float, kappa: float, t: float
) -> np.ndarray:
    """Exact level populations after damping toward occupation nbar for t.

    Thermal damping for a time t is the phase-insensitive Gaussian channel
    with transmissivity eta = exp(-2 kappa t) and added noise (1-eta) nbar.
    It splits into pure loss eta/G followed by a quantum-limited amplifier
    of gain G = 1 + (1-eta) nbar (Caruso, Giovannetti & Holevo, NJP 8, 310
    (2006); Garcia-Patron et al., PRL 108, 110505 (2012)). On populations
    the loss is binomial thinning, B_x[m, k] = C(k, m) x^m (1-x)^(k-m) at
    x = eta/G, and the amplifier is A_G = B_(1/G)^T / G. Both are
    nonnegative stochastic matrices, so the result needs no eigensolve and
    no rescaling. Mass the amplifier maps past the cutoff is truncation
    error: above fock.TOL_LEAK it raises CutoffLeak, below it the result is
    renormalised.
    """
    p0 = np.asarray(p0, dtype=float)
    if not abs(p0.sum() - 1.0) <= 1e-8:  # a NaN sum fails too
        raise ValueError("populations must sum to 1")
    if not (nbar >= 0 and kappa >= 0 and t >= 0):
        raise ValueError("nbar, kappa and t must be nonnegative")
    eta = math.exp(-2.0 * kappa * t)
    gain = 1.0 + (1.0 - eta) * nbar
    lost = _binomial_table(eta / gain, p0.size).T @ p0
    out = _binomial_table(1.0 / gain, p0.size) @ lost / gain
    leak = 1.0 - out.sum()
    if leak > TOL_LEAK:
        raise CutoffLeak(
            f"relaxation toward nbar={nbar:g} leaks {leak:.3e} past cutoff "
            f"{p0.size} (tolerance {TOL_LEAK:g}); raise the cutoff"
        )
    return out / out.sum()
