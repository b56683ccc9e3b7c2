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
import itertools
import math
import warnings
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    CutoffLeak,
    NonUniqueSteadyState,
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
    _check_unitary,
    _squeeze_matrix,
    as_dim,
    squeezed_thermal_state,
)

RateLike = Union[float, Callable[[float], float]]

GAP_TOL = 1e-6
RESIDUAL_TOL = 1e-10
# steady_state takes one route at every cutoff; this only names the
# small/large split that benchmark spans report
DENSE_STEADY_LIMIT = 32
SLOW_DRIVE_FRAC = 0.01
# _thermal_contact's step h, as 2 kappa h (the mean's relaxation per step)
_CONTACT_STEP = 0.005
# classical RK4 as (node c, weight 6 b) per stage
_RK4_TABLEAU = ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0))
_BLOCK = 32  # snapshots stacked at once, which bounds the temporaries


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

    def trace_with(self, m: np.ndarray, t: float, derivative: bool = False) -> float:
        """Tr[m H(t)], or Tr[m dH/dt] with derivative=True; a ladder
        schedule reads only the diagonal of m."""
        if self.levels is not None:
            d = self.diagonal_derivative(t) if derivative else self.diagonal(t)
            return float((m.diagonal().real * d).sum())
        h = self.derivative(t) if derivative else self.evaluate(t)
        return float(np.einsum("ij,ji->", m, h).real)

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
    "custom"); invariant states and entropy routes key off it, and evolve
    runs a tagged bath, whose ladder schedule carries omega(t), in its own
    frame (custom ones on the lab matrix).
    kappa/nbar/r/temperature are bookkeeping metadata mirroring the
    construction parameters: a tagged bath carries its squeezing r (0.0
    for a thermal one), and nbar is None when the occupation varies in
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
    r: float = 0.0
    occupation_fn: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("thermal", "squeezed", "custom"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind != "custom" and self.nbar is None and self.occupation_fn is None:
            raise ValueError(f"a {self.kind} generator needs nbar or occupation_fn")
        if self.kind == "squeezed" and not self.r:
            raise ValueError("a squeezed generator needs a nonzero r")
        if self.kind == "thermal" and self.r:
            raise ValueError("a thermal generator has r = 0")
        sched = self.hamiltonian
        ladder = (sched.levels, sched.frequency, sched.frequency_dot)
        if self.kind != "custom" and any(part is None for part in ladder):
            raise ValueError(f"a {self.kind} bath needs levels and frequency metadata")
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

    def occupation_at(self, t: float) -> Optional[float]:
        if self.occupation_fn is not None:
            return float(self.occupation_fn(t))
        return self.nbar

    @functools.cached_property
    def _terms(self) -> tuple:
        """Per-jump dense factors (L, L^dag, L^dag L, rate), built once."""
        terms = []
        for j in self.jumps:
            lm, ld = j.operator.matrix, j.operator.matrix.conj().T.copy()
            terms.append((lm, ld, ld @ lm, j.rate))
        return tuple(terms)


def apply(gen: Generator, rho, t: float = 0.0, *, hermitian: bool = False) -> np.ndarray:
    """Action of the generator on a state (ndarray or DensityMatrix), as a
    complex array.

    hermitian=True promises the input is Hermitian, letting the
    anticommutator half be mirrored instead of recomputed; the lab-matrix
    RK4 of a custom generator uses this on its stage values.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    out = np.zeros(m.shape, dtype=complex)
    csum = np.zeros(m.shape, dtype=complex)
    for lm, ld, ldl, rate in gen._terms:
        g = _rate_at(rate, t)
        if g != 0.0:
            out += (2.0 * g) * ((lm @ m) @ ld)
            csum += g * ldl
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

    r = 0 is the thermal bath (b = a exactly), tagged "thermal"; any
    other r is tagged "squeezed". A fixed nbar, a static frequency or
    T = 0 (zero occupation at every frequency) gives constant rates.
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
    else:
        w = float(omega)
        schedule = HamiltonianSchedule(
            dim=d,
            is_constant=True,
            frequency=lambda t: w,
            frequency_dot=lambda t: 0.0,
            levels=np.arange(d.cutoff, dtype=float),
        )
        if nbar is None:
            nbar = bose_occupation(w, temperature)

    if temperature == 0:
        nbar = 0.0  # zero occupation at every frequency
    occupation_fn = None
    if nbar is not None:
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
        r=float(r),
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

    The squeezed thermal state for the tagged kinds (r = 0 is the thermal
    state exactly); numeric kernel search for custom generators.
    """
    if gen.kind == "custom":
        return steady_state(gen, t=t)
    return squeezed_thermal_state(gen.occupation_at(t), gen.r, gen.dim)


def conjugate_generator(gen: Generator, unitary: Operator) -> Generator:
    """Rotate the generator into the frame rho_tilde = U^dag rho U.

    Every jump becomes U^dag L U and H(t) becomes U^dag H(t) U; rates and
    picture are untouched. The result is tagged "custom": no analytic
    shortcut is assumed for the rotated form.
    """
    if unitary.dim != gen.dim:
        raise ValueError("dimension mismatch")
    u = unitary.matrix
    _check_unitary(u, "conjugating operator")
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
    )


# ---------------------------------------------------------------------------
# time evolution


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Snapshots of an evolve() run plus co-integrated energy currents.

    dissipated_cum[i] = integral of Tr[L(rho) H] up to times[i] (energy in
    through the bath coupling); work_cum[i] = integral of Tr[rho dH/dt].
    squeezed_heat_cum[i] = integral of omega(t) Tr[L(rho) S n S^dag], the
    same flow counted in the energy of the mode a tagged bath damps, whose
    frozen invariant has ln rho_inv = -(omega/T) S n S^dag - ln Z. Only a
    tagged bath with a swept occupation fills it (None otherwise); at r = 0
    (S = 1) it equals dissipated_cum up to roundoff.
    """

    times: np.ndarray
    states: tuple
    dissipated_cum: np.ndarray
    work_cum: np.ndarray
    trace_errors: np.ndarray
    squeezed_heat_cum: Optional[np.ndarray] = None

    @property
    def final_state(self) -> DensityMatrix:
        return self.states[-1]


def _stability_dt(gen: Generator, t_final: float) -> float:
    """Step small enough that the stiffest decay mode stays accurate.

    The margin below the stability edge keeps local truncation error on
    near-zero eigenvalues under the positivity gate even for pure states.
    It is the RK4 step of custom generators and swept tagged baths; for a
    constant tagged bath it only sets the snapshot grid.
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


def _warn_if_drive_fast(gen: Generator, dt: float, n_steps: int) -> None:
    """Warn at the first step time k*dt where |d(omega)/dt|/omega exceeds
    SLOW_DRIVE_FRAC * kappa."""
    sched = gen.hamiltonian
    if sched.is_constant or None in (sched.frequency, sched.frequency_dot, gen.kappa):
        return
    for k in range(n_steps + 1):
        t = k * dt
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


def evolve(
    gen: Generator,
    rho0: DensityMatrix,
    t_final: float,
    dt: Optional[float] = None,
    snapshot_stride: Optional[int] = None,
) -> Trajectory:
    """Propagate a state with energy ledgers, snapshot by snapshot.

    The run takes n = ceil(t_final / dt) steps of equal length (dt from
    _stability_dt by default) and keeps a snapshot every snapshot_stride
    steps, the final step always included. Two routes fill that grid:

    - A tagged bath runs on the bands of its frame rho~ = S^T rho S
      (_frame_run): as an exact channel when its rates and ladder H are
      constant (dt then only sets the grid), else by fixed-step RK4 at dt.
    - A custom generator runs fixed-step RK4 at dt on the complex density
      matrix (_rk4_run).

    The bath energy current Tr[L(rho)H] and drive power Tr[rho dH/dt] are
    integrated with the state (never taken as a difference of energies).
    Each snapshot is validated, the first failure in time order raising: a
    trace off by more than 1e-8 TraceDrift, an eigenvalue below -1e-9 or a
    non-finite one PositivityLoss (read _BLOCK snapshots at a time). It
    keeps that gate's unclipped spectrum, so min_eig shows the margin to
    the gate, and is not validated again: snapshots are complex
    DensityMatrix objects on both routes. A tagged bath with a swept
    occupation also fills squeezed_heat_cum, which ledger.sigma_series reads.
    """
    if rho0.dim != gen.dim:
        raise ValueError("state dimension mismatch")
    if not (t_final > 0 and math.isfinite(t_final)):
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if dt is None:
        dt = _stability_dt(gen, t_final)
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if t_final / dt - 1e-12 > 20_000_000:  # as a float: a tiny dt is a huge integer
        raise ValueError(f"step count {t_final / dt:.3g} is unreasonable; enlarge dt")
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    dt = t_final / n_steps
    if snapshot_stride is None:
        snapshot_stride = max(1, n_steps // 400)
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")

    _warn_if_drive_fast(gen, dt, n_steps)

    tagged = gen.kind != "custom"
    marks = [*range(snapshot_stride, n_steps, snapshot_stride), n_steps]
    run = (_frame_run if tagged else _rk4_run)(gen, rho0, dt, marks)

    times, states, cum, terr = [0.0], [rho0], [(0.0, 0.0, 0.0)], [rho0.trace_error]
    stack = None  # the snapshots past states over their traces, reused per block

    def flush():
        if len(times) > (done := len(states)):
            states.extend(_gate_block(gen.dim, stack[:len(times) - done], times[done:]))

    for step, rho, flows in run:
        t = step * dt
        tr = float(rho.trace().real)
        err = abs(tr - 1.0)
        if not err <= 1e-8:  # NaN fails too
            flush()  # an earlier positivity failure wins
            raise TraceDrift(f"integrator trace drifted to {tr:.12f} at t={t:g}")
        if stack is None:
            stack = np.empty((_BLOCK,) + rho.shape, dtype=rho.dtype)
        np.divide(rho, tr, out=stack[len(times) - len(states)])
        times.append(t)
        cum.append(flows)
        terr.append(err)
        if len(times) - len(states) == _BLOCK:
            flush()
    flush()

    diss, work, phi = np.array(cum).T.copy()
    return Trajectory(
        times=np.asarray(times),
        states=tuple(states),
        dissipated_cum=diss,
        work_cum=work,
        trace_errors=np.asarray(terr),
        squeezed_heat_cum=phi if tagged and gen.occupation_fn is not None else None,
    )


def _gate_block(dim: HilbertDim, x: np.ndarray, times: list) -> list:
    """Normalised Hermitian snapshots x as DensityMatrix objects: eigvalsh per
    sector (the even and odd levels if every entry between them is 0.0), and
    PositivityLoss names the first that fails evolve's gate."""
    finite = np.isfinite(x).all(axis=(1, 2))
    ok = int(np.append(finite, False).argmin())  # the first non-finite, else all
    split = not (x[:ok, 0::2, 1::2].any() or x[:ok, 1::2, 0::2].any())
    sectors = (slice(0, None, 2), slice(1, None, 2)) if split else (slice(None),)
    eigs = np.sort(np.hstack([np.linalg.eigvalsh(x[:ok, q, q]) for q in sectors]))
    good = (eigs[:, 0] >= -1e-9) & np.isfinite(eigs).all(axis=1)  # NaN fails too
    j = int(np.append(good, False).argmin())  # first failure, else ok
    if j < len(x):  # past ok the matrix itself is not finite
        raise PositivityLoss(f"negative or non-finite eigenvalue "
                             f"{eigs[j, 0] if j < ok else math.nan:.3e} at "
                             f"t={times[j]:g}; shrink dt or raise the cutoff")
    return [DensityMatrix._gated(dim, m, e) for m, e in zip(x, eigs)]


def _rk4(at: Callable, deriv: Callable, flow_rates: Callable, y, dt: float,
         marks: list, scrub: Callable = lambda y: y):
    """Fixed-step classical RK4 of dy/dt = deriv(y, at(t)); yields (step, y,
    flows) at each step in marks, the flows integrated from
    flow_rates(y, dy/dt, at(t)) at the same stages, at(t) once per distinct
    stage time. scrub maps y after a step."""
    flows, step, t_at = (0.0, 0.0, 0.0), 0, None
    for mark in marks:
        for step in range(step + 1, mark + 1):
            t0 = (step - 1) * dt
            for c, weight in _RK4_TABLEAU:
                t = t0 + c * dt
                if t != t_at:
                    coef, t_at = at(t), t
                m = y if c == 0.0 else y + (c * dt) * k
                k = deriv(m, coef)
                f = flow_rates(m, k, coef)
                if c == 0.0:
                    dk, df = k, f
                else:
                    dk = dk + weight * k
                    df = [a + weight * b for a, b in zip(df, f)]
            y = scrub(y + (dt / 6.0) * dk)
            flows = [a + (dt / 6.0) * b for a, b in zip(flows, df)]
        yield mark, y, flows


def _rk4_run(gen: Generator, rho0: DensityMatrix, dt: float, marks: list):
    """RK4 of a custom generator on the complex density matrix; yields
    (step, rho, (E_d, W, 0)) at each step in marks: Tr[k H], Tr[m dH/dt]."""
    sched = gen.hamiltonian

    def flow_rates(m: np.ndarray, k: np.ndarray, t: float) -> tuple:
        work = 0.0 if sched.is_constant else sched.trace_with(m, t, derivative=True)
        return sched.trace_with(k, t), work, 0.0

    return _rk4(lambda t: t, lambda m, t: apply(gen, m, t, hermitian=True),
                flow_rates, rho0.matrix, dt, marks, lambda m: 0.5 * (m + m.conj().T))


def _band_index(n: int) -> tuple:
    """(k, i) for every upper-triangle entry rho[i, i+k], band by band."""
    return np.nonzero(np.arange(n)[None, :] < n - np.arange(n)[:, None])


def _band_terms(k: np.ndarray, i: np.ndarray, n: int) -> tuple:
    """(loss_down, loss_up, rung) at entries (k, i) of _band_index(n):
    damping of a at rates down (jump a) and up (a^dag) keeps each band
    x_k[i] = rho~[i, i+k] to itself, a tridiagonal block,

        dx_k[i]/dt = -(down loss_down + up loss_up)[k, i] x_k[i]
                     + down rung[k, i+1] x_k[i+1] + up rung[k, i] x_k[i-1],

    rung[k, i] = 2 sqrt(i (i+k)) (zero at each band's start); loss_up reads
    the truncated a a^dag, whose top level is 0."""
    c = np.arange(1.0, n + 1.0)
    c[-1] = 0.0  # the diagonal of the truncated a a^dag
    return 2 * i + k, c[i] + c[i + k], 2.0 * np.sqrt(i * (i + k))


def _band_channel(gen: Generator, s: np.ndarray, interval: float,
                  bands: np.ndarray) -> tuple:
    """Exact propagator of a constant-rate tagged bath over one interval.

    One batched expm of the blocks T_k^T t of _band_terms, each bordered by
    the column T_k^T h_k t (h_k the band-k entries of S^T H S, S = s), gives
    exp(T_k t) and weights f_k whose dot with x_k(0) is band k's share of
    the bath flow, the integral of Tr[L(rho) H] over the interval.

    Band 0 keeps the trace, so its block has the stationary populations p
    (geometric, ratio N/(N+1)) with 1^T T_0 = 0. Squaring in expm doubles
    any roundoff on that conserved mode at each step, so the block is
    deflated to T_0 - sigma p 1^T (sigma = 2 kappa), whose modes all decay,
    and p 1^T is added back. Past an interval of 1e20 over the largest rate
    every decaying mode has underflowed, so longer intervals are capped
    there; expm's norm estimates would overflow near 1e77.

    Returns the propagators and weights of the given bands as (b, n, n)
    and (b, n) arrays; rows past a band's length are padding.
    """
    n = gen.dim.cutoff
    k, i = _band_index(n)
    loss_down, loss_up, rung = _band_terms(k, i, n)
    down = gen.kappa * (gen.nbar + 1.0)
    up = gen.kappa * gen.nbar
    rates = down * loss_down + up * loss_up
    t = min(interval, 1e20 / rates.max())
    blocks = np.zeros((n, n + 1, n + 1))
    blocks[k, i, i] = -rates * t
    inner = i > 0  # x_k[i-1] and x_k[i] are both in band k
    kk, ii, rung_t = k[inner], i[inner], t * rung[inner]
    blocks[kk, ii, ii - 1] = down * rung_t  # T[i-1, i]: x_k[i] decays into x_k[i-1]
    blocks[kk, ii - 1, ii] = up * rung_t  # T[i, i-1]: x_k[i-1] excites into x_k[i]
    h = (s.T * gen.hamiltonian.diagonal(0.0)) @ s
    h_bands = np.zeros((n, n))
    h_bands[k, i] = h[i + k, i]
    blocks[:, :n, n] = np.einsum("kij,kj->ki", blocks[:, :n, :n], h_bands)
    p = (up / down) ** np.arange(n)
    p /= p.sum()
    sigma_t = 2.0 * gen.kappa * t
    blocks[0, :n, :n] -= sigma_t * p  # (T_0 - sigma p 1^T)^T t
    e = scipy.linalg.expm(blocks)
    prop = e[:, :n, :n].transpose(0, 2, 1).copy()
    prop[0] += -math.expm1(-sigma_t) * p[:, None]
    weights = e[:, :n, n].copy()
    weights[1:] *= 2.0  # band -k adds the complex conjugate of band k
    return prop[bands], weights[bands]


def _channel_steps(gen: Generator, x: np.ndarray, k: np.ndarray, i: np.ndarray,
                   s: np.ndarray, dt: float, marks: list):
    """_band_channel from the entries x at (k, i) of _band_index (whole
    bands); yields (step, x, (E_d, 0, 0)) at each step in marks, with one
    real propagator per interval length (x as (re, im) columns)."""
    n = gen.dim.cutoff
    bands = np.unique(k)
    rows = np.searchsorted(bands, k) * n + i  # x's rows in z, band by band
    z = np.zeros((len(bands) * n, 2 if np.iscomplexobj(x) else 1))
    z[rows] = x.view(float).reshape(len(x), -1)
    tables, e_d, step = {}, 0.0, 0
    for mark in marks:
        if mark - step not in tables:
            tables[mark - step] = _band_channel(gen, s, (mark - step) * dt, bands)
        prop, weights = tables[mark - step]
        e_d += float(np.vdot(weights, z[:, 0]))
        z = (prop @ z.reshape(len(bands), n, -1)).reshape(z.shape)
        step = mark
        yield mark, z[rows].view(x.dtype).ravel(), (e_d, 0.0, 0.0)


def _band_rk4(gen: Generator, x: np.ndarray, k: np.ndarray, i: np.ndarray,
              s: np.ndarray, dt: float, marks: list):
    """RK4 of a swept tagged bath on the entries x at (k, i) of _band_index
    (whole bands, band 0 first); yields (step, x, (E_d, W, Phi)) at marks.

    With H = omega(t) diag(levels) and h~ = S^T diag(levels) S, the flows
    are E_d = omega Tr[k~ h~], W = omega_dot Tr[m~ h~] and the
    squeezed-mode heat Phi = omega Tr[k~ S^T (S n S^T) S] = omega Tr[k~ n].
    """
    n = gen.dim.cutoff
    sched = gen.hamiltonian
    loss_down, loss_up, rung = _band_terms(k, i, n)
    rung = rung[1:]  # zero at each band's start: the shifts stay in band
    h = ((s.T * sched.levels) @ s)[i + k, i]
    h[k > 0] *= 2.0  # band -k adds the complex conjugate of band k
    number = np.arange(n, dtype=float)

    def at(t: float) -> tuple:
        occ = gen.occupation_at(t)
        down, up = gen.kappa * (occ + 1.0), gen.kappa * occ
        return (-(down * loss_down + up * loss_up), down * rung, up * rung,
                sched.frequency(t), sched.frequency_dot(t))

    def deriv(x: np.ndarray, coef: tuple) -> np.ndarray:
        out = coef[0] * x
        out[:-1] += coef[1] * x[1:]
        out[1:] += coef[2] * x[:-1]
        return out

    def flow_rates(m: np.ndarray, dx: np.ndarray, coef: tuple) -> tuple:
        w = coef[3]  # Phi reads band 0, the first n entries
        return (w * np.vdot(h, dx).real, coef[4] * np.vdot(h, m).real,
                w * np.vdot(number, dx[:n]).real)

    return _rk4(at, deriv, flow_rates, x, dt, marks)


def _frame_run(gen: Generator, rho0: DensityMatrix, dt: float, marks: list):
    """A tagged bath in its frame rho~ = S^T rho S from rho0; yields
    (step, rho, (E_d, W, Phi)) at each step in marks.

    S = fock._squeeze_matrix(r) is the identity at r = 0 and b = S a S^T up
    to truncation, so in the frame the bath damps a at down = kappa (N+1)
    and up = kappa N, band by band (_band_terms; Caruso, Giovannetti &
    Holevo, NJP 8, 310 (2006)). The bands are one vector, real for a real
    rho0, less those exactly zero at the start (they stay zero). Constant
    rates and H take the exact channel, anything swept RK4. Lab matrices
    are built _BLOCK at a time (per parity sector if no band is odd) in one
    buffer: each is overwritten when the next block is built.
    """
    n = gen.dim.cutoff
    k, i = _band_index(n)
    s = _squeeze_matrix(gen.r, n)
    x = (s.T @ rho0.matrix @ s)[i, i + k]
    x[k == 0] = x[k == 0].real  # the diagonal is real
    if not np.any(x.imag):
        x = x.real.copy()
    live = np.isin(k, k[x != 0])
    k, i, x = k[live], i[live], x[live]
    exact = gen.occupation_fn is None and gen.hamiltonian.is_constant
    run = (_channel_steps if exact else _band_rk4)(gen, x, k, i, s, dt, marks)
    upper, lower = i * n + i + k, (i + k) * n + i  # flat places in a lab matrix
    parity = (slice(None),) if np.any(k % 2) else (slice(0, None, 2), slice(1, None, 2))
    sectors = [(q, s[q, q].copy()) for q in parity] if gen.r else []  # S = 1 at r = 0
    buf = np.empty((_BLOCK, n, n), dtype=x.dtype)

    def lab(block: list) -> np.ndarray:  # its temporaries die before the yields
        xs, rho = np.array([x for _, x, _ in block]), buf[:len(block)]
        flat = rho.reshape(len(block), -1)
        flat[:] = 0.0
        flat[:, lower] = xs.conj()
        flat[:, upper] = xs
        for q, sq in sectors:
            f = sq @ np.ascontiguousarray(rho[:, q, q]) @ sq.T
            rho[:, q, q] = 0.5 * (f + f.conj().swapaxes(1, 2))  # scrub asymmetry
        return rho

    while block := list(itertools.islice(run, _BLOCK)):
        for (mark, _, flows), m in zip(block, lab(block)):
            yield mark, m, flows


# ---------------------------------------------------------------------------
# steady states


def superoperator(gen: Generator, t: float = 0.0) -> scipy.sparse.csr_matrix:
    """CSR matrix of the generator on row-major vectorised states."""
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
    return total.tocsr()


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
    lmat = superoperator(gen, t=t)
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


def _thermal_contact(gen: Generator, n0: float, t_final: float) -> tuple:
    """Mean occupation, heat and work of a thermal contact on a swept ladder.

    gen is a tagged bath generator, a squeezed one giving the contact of
    its passive frame: only kappa, N(t) (which may follow omega(t)) and
    omega(t) enter. Such a contact is one phase-insensitive channel, so its
    mean obeys dn/dt = -2 kappa (n - N(t)) on its own. Fixed-step RK4
    integrates n from n0 together with the heat (the integral of omega dn)
    and the work (the integral of omega_dot n dt) from the same stage
    values, and warns like evolve when the sweep is too fast. The step
    resolves the faster of the relaxation 2 kappa and the sweep
    |omega_dot|/omega, read on the grid the relaxation alone would take.
    Returns (n(t_final), heat, work).
    """
    sched = gen.hamiltonian
    rate = 2.0 * gen.kappa
    n_steps = max(50, math.ceil(rate * t_final / _CONTACT_STEP))
    for t in np.linspace(0.0, t_final, n_steps + 1):
        sweep = abs(sched.frequency_dot(t)) / sched.frequency(t)
        n_steps = max(n_steps, math.ceil(sweep * t_final / _CONTACT_STEP))
    h = t_final / n_steps
    _warn_if_drive_fast(gen, h, n_steps)
    grid = [0.5 * h * j for j in range(2 * n_steps + 1)]
    occ = [gen.occupation_at(t) for t in grid]
    w = [sched.frequency(t) for t in grid]
    wdot = [sched.frequency_dot(t) for t in grid]
    n, heat, work = float(n0), 0.0, 0.0
    for a in range(0, 2 * n_steps, 2):
        b, c = a + 1, a + 2
        k1 = -rate * (n - occ[a])
        n2 = n + 0.5 * h * k1
        k2 = -rate * (n2 - occ[b])
        n3 = n + 0.5 * h * k2
        k3 = -rate * (n3 - occ[b])
        n4 = n + h * k3
        k4 = -rate * (n4 - occ[c])
        heat += (h / 6.0) * (w[a] * k1 + 2.0 * w[b] * (k2 + k3) + w[c] * k4)
        work += (h / 6.0) * (wdot[a] * n + 2.0 * wdot[b] * (n2 + n3) + wdot[c] * n4)
        n += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return n, heat, work
