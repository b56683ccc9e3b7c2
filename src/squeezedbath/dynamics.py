"""Markovian dissipators, time evolution and steady states.

Every generator has one standard form (Alicki & Lendi, LNP 286 (1987)),

    L(rho) = sum_k w_k(t) [F_k rho + rho F_k^dag + 2 L_k rho L_k^dag],

a list of (weight, F, L) terms (Generator._terms) that apply,
superoperator and steady_state all read. A JumpTerm (L, rate) is the term
F = -L^dag L with that L, weighted by its rate, so it contributes

    rate * (2 L rho L^dag - L^dag L rho - rho L^dag L)

to d(rho)/dt; a schroedinger-picture H(t) = omega(t) M is the term
F = -i M with no L, weighted by omega(t). With the damping pair
{(a, kappa(nbar+1)), (a^dag, kappa nbar)} this makes amplitudes decay at
kappa and populations relax toward nbar at 2*kappa.

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
from typing import Callable, Iterator, Optional, Union

import numpy as np

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
    TOL_PSD,
    DensityMatrix,
    DimLike,
    HilbertDim,
    Operator,
    _check_unitary,
    _scipy,
    _squeeze_matrix,
    annihilation,
    as_dim,
    squeezed_thermal_state,
)

RateLike = Union[float, Callable[[float], float]]

GAP_TOL = 1e-6
RESIDUAL_TOL = 1e-10
DRIFT_TOL = 1e-8  # evolve's gate on a snapshot's trace before normalising
# steady_state takes one route at every cutoff; this only names the
# small/large split that benchmark spans report
DENSE_STEADY_LIMIT = 32
SLOW_DRIVE_FRAC = 0.01
# _thermal_contact's step h, as 2 kappa h (the mean's relaxation per step)
_CONTACT_STEP = 0.005
# classical RK4 as (node c, weight 6 b) per stage
_RK4_TABLEAU = ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0))
_BLOCK = 32  # snapshots stacked at once, which bounds the temporaries
# levels per chunk of relax_populations' channels: one Pascal table this size
_PASCAL_CHUNK = 64
# levels p of K's rows (p, r >= p) formed at once by _real_piece, which
# bounds its temporaries
_PIECE_LEVELS = 8


def bose_occupation(omega: float, temperature: float) -> float:
    """Planck occupation 1/(exp(omega/T) - 1); zero at T = 0.

    Raises ValueError unless omega is positive and finite and T is
    nonnegative and finite, and when omega/T is so small that the
    occupation overflows.
    """
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be nonnegative and finite, got {temperature}")
    if temperature == 0:
        return 0.0
    ratio = omega / temperature
    if ratio > 700.0:  # expm1 would overflow; e^-ratio is exact to rounding
        return math.exp(-ratio)
    x = math.expm1(ratio)
    occupation = 1.0 / x if x else math.inf
    if occupation == math.inf:
        raise ValueError(f"occupation overflows at omega={omega}, T={temperature}")
    return occupation


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
        """The rate at time t; a callable must give a finite, nonnegative value."""
        if not callable(self.rate):
            return self.rate
        g = float(self.rate(t))
        if not (math.isfinite(g) and g >= 0):
            raise ValueError(f"jump rate is {g} at t={t}; must be finite and >= 0")
        return g


@dataclasses.dataclass(frozen=True)
class HamiltonianSchedule:
    """H(t) = frequency(t) * matrix and dH/dt = frequency_dot(t) * matrix,
    a fixed matrix M under a swept frequency (M itself without one).

    M is validated once through Operator, and must be Hermitian: ValueError
    when max|M - M^dag| exceeds 1e-12 max(max|M|, 1), as -i[H, .] would
    then not preserve Hermiticity. levels is M's real diagonal when M is
    diagonal (a ladder, read by diagonal), else None.
    """

    dim: HilbertDim
    matrix: np.ndarray
    is_constant: bool = False
    frequency: Optional[Callable[[float], float]] = None
    frequency_dot: Optional[Callable[[float], float]] = None
    levels: Optional[np.ndarray] = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if (self.frequency is None) != (self.frequency_dot is None):
            raise ValueError("give frequency and frequency_dot together")
        m = Operator(self.dim, self.matrix).matrix
        drift, scale = float(np.abs(m - m.conj().T).max()), float(np.abs(m).max())
        if drift > 1e-12 * max(scale, 1.0):
            raise ValueError(f"M is not Hermitian, so -i[H(t), .] does not preserve "
                             f"Hermiticity: max|M - M^dag| = {drift:.3e} against "
                             f"max|M| = {scale:.3e}")
        diagonal = not np.any(m - np.diag(np.diagonal(m)))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "levels", np.diagonal(m).real.copy() if diagonal else None)

    def _scale(self, t: float, derivative: bool = False) -> float:
        """omega(t), or d(omega)/dt with derivative=True (1 and 0 without
        a frequency)."""
        if self.frequency is None:
            return 0.0 if derivative else 1.0
        return (self.frequency_dot if derivative else self.frequency)(t)

    def diagonal(self, t: float) -> np.ndarray:
        """Diagonal of H(t) for a ladder schedule."""
        return self._scale(t) * self.levels

    def evaluate(self, t: float) -> np.ndarray:
        return self._scale(t) * self.matrix

    def derivative(self, t: float) -> np.ndarray:
        return self._scale(t, True) * self.matrix

    def trace_with(self, m: np.ndarray, t: float, derivative: bool = False) -> float:
        """Tr[m H(t)], or Tr[m dH/dt] with derivative=True; a ladder
        schedule reads only the diagonal of m."""
        w = self._scale(t, derivative)
        if self.levels is not None:
            return float((m.diagonal().real * (w * self.levels)).sum())
        return float((w * np.einsum("ij,ji->", m, self.matrix)).real)


def constant_hamiltonian(op: Operator) -> HamiltonianSchedule:
    return HamiltonianSchedule(dim=op.dim, matrix=op.matrix, is_constant=True)


def oscillator_schedule(
    frequency: Callable[[float], float],
    frequency_dot: Callable[[float], float],
    dim: DimLike = DEFAULT_CUTOFF,
) -> HamiltonianSchedule:
    """H(t) = frequency(t) * n_hat for a swept harmonic ladder."""
    d = as_dim(dim)
    return HamiltonianSchedule(
        dim=d,
        matrix=np.diag(np.arange(d.cutoff, dtype=float)),
        frequency=frequency,
        frequency_dot=frequency_dot,
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
        if self.kind != "custom" and (sched.levels is None or sched.frequency is None):
            raise ValueError(f"a {self.kind} bath needs levels and frequency metadata")
        # sigma and the ledger divide a swept occupation's heat by T
        if self.kind != "custom" and self.temperature is None and self.occupation_fn:
            raise ValueError(f"a {self.kind} bath with occupation_fn needs a temperature")
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
        """(weight, F, L) of each term of the standard form, built once:
        F = -i M with L None for a schroedinger-picture H(t) = omega(t) M,
        weighted by omega(t), then F = -L^dag L and L for each jump,
        weighted by its rate; weight(t) is the term's factor at t."""
        terms = []
        if self.picture == "schroedinger":
            sched = self.hamiltonian
            terms.append((sched._scale, -1j * sched.matrix, None))
        for j in self.jumps:
            lm = j.operator.matrix
            terms.append((j.rate_at, -(lm.conj().T @ lm), lm))
        return tuple(terms)


def apply(gen: Generator, rho, t: float = 0.0, *, hermitian: bool = False) -> np.ndarray:
    """Action of the generator on a state (ndarray or DensityMatrix), as a
    complex array: the weighted F terms summed into one matrix f give
    f rho + rho f^dag, and each L term 2 g L rho L^dag.

    hermitian=True promises the input is Hermitian, letting rho f^dag be
    mirrored from f rho instead of recomputed; the lab-matrix RK4 of a
    custom generator uses this on its stage values.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    out = np.zeros(m.shape, dtype=complex)
    f = np.zeros(m.shape, dtype=complex)
    for weight, fk, lm in gen._terms:
        g = weight(t)
        if g != 0.0:
            f += g * fk
            if lm is not None:
                out += (2.0 * g) * ((lm @ m) @ lm.conj().T)
    left = f @ m
    out += left
    out += left.conj().T if hermitian else m @ f.conj().T
    return out


def squeezed_mode_operator(r: float, dim: DimLike = DEFAULT_CUTOFF) -> Operator:
    """b = a cosh(r) + a^dag sinh(r), the mode the squeezed bath damps."""
    d = as_dim(dim)
    a = annihilation(d).matrix
    return Operator(d, math.cosh(r) * a + math.sinh(r) * a.T)


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
        schedule = dataclasses.replace(
            oscillator_schedule(lambda t: w, lambda t: 0.0, d), is_constant=True
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

    Every jump becomes U^dag L U and H(t) = omega(t) M becomes
    omega(t) U^dag M U, so the schedule keeps omega(t); rates and picture
    are untouched. The result is tagged "custom": no analytic shortcut is
    assumed for the rotated form.
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
    sched = gen.hamiltonian
    return Generator(
        dim=gen.dim,
        hamiltonian=dataclasses.replace(sched, matrix=ud @ sched.matrix @ u),
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

    states[0] is the caller's rho0; the later snapshots are float64 for a
    real rho0 under a tagged bath, else complex128, and those that keep
    photon-number parity are stored as their two parity sectors (see
    evolve).
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


def _warn_if_drive_fast(gen: Generator, samples) -> None:
    """Warn at the first (t, omega, d(omega)/dt) of samples, read in order,
    where |d(omega)/dt|/omega exceeds SLOW_DRIVE_FRAC * kappa."""
    sched = gen.hamiltonian
    if sched.is_constant or None in (sched.frequency, gen.kappa):
        return
    for t, w, wdot in samples:
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
    A route hands over blocks of up to _BLOCK snapshots. Each snapshot is
    validated, the first failure in time order raising: a trace off by
    more than DRIFT_TOL TraceDrift, an eigenvalue below -fock.TOL_PSD or a
    non-finite one PositivityLoss. Each snapshot keeps its gate's unclipped
    spectrum, so min_eig shows the margin to the gate, and is not validated
    again. The gate also sets the storage, from the data alone: a block in
    which every entry between even and odd levels is exactly 0 (a parity-
    preserving bath on a thermal, vacuum, squeezed or Fock start) is stored
    as two read-only stacks, its even-level and its odd-level sectors, half
    the entries of the whole matrices, and a snapshot's .matrix is then
    assembled afresh on each access; any other block over its traces is its
    snapshots' storage, each a read-only view of it.
    Snapshots past states[0] (rho0 itself) keep their route's dtype:
    float64 for a real rho0 on the frame route, complex128 for a complex
    one or on the RK4 route. A tagged bath with a swept occupation also
    fills squeezed_heat_cum, which ledger.sigma_series reads.
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

    sched = gen.hamiltonian  # step times k*dt, read lazily up to the first warning
    _warn_if_drive_fast(gen, ((t, sched.frequency(t), sched.frequency_dot(t))
                              for t in (k * dt for k in range(n_steps + 1))))

    tagged = gen.kind != "custom"
    marks = [*range(snapshot_stride, n_steps, snapshot_stride), n_steps]
    run = (_frame_run if tagged else _rk4_run)(gen, rho0, dt, marks)

    times, states, cum, terr = [0.0], [rho0], [(0.0, 0.0, 0.0)], [rho0.trace_error]
    for steps, rhos, flows in run:
        tr = np.trace(rhos, axis1=1, axis2=2).real
        err = np.abs(tr - 1.0)
        ok = int(np.append(err <= DRIFT_TOL, False).argmin())  # NaN fails too
        t = [step * dt for step in steps]
        # the prefix first, so an earlier positivity failure wins
        states.extend(_gate_block(gen.dim, rhos[:ok] / tr[:ok, None, None], t[:ok]))
        if ok < len(t):
            raise TraceDrift(f"integrator trace drifted to {tr[ok]:.12f} at t={t[ok]:g}")
        times.extend(t)
        cum.extend(flows)
        terr.extend(err)

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
    """Normalised Hermitian snapshots x as DensityMatrix objects: eigvalsh
    per sector, and PositivityLoss names the first that fails evolve's gate.
    If every entry between even and odd levels is 0.0 the sectors are those
    levels, and each is copied into a read-only stack that stores it; else
    the one sector is x, set read-only, and each state is a view of it."""
    finite = np.isfinite(x).all(axis=(1, 2))
    ok = int(np.append(finite, False).argmin())  # the first non-finite, else all
    split = not (x[:ok, 0::2, 1::2].any() or x[:ok, 1::2, 0::2].any())
    sectors = ([x[:ok, 0::2, 0::2].copy(), x[:ok, 1::2, 1::2].copy()] if split
               else [x[:ok]])
    eigs = np.sort(np.hstack([np.linalg.eigvalsh(q) for q in sectors]))
    good = (eigs[:, 0] >= -TOL_PSD) & np.isfinite(eigs).all(axis=1)  # NaN fails too
    j = int(np.append(good, False).argmin())  # first failure, else ok
    if j < len(x):  # past ok the matrix itself is not finite
        raise PositivityLoss(f"negative or non-finite eigenvalue "
                             f"{eigs[j, 0] if j < ok else math.nan:.3e} at "
                             f"t={times[j]:g}; shrink dt or raise the cutoff")
    for q in (x, *sectors):
        q.setflags(write=False)
    return [DensityMatrix._gated(dim, tuple(m) if split else m[0], e)
            for *m, e in zip(*sectors, eigs)]


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
    """RK4 of a custom generator on the complex rho in blocks (steps, rhos,
    (Tr[k H], Tr[m dH/dt], 0) per step) that end at _BLOCK steps or at a
    trace off by more than DRIFT_TOL (or NaN), where evolve's gate stops the run."""
    sched = gen.hamiltonian

    def flow_rates(m: np.ndarray, k: np.ndarray, t: float) -> tuple:
        work = 0.0 if sched.is_constant else sched.trace_with(m, t, derivative=True)
        return sched.trace_with(k, t), work, 0.0

    run = _rk4(lambda t: t, lambda m, t: apply(gen, m, t, hermitian=True),
               flow_rates, rho0.matrix, dt, marks, lambda m: 0.5 * (m + m.conj().T))
    block = []
    for mark, rho, flows in run:
        block.append((mark, rho, flows))
        if (len(block) == _BLOCK or mark == marks[-1]
                or not abs(np.trace(rho).real - 1.0) <= DRIFT_TOL):
            steps, rhos, cums = zip(*block)
            yield steps, np.array(rhos), cums
            block = []


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


# Pade-13 coefficients b_0..b_13 of exp and the 1-norm up to which they need
# no scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005))
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm_bordered(blocks: np.ndarray) -> np.ndarray:
    """exp of each bordered block [[A, c], [0, 0]] of a (b, n+1, n+1) stack,
    by Pade-13 scaling and squaring.

    Each block takes its own s, from the 1-norm of its own A: short bands
    are not squared as often as the longest, and the border column, which
    exp carries linearly (as phi_1(A) c), does not raise s however large c
    is. A row that is zero in a block (the border row, a band's padding)
    is a unit row of its exp; the Pade quotient gets those only to
    roundoff, which 2^s squarings would blow up or wipe out, so they are
    set exactly before squaring.
    """
    n = blocks.shape[-1] - 1
    norm = np.abs(blocks[:, :n, :n]).sum(axis=1).max(axis=1)
    s = np.maximum(0, np.ceil(np.log2(norm / _THETA13))).astype(int)
    x = blocks * np.ldexp(1.0, -s)[:, None, None]
    b, eye = _PADE13, np.eye(n + 1)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    e = np.linalg.solve(v - u, v + u)
    which, row = np.nonzero(~blocks.any(axis=2))
    e[which, row] = 0.0
    e[which, row, row] = 1.0
    for j in range(s.max()):
        sq = s > j
        e[sq] = e[sq] @ e[sq]
    return e


def _band_channel(gen: Generator, s: np.ndarray, interval: float,
                  bands: np.ndarray) -> tuple:
    """Exact propagator of a constant-rate tagged bath over one interval.

    One batched exponential (_expm_bordered) of the blocks T_k^T t of
    _band_terms, each bordered by the column T_k^T h_k t (h_k the band-k
    entries of S^T H S, S = s), gives exp(T_k t) and weights f_k whose dot
    with x_k(0) is band k's share of the bath flow, the integral of
    Tr[L(rho) H] over the interval.

    Band 0 keeps the trace, so its block has the stationary populations p
    (geometric, ratio N/(N+1)) with 1^T T_0 = 0. Squaring doubles any
    roundoff on that conserved mode at each step, so the block is deflated
    to T_0 - sigma p 1^T (sigma = 2 kappa), whose modes all decay, and
    p 1^T is added back. Past an interval of 1e20 over the largest rate
    every decaying mode has underflowed and the channel no longer changes,
    so longer intervals are capped there: s grows as the log of the
    interval, so the cap holds it near 66 squarings, each adding roundoff,
    and keeps the entries t rates h far from overflow.

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
    e = _expm_bordered(blocks)
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
    """A tagged bath in its frame rho~ = S^T rho S from rho0; yields the
    steps in marks _BLOCK at a time as (steps, rhos, flows), with rhos the
    stacked lab matrices and flows one (E_d, W, Phi) per step.

    S = fock._squeeze_matrix(r) is the identity at r = 0 and b = S a S^T up
    to truncation, so in the frame the bath damps a at down = kappa (N+1)
    and up = kappa N, band by band (_band_terms; Caruso, Giovannetti &
    Holevo, NJP 8, 310 (2006)). The bands are one vector, real for a real
    rho0, less those exactly zero at the start (they stay zero). Constant
    rates and H take the exact channel, anything swept RK4. Each block's
    lab matrices are built (per parity sector if no band is odd) in one
    buffer, which the next block overwrites.
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

    def lab(xs: tuple) -> np.ndarray:  # its temporaries die before the yields
        xs, rho = np.array(xs), buf[:len(xs)]
        flat = rho.reshape(len(xs), -1)
        flat[:] = 0.0
        flat[:, lower] = xs.conj()
        flat[:, upper] = xs
        for q, sq in sectors:
            f = sq @ np.ascontiguousarray(rho[:, q, q]) @ sq.T
            rho[:, q, q] = 0.5 * (f + f.conj().swapaxes(1, 2))  # scrub asymmetry
        return rho

    while block := list(itertools.islice(run, _BLOCK)):
        steps, xs, flows = zip(*block)
        yield steps, lab(xs), flows


# ---------------------------------------------------------------------------
# steady states


def _pieces(gen: Generator, piece: Callable) -> list:
    """(weight, build) of each term of gen._terms: build() makes the
    term's piece(F, L), weight(t) its factor at t."""
    return [(weight, functools.partial(piece, f, lm)) for weight, f, lm in gen._terms]


def _fold(gen: Generator, t: float, pieces: list):
    """sum_k w_k(t) K_k from the (weight, build) pairs of _pieces, as
    scipy.sparse CSR. A piece whose weight is zero at t is not built, and
    each piece and its scaled copy die before the next is built, so a
    streamed fold holds one piece at a time. The sum comes back as a
    compact copy (scipy's sparse add can leave its entries in buffers up
    to twice their size)."""
    n, sparse = gen.dim.cutoff, _scipy()[0]
    total = sparse.csr_matrix((n * n, n * n))
    for weight, build in pieces:
        g = weight(t)
        if g != 0.0:
            total = total + g * build()
    return total.copy()


def _complex_piece(f: np.ndarray, lm: Optional[np.ndarray]):
    """K = F (x) 1 + 1 (x) conj(F) + 2 L (x) conj(L), the superoperator of
    rho -> F rho + rho F^dag + 2 L rho L^dag (no L term if lm is None), as
    scipy.sparse CSR on row-major vec(rho). The L term, the largest, is
    formed last and added once, so at most two copies of it are alive."""
    sparse = _scipy()[0]
    eye = sparse.identity(f.shape[0], format="csr", dtype=complex)
    fs = sparse.csr_matrix(f)
    k = sparse.kron(fs, eye, format="csr") + sparse.kron(eye, fs.conj(), format="csr")
    return k if lm is None else 2.0 * sparse.kron(lm, lm.conj(), format="csr") + k


def superoperator(gen: Generator, t: float = 0.0):
    """scipy.sparse CSR matrix of the generator on row-major vec(rho).

    A fold over gen._terms: each term's piece (_complex_piece) is built,
    scaled by its weight at t and added, one at a time; a term with zero
    weight at t builds none.
    """
    return _fold(gen, t, _pieces(gen, _complex_piece))


def _real_piece(f: np.ndarray, lm: Optional[np.ndarray]):
    """R_K = Re(U^H K U), U = _hermitian_basis(n), as real scipy.sparse CSR
    for the piece K rho = F rho + rho F^dag + 2 L rho L^dag (no L term if
    lm is None), which maps Hermitian matrices to Hermitian ones.

    On row-major vec(rho), K = F (x) 1 + 1 (x) conj(F) + 2 L (x) conj(L).
    Only K's rows (p, r >= p) are formed, as krons of the real and
    imaginary parts of the factors (a part that is exactly zero is
    skipped), _PIECE_LEVELS values of p at a time, which bounds the
    temporaries. Row (r, p) of K U is the conjugate of row (p, r), so row
    (p, r) gives R's rows p n + r, sqrt(2) Re (K U)[pr] (Re alone when
    r = p), and r n + p, sqrt(2) Im (K U)[pr] when r > p.
    """
    sparse = _scipy()[0]
    n = f.shape[0]
    eye = np.eye(n)
    # (coefficient, A, B, into Im K) of each real kron A (x) B
    terms = [(1.0, f.real, eye, 0), (1.0, eye, f.real, 0),
             (1.0, f.imag, eye, 1), (-1.0, eye, f.imag, 1)]
    if lm is not None:
        terms += [(2.0, lm.real, lm.real, 0), (2.0, lm.imag, lm.imag, 0),
                  (2.0, lm.imag, lm.real, 1), (-2.0, lm.real, lm.imag, 1)]
    terms = [(c, sparse.csr_matrix(a), sparse.csr_matrix(b), im)
             for c, a, b, im in terms if a.any() and b.any()]
    to_re, to_im = _coordinate_maps(n)
    blocks, targets = [], []
    for p0 in range(0, n, _PIECE_LEVELS):
        p1 = min(n, p0 + _PIECE_LEVELS)
        # [Re K, Im K] on rows (p, r) with p0 <= p < p1 and r >= p0
        k = sparse.csr_matrix(((p1 - p0) * (n - p0), 2 * n * n))
        for c, a, b, im in terms:
            part = sparse.kron(a[p0:p1], b[p0:], format="csr")
            k = k + sparse.csr_matrix(
                (c * part.data, part.indices + im * n * n, part.indptr), shape=k.shape
            )
        blocks += [k @ to_re, k @ to_im]
        # rows r < p repeat rows (r, p) of this block; -1 drops them
        p, r = np.divmod(np.arange(k.shape[0]), n - p0)
        p, r = p + p0, r + p0
        targets += [np.where(r >= p, p * n + r, -1), np.where(r > p, r * n + p, -1)]
    target = np.concatenate(targets)
    keep = target >= 0
    rows = np.empty(n * n, dtype=np.intp)
    rows[target[keep]] = np.flatnonzero(keep)
    stacked = sparse.vstack(blocks, format="csr")
    blocks.clear()  # so that at most two copies of the piece are alive
    out = stacked[rows]
    del stacked
    scale = np.full(n * n, math.sqrt(2.0))
    scale[np.arange(n) * (n + 1)] = 1.0
    out.data *= np.repeat(scale, np.diff(out.indptr))
    return out


@functools.lru_cache(maxsize=8)
def _coordinate_maps(n: int) -> tuple:
    """[U_re; -U_im] and [U_im; U_re] for U = _hermitian_basis(n), as real
    scipy.sparse CSR (cached; treat as read-only): [Re K, Im K] times them
    gives Re(K U) and Im(K U)."""
    sparse = _scipy()[0]
    u = _hermitian_basis(n)
    u_re, u_im = u.real.copy(), u.imag.copy()
    u_re.eliminate_zeros()
    u_im.eliminate_zeros()
    maps = (sparse.vstack([u_re, -u_im], format="csr"),
            sparse.vstack([u_im, u_re], format="csr"))
    for m in maps:
        for part in (m.data, m.indices, m.indptr):
            part.setflags(write=False)
    return maps


def _steady_states(gen: Generator, times) -> Iterator[DensityMatrix]:
    """steady_state(gen, t=t) for each t, to the bit, with every piece of
    the real matrix built at most once for all of them, when first needed
    (they live until the last is done)."""
    pieces = [(weight, functools.cache(build)) for weight, build in _pieces(gen, _real_piece)]
    for t in times:
        yield _kernel_state(gen, _fold(gen, t, pieces), t)


def steady_state(gen: Generator, *, t: float = 0.0) -> DensityMatrix:
    """Unique kernel state of the generator frozen at time t.

    L preserves Hermiticity, so in the orthonormal Hermitian basis U of
    _hermitian_basis its matrix R = U^H L U is real (the coherence-vector
    picture; Alicki & Lendi, LNP 286 (1987)). R is built from real pieces,
    never from L: R(t) = sum_k w_k(t) R_k, one piece per (F, L) term of
    gen._terms, each formed in real arithmetic from its factors
    (_real_piece) and folded in one at a time. One real sparse LU factors
    R bordered by the unit trace vector y = vec(1)/sqrt(n), which U leaves
    unchanged: M = [[R, y], [y^T, 0]]. As y^T R = 0, the solve
    M [w; mu] = [0; 1] gives the kernel coordinates w, and x = U w. U is unitary, so ||R w|| =
    ||L x|| and R has L's singular values: the same factors apply the
    pseudo-inverse R^+ (input projected off y, output off w) and its
    transpose, and one real svds gives the gap sigma_2(L) = 1 / ||R^+||_2.
    NonUniqueSteadyState is raised for an exactly singular M (degenerate or
    traceless kernel), for ||R w|| above RESIDUAL_TOL or NaN at the unit
    solve vector w (no kernel; never below sigma_min), for sigma_2 <
    GAP_TOL (kernel not isolated) and for a unit x with trace below 1e-8.
    SteadyStateResidual is raised when apply() leaves more than
    RESIDUAL_TOL on the normalised state.
    """
    return _kernel_state(gen, _fold(gen, t, _pieces(gen, _real_piece)), t)


@functools.lru_cache(maxsize=8)
def _hermitian_basis(n: int):
    """The unitary U whose columns are the row-major vecs of E_ii (column
    i*n + i), (E_ij + E_ji)/sqrt(2) (column i*n + j) and i (E_ij - E_ji)/
    sqrt(2) (column j*n + i) for i < j, as scipy.sparse CSR (cached; treat
    as read-only). U^H vec(X) is real for a Hermitian X, and U^H vec(1) =
    vec(1)."""
    sparse = _scipy()[0]
    i, j = np.triu_indices(n, 1)
    upper, lower, diag = i * n + j, j * n + i, np.arange(n) * (n + 1)
    h = math.sqrt(0.5)
    rows = np.concatenate([diag, upper, lower, upper, lower])
    cols = np.concatenate([diag, upper, upper, lower, lower])
    vals = np.concatenate([np.ones(n), np.full(2 * i.size, h),
                           np.full(i.size, 1j * h), np.full(i.size, -1j * h)])
    u = sparse.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))
    for part in (u.data, u.indices, u.indptr):
        part.setflags(write=False)
    return u


def _kernel_state(gen: Generator, rmat, t: float) -> DensityMatrix:
    """steady_state's solve and gates on rmat, the generator's real matrix
    R = U^H L U at t (_fold of _real_piece), U = _hermitian_basis(n)."""
    n = gen.dim.cutoff
    size = n * n
    sparse, splinalg = _scipy()
    u = _hermitian_basis(n)
    y = np.eye(n).reshape(-1) / math.sqrt(n)
    # M from R's CSR arrays (bmat costs more than the LU at cutoff 20): y's
    # entry closes the row of each diagonal coordinate, and y^T is the last row
    diag = np.arange(n) * (n + 1)
    ends, weights = rmat.indptr[diag + 1], y[diag]
    bordered = sparse.csr_matrix((
        np.append(np.insert(rmat.data, ends, weights), weights),
        np.append(np.insert(rmat.indices, ends, size), diag),
        np.append(rmat.indptr + np.searchsorted(diag, np.arange(size + 1)), rmat.nnz + 2 * n),
    ), shape=(size + 1, size + 1)).tocsc()
    try:
        lu = splinalg.splu(bordered)
    except RuntimeError as exc:  # exactly singular factor
        raise NonUniqueSteadyState(f"degenerate or traceless kernel: {exc}") from exc
    vec = lu.solve(np.append(np.zeros(size), 1.0))[:size]
    vec = vec / np.linalg.norm(vec)
    miss = np.linalg.norm(rmat @ vec)
    if not miss <= RESIDUAL_TOL:
        raise NonUniqueSteadyState(f"no kernel vector: ||L x|| = {miss:.3e}")

    def solve(v: np.ndarray, trans: str, drop_in: np.ndarray, drop_out: np.ndarray):
        # bordered solve, unit vector drop_in (drop_out) projected out of
        # the input (output)
        v = np.append(v.ravel() - drop_in * np.dot(drop_in, v.ravel()), 0.0)
        w = lu.solve(v, trans=trans)[:size]
        return w - drop_out * np.dot(drop_out, w)

    pinv = splinalg.LinearOperator(
        (size, size),
        matvec=lambda v: solve(v, "N", y, vec),
        rmatvec=lambda v: solve(v, "T", vec, y),
        dtype=float,
    )
    # a generic start: vec(1) projects to zero, and an all-ones vector is
    # orthogonal to slow traceless population modes
    v0 = np.random.default_rng(0).standard_normal(size)
    # the gap only meets a threshold, so 1e-6 relative accuracy is ample;
    # a short Lanczos basis (ARPACK needs 1 < ncv < size) halves the solves
    gap = 1.0 / splinalg.svds(
        pinv, k=1, ncv=min(8, size - 1), tol=1e-6, v0=v0,
        return_singular_vectors=False,
    )[0]
    if gap < GAP_TOL:
        raise NonUniqueSteadyState(f"kernel not isolated: next singular value {gap:.3e}")

    x = (u @ vec).reshape(n, n)
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


def _thin(p: np.ndarray, x: float) -> np.ndarray:
    """Binomial thinning B_x^T p: level k keeps each quantum with chance x.

    Horner's rule runs over chunks of C = _PASCAL_CHUNK levels. With
    w = 1 - x + x z the output's generating function is
    sum_j w^(jC) P_j(w), P_j holding chunk j of p, so each step convolves
    the accumulator with row C of the table (w^C) and adds the next chunk's
    table product at the low end. At most C levels make one chunk, and the
    table is then the whole n x n one, so the result is its product.
    """
    n, size = p.size, _PASCAL_CHUNK
    c = _binomial_table(x, min(n, size + 1))
    table, row = c[:size, :size].T, c[-1]
    start = (n - 1) // size * size
    acc = table[: n - start, : n - start] @ p[start:]
    for j in range(start - size, -1, -size):
        acc = np.convolve(acc, row)
        acc[:size] += table @ p[j : j + size]
    return acc


def _spread(q: np.ndarray, y: float) -> np.ndarray:
    """Binomial transform B_y q: out[k] = sum_m C(k, m) y^m (1-y)^(k-m) q[m].

    Chunked like _thin. By Vandermonde's identity level jC + a splits its
    trials into the first jC and the last a: out[jC + a] is
    sum_l table[a, l] q_j[l], where q_j[l] = sum_i b_j[i] q[l + i] and b_j,
    row jC of the table, is row C convolved with itself j times. So
    q_(j+1) is q_j correlated with row C, and chunk j of the output is the
    C x C table product of q_j's first C entries.
    """
    n, size = q.size, _PASCAL_CHUNK
    c = _binomial_table(y, min(n, size + 1))
    table, row = c[:size, :size], c[-1]
    out = np.empty(n)
    for j in range(0, n, size):
        if j:
            q = np.correlate(q, row)  # "valid": one chunk shorter
        m = min(size, n - j)
        out[j : j + m] = table[:m, :m] @ q[:m]
    return out


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
    no rescaling. Neither is formed: above _PASCAL_CHUNK levels both act
    chunk by chunk through one small Pascal table (_thin, _spread), in
    O(n + C^2) memory; every term is nonnegative, so nothing cancels. Mass the
    amplifier maps past the cutoff is truncation error: above
    fock.TOL_LEAK it raises CutoffLeak, below it the result is
    renormalised. p0 must be finite and nonnegative.
    """
    p0 = np.asarray(p0, dtype=float)
    if not (np.isfinite(p0).all() and (p0 >= 0.0).all()):
        raise ValueError("populations must be finite and nonnegative")
    if not abs(p0.sum() - 1.0) <= 1e-8:
        raise ValueError("populations must sum to 1")
    if not (nbar >= 0 and kappa >= 0 and t >= 0):
        raise ValueError("nbar, kappa and t must be nonnegative")
    eta = math.exp(-2.0 * kappa * t)
    gain = 1.0 + (1.0 - eta) * nbar
    out = _spread(_thin(p0, eta / gain), 1.0 / gain) / gain
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
    grid = [0.5 * h * j for j in range(2 * n_steps + 1)]
    occ = [gen.occupation_at(t) for t in grid]
    w = [sched.frequency(t) for t in grid]
    wdot = [sched.frequency_dot(t) for t in grid]
    # the step times k*h are the even points: (0.5 h) 2k rounds to k h
    _warn_if_drive_fast(gen, zip(grid[::2], w[::2], wdot[::2]))
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
