"""Otto and Carnot-style cycles driven by thermal and squeezed reservoirs.

The Otto runner works in level-population space. Bath contacts only ever
start from states that are diagonal either in the Fock basis or in the
squeezed frame of that bath, and the damping couples each diagonal of the
density matrix to itself, so the populations close on themselves and can
be propagated exactly by the population channel in dynamics. Coherence
bands left over from the frame change decay at least as fast as
exp(-kappa * t) per band offset and are dropped; with the stroke times
used here that is far below every tolerance gate.

Otto stroke order: cold contact, compression (frequency up, spectrum
frozen), optional extra thermal contacts, the energising contact
(possibly squeezed), an unsqueezing unitary that cashes in the coherent
part as work, expansion, and back to the cold contact.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np

from .dynamics import (
    bose_occupation,
    evolve,
    linear_ramp_schedule,
    relax_populations,
    thermal_generator,
)
from .errors import NotSteady, RegimeViolation
from .fock import (
    DensityMatrix,
    HilbertDim,
    Operator,
    _squeeze_matrix,
    thermal_populations,
)

STEADY_TOL = 1e-8
CLOSURE_TOL = 1e-6
ENGINE_TOL = 1e-9

NOT_ENGINE = "not_engine"
ENGINE = "engine"
ENGINE_AND_FRIDGE = "engine_and_refrigerator"


@dataclasses.dataclass(frozen=True)
class BathStage:
    """Extra thermal contact inserted before the energising reservoir."""

    temperature: float
    kappa: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("stage temperature must be positive")


@dataclasses.dataclass(frozen=True)
class CycleSpec:
    """Parameters of one Otto cycle.

    Frequencies and temperatures are in units of the damping rate kappa
    (hbar = k_B = 1). cutoff=None lets the runner size the Fock space from
    the reservoir occupations. mid_baths are applied at omega_hot, in
    order, before the final (squeezed) hot contact.
    """

    temp_cold: float
    temp_hot: float
    omega_cold: float
    omega_hot: float
    r: float = 0.0
    kappa: float = 1.0
    stroke_time: float = 30.0
    cutoff: Optional[int] = None
    mid_baths: tuple = ()

    def __post_init__(self) -> None:
        if not 0 < self.temp_cold <= self.temp_hot:
            raise ValueError("need 0 < temp_cold <= temp_hot")
        if not 0 < self.omega_cold < self.omega_hot:
            raise ValueError("need 0 < omega_cold < omega_hot")
        if self.kappa <= 0 or self.stroke_time <= 0:
            raise ValueError("kappa and stroke_time must be positive")
        if self.cutoff is not None and self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        object.__setattr__(self, "mid_baths", tuple(self.mid_baths))
        for stage in self.mid_baths:
            if not isinstance(stage, BathStage):
                raise TypeError("mid_baths entries must be BathStage")


@dataclasses.dataclass(frozen=True)
class StrokeLedger:
    label: str
    work_on: float
    dissipated: float
    energy_start: float
    energy_end: float
    temperature: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class CycleReport:
    """Measured energy flows and efficiency bounds of one converged cycle.

    E_dh/E_dc are the bath flows of the energising and cold contacts;
    E_dh_prime is the passive-energy share of the energising flow and
    E_dh_tilde its value seen from the squeezed frame. mid_flows holds
    (dissipated, passive_flow, temperature) per extra contact, ready for
    multibath_bound.
    """

    spec: CycleSpec
    E_dh: float
    E_dh_prime: float
    E_dh_tilde: float
    E_dc: float
    mid_flows: tuple
    work_out: float
    eta: float
    regime: str
    eta_max: float
    eta_sigma: float
    eta_carnot: float
    firstlaw_residual: float
    closure: float
    entropy_closure: float
    strokes: tuple


# ---------------------------------------------------------------------------
# efficiency bounds


def eta_carnot(temp_cold: float, temp_hot: float) -> float:
    if not 0 < temp_cold <= temp_hot:
        raise ValueError("need 0 < temp_cold <= temp_hot")
    return 1.0 - temp_cold / temp_hot


def eta_max(
    passive_flow: float,
    dissipated_flow: float,
    temp_cold: float,
    temp_hot: float,
) -> float:
    """Efficiency cap from the passive share of the energising flow.

    Reduces to the Carnot value when the whole flow is passive and exceeds
    it when part of the flow arrives as extractable (nonpassive) energy.
    """
    if not 0 < temp_cold <= temp_hot:
        raise ValueError("need 0 < temp_cold <= temp_hot")
    if dissipated_flow <= 0:
        raise RegimeViolation("bound needs a positive energising flow")
    if passive_flow < 0:
        raise RegimeViolation("bound assumes a nonnegative passive flow")
    return 1.0 - (temp_cold / temp_hot) * (passive_flow / dissipated_flow)


def eta_sigma(
    frame_flow: float,
    dissipated_flow: float,
    temp_cold: float,
    temp_hot: float,
) -> float:
    """Weaker cap using the damped-frame flow; may exceed 1.

    frame_flow is the energising-bath flow evaluated in the frame in which
    that bath is thermal. It can go negative for strong squeezing, in
    which case the returned value is above 1 and carries no information
    beyond the trivial cap.
    """
    if not 0 < temp_cold <= temp_hot:
        raise ValueError("need 0 < temp_cold <= temp_hot")
    if dissipated_flow <= 0:
        raise RegimeViolation("bound needs a positive energising flow")
    return 1.0 - (temp_cold / temp_hot) * (frame_flow / dissipated_flow)


def eta_bound_combined(
    passive_flow: float,
    frame_flow: float,
    dissipated_flow: float,
    temp_cold: float,
    temp_hot: float,
) -> float:
    """Tightest of the passive-flow cap, the frame-flow cap and 1."""
    bounds = [1.0, eta_sigma(frame_flow, dissipated_flow, temp_cold, temp_hot)]
    if passive_flow >= 0:
        bounds.append(eta_max(passive_flow, dissipated_flow, temp_cold, temp_hot))
    return min(bounds)


def eta_actual(
    dissipated_hot: float, dissipated_cold: float, tol: float = ENGINE_TOL
) -> tuple:
    """Measured efficiency and operating regime of a two-contact cycle.

    Work out equals the sum of the two bath flows over a closed cycle.
    When the cold contact also feeds energy in, every input unit leaves as
    work, so the efficiency is pinned at 1 and the regime flag says so.
    """
    work_out = dissipated_hot + dissipated_cold
    if work_out <= tol:
        return math.nan, NOT_ENGINE
    if dissipated_cold > tol:
        return 1.0, ENGINE_AND_FRIDGE
    # work_out > tol >= dissipated_cold forces dissipated_hot > 0 here
    return 1.0 + dissipated_cold / dissipated_hot, ENGINE


# ---------------------------------------------------------------------------
# closed forms


@dataclasses.dataclass(frozen=True)
class OttoClosedForm:
    nbar_cold: float
    nbar_hot: float
    excess_hot: float
    E_dh: float
    E_dh_prime: float
    E_dh_tilde: float
    E_dc: float
    work_out: float
    eta: float
    eta_max: float
    eta_sigma: float
    eta_carnot: float
    regime: str


def squeezed_excess(nbar: float, r: float) -> float:
    """Occupation added by squeezing a thermal state: (2 nbar + 1) sinh^2 r."""
    return (2.0 * nbar + 1.0) * math.sinh(r) ** 2


def closed_form_otto(
    temp_cold: float,
    temp_hot: float,
    omega_cold: float,
    omega_hot: float,
    r: float,
) -> OttoClosedForm:
    """Ideal-cycle energy flows with both contacts run to convergence.

    Valid while the energising contact actually feeds the medium, i.e.
    the cold occupation does not exceed the squeezed-bath target; beyond
    that the closed forms describe a different machine and the function
    raises RegimeViolation instead.
    """
    if temp_cold <= 0 or temp_hot <= 0:
        raise ValueError("temperatures must be positive")
    if not 0 < omega_cold < omega_hot:
        raise ValueError("need 0 < omega_cold < omega_hot")
    nc = bose_occupation(omega_cold, temp_cold)
    nh = bose_occupation(omega_hot, temp_hot)
    dnh = squeezed_excess(nh, r)
    if nc > nh + dnh:
        raise RegimeViolation(
            f"cold occupation {nc:.6g} exceeds the energised target "
            f"{nh + dnh:.6g}; the hot contact would drain the medium"
        )
    e_dh = omega_hot * (nh + dnh - nc)
    e_dc = omega_cold * (nc - nh)
    e_prime = omega_hot * (nh - nc)
    e_tilde = omega_hot * (nh - nc - squeezed_excess(nc, r))
    work = e_dh + e_dc
    eta, regime = eta_actual(e_dh, e_dc)
    eta_c = eta_carnot(temp_cold, temp_hot)
    if e_dh > 0:
        eta_s = eta_sigma(e_tilde, e_dh, temp_cold, temp_hot)
        if e_prime >= 0:
            eta_m = eta_max(e_prime, e_dh, temp_cold, temp_hot)
        else:
            eta_m = 1.0  # passive-flow cap inapplicable; trivial cap remains
    else:
        eta_s = math.nan
        eta_m = math.nan
    return OttoClosedForm(
        nbar_cold=nc,
        nbar_hot=nh,
        excess_hot=dnh,
        E_dh=e_dh,
        E_dh_prime=e_prime,
        E_dh_tilde=e_tilde,
        E_dc=e_dc,
        work_out=work,
        eta=eta,
        eta_max=eta_m,
        eta_sigma=eta_s,
        eta_carnot=eta_c,
        regime=regime,
    )


def required_cutoff(
    nbar: float, r: float = 0.0, *, tail_tol: float = 3e-9, floor: int = 40
) -> int:
    """Fock levels needed so a squeezed thermal state's tail stays negligible.

    Uses the quadrature variance V = (2 nbar + 1) e^(2|r|) / 2; level
    populations fall off like ((2V-1)/(2V+1))^n and the bound keeps the
    clipped mass (with a generous polynomial safety factor) under tail_tol.
    """
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    v = (2.0 * nbar + 1.0) * math.exp(2.0 * abs(r)) / 2.0
    lam = (2.0 * v - 1.0) / (2.0 * v + 1.0)
    if lam <= 0.0:
        return floor
    n = floor
    power = lam**n
    while 2.0 * n * (1.0 - lam) * power > tail_tol:
        n += 1
        power *= lam
        if n > 100_000:
            raise ValueError("cutoff search did not converge")
    return n


# ---------------------------------------------------------------------------
# Otto runner


@functools.lru_cache(maxsize=4)
def _squeeze_probs(r: float, n: int) -> np.ndarray:
    """Elementwise square of the squeeze matrix: transition probabilities."""
    s = _squeeze_matrix(r, n)
    return s**2


def _sorted_desc(v: np.ndarray) -> np.ndarray:
    return np.sort(v)[::-1]


def _check_steady(v: np.ndarray, target: np.ndarray, label: str) -> float:
    resid = 0.5 * float(np.abs(v - target).sum())
    if not resid <= STEADY_TOL:  # a NaN residual fails the gate too
        raise NotSteady(
            f"{label} contact ended {resid:.3e} away from its fixed point "
            f"(gate {STEADY_TOL:g}); lengthen the stroke"
        )
    return resid


def run_otto(spec: CycleSpec) -> CycleReport:
    """Simulate one converged Otto cycle and assemble its report.

    Every bath contact must end at its fixed point within STEADY_TOL or
    NotSteady is raised; the cycle closure (population distance between
    final and initial cold states) is reported, not enforced.
    """
    nbar_c = bose_occupation(spec.omega_cold, spec.temp_cold)
    nbar_h = bose_occupation(spec.omega_hot, spec.temp_hot)
    stage_nbars = [
        bose_occupation(spec.omega_hot, st.temperature) for st in spec.mid_baths
    ]
    if spec.cutoff is not None:
        n_dim = spec.cutoff
    else:
        n_dim = max(
            required_cutoff(nbar_c, 0.0),
            required_cutoff(nbar_h, spec.r),
            *(required_cutoff(nb, 0.0) for nb in stage_nbars),
            40,
        )
    levels = np.arange(n_dim, dtype=float)

    def mean_n(v: np.ndarray) -> float:
        return float(levels @ v)

    def passive_n(v: np.ndarray) -> float:
        return float(_sorted_desc(v) @ levels)

    w_h, w_c = spec.omega_hot, spec.omega_cold
    strokes = []
    p0 = thermal_populations(nbar_c, n_dim)
    p = p0

    # compression: spectrum frozen, energy change is pure work
    e_a, e_b = w_c * mean_n(p), w_h * mean_n(p)
    strokes.append(StrokeLedger("compression", e_b - e_a, 0.0, e_a, e_b))

    mid_flows = []
    for stage, nb in zip(spec.mid_baths, stage_nbars):
        tau = stage.duration if stage.duration is not None else spec.stroke_time
        kap = stage.kappa if stage.kappa is not None else spec.kappa
        v = relax_populations(p, nb, kap, tau)
        _check_steady(v, thermal_populations(nb, n_dim), f"T={stage.temperature:g}")
        e_d = w_h * (mean_n(v) - mean_n(p))
        e_pas = w_h * (passive_n(v) - passive_n(p))
        mid_flows.append((e_d, e_pas, stage.temperature))
        e_a, e_b = w_h * mean_n(p), w_h * mean_n(v)
        strokes.append(
            StrokeLedger(
                f"contact T={stage.temperature:g}",
                0.0,
                e_d,
                e_a,
                e_b,
                temperature=stage.temperature,
            )
        )
        p = v

    # energising contact, damped in its squeezed frame
    n_start_lab = mean_n(p)
    pas_start = passive_n(p)
    if spec.r != 0.0:
        s2 = _squeeze_probs(float(spec.r), n_dim)
        v0 = s2.T @ p
        v0 /= v0.sum()
        lab_weights = levels @ s2
    else:
        s2 = None
        v0 = p
        lab_weights = levels
    v_t = relax_populations(v0, nbar_h, spec.kappa, spec.stroke_time)
    _check_steady(v_t, thermal_populations(nbar_h, n_dim), "energising")
    n_end_lab = float(lab_weights @ v_t)
    e_dh = w_h * (n_end_lab - n_start_lab)
    e_dh_prime = w_h * (passive_n(v_t) - pas_start)
    e_dh_tilde = w_h * (mean_n(v_t) - mean_n(v0))
    e_a, e_b = w_h * n_start_lab, w_h * n_end_lab
    strokes.append(
        StrokeLedger(
            "energising contact", 0.0, e_dh, e_a, e_b, temperature=spec.temp_hot
        )
    )

    # unsqueeze: the frame populations become the lab populations exactly
    if spec.r != 0.0:
        e_a, e_b = w_h * n_end_lab, w_h * mean_n(v_t)
        strokes.append(StrokeLedger("unsqueeze", e_b - e_a, 0.0, e_a, e_b))
    p_top = v_t

    # expansion
    e_a, e_b = w_h * mean_n(p_top), w_c * mean_n(p_top)
    strokes.append(StrokeLedger("expansion", e_b - e_a, 0.0, e_a, e_b))

    # cold contact
    p_end = relax_populations(p_top, nbar_c, spec.kappa, spec.stroke_time)
    _check_steady(p_end, thermal_populations(nbar_c, n_dim), "cold")
    e_dc = w_c * (mean_n(p_end) - mean_n(p_top))
    e_a, e_b = w_c * mean_n(p_top), w_c * mean_n(p_end)
    strokes.append(
        StrokeLedger("cold contact", 0.0, e_dc, e_a, e_b, temperature=spec.temp_cold)
    )

    closure = 0.5 * float(np.abs(p_end - p0).sum())
    entropy_closure = abs(_diag_entropy(p_end) - _diag_entropy(p0))
    work_out = -sum(s.work_on for s in strokes)
    total_flow = sum(s.dissipated for s in strokes)
    firstlaw_residual = abs(work_out - total_flow)

    if not spec.mid_baths:
        eta, regime = eta_actual(e_dh, e_dc)
    else:
        flows = (e_dh, e_dc, *(f[0] for f in mid_flows))
        energy_in = sum(e for e in flows if e > ENGINE_TOL)
        if work_out <= ENGINE_TOL or energy_in <= 0:
            eta = math.nan
            regime = NOT_ENGINE
        else:
            eta = work_out / energy_in
            regime = ENGINE if e_dc <= ENGINE_TOL else ENGINE_AND_FRIDGE

    eta_c = eta_carnot(spec.temp_cold, spec.temp_hot)
    if e_dh > 0:
        eta_s = eta_sigma(e_dh_tilde, e_dh, spec.temp_cold, spec.temp_hot)
        if e_dh_prime >= 0:
            eta_m = eta_max(e_dh_prime, e_dh, spec.temp_cold, spec.temp_hot)
        else:
            eta_m = 1.0
    else:
        eta_s = math.nan
        eta_m = math.nan

    return CycleReport(
        spec=spec,
        E_dh=e_dh,
        E_dh_prime=e_dh_prime,
        E_dh_tilde=e_dh_tilde,
        E_dc=e_dc,
        mid_flows=tuple(mid_flows),
        work_out=work_out,
        eta=eta,
        regime=regime,
        eta_max=eta_m,
        eta_sigma=eta_s,
        eta_carnot=eta_c,
        firstlaw_residual=firstlaw_residual,
        closure=closure,
        entropy_closure=entropy_closure,
        strokes=tuple(strokes),
    )


# ---------------------------------------------------------------------------
# multibath bound


def multibath_bound(hot_entries, thermal_entries) -> float:
    """Efficiency cap for a cycle fed by several reservoirs.

    hot_entries: (dissipated, passive_flow, temperature) triples for the
    engineered energising contacts, counted unconditionally. Thermal
    contacts pass (dissipated, temperature) pairs and enter the input sums
    only when they feed energy in (their passive flow equals their flow).
    Every listed temperature, feeding or not, widens the T_min/T_max scan.
    """
    temps = [float(e[-1]) for e in hot_entries] + [
        float(e[-1]) for e in thermal_entries
    ]
    if not temps:
        raise RegimeViolation("no reservoirs given")
    if min(temps) <= 0:
        raise ValueError("temperatures must be positive")
    e_in = sum(float(e[0]) for e in hot_entries)
    pas_in = sum(float(e[1]) for e in hot_entries)
    for e_d, _temp in thermal_entries:
        if e_d > 0:
            e_in += float(e_d)
            pas_in += float(e_d)
    if e_in <= 0:
        raise RegimeViolation("no net energy input; bound undefined")
    return 1.0 - (min(temps) / max(temps)) * (pas_in / e_in)


# ---------------------------------------------------------------------------
# slow (Carnot-style) cycle


@dataclasses.dataclass(frozen=True)
class CarnotSpec:
    """Two isothermal frequency sweeps joined by frozen-spectrum jumps.

    The sweep endpoints should satisfy omega_hot_end/temp_hot =
    omega_cold_start/temp_cold and omega_cold_end/temp_cold =
    omega_hot_start/temp_hot for the jumps to land on the next isotherm;
    matched_carnot_spec builds them that way. settle_time holds the
    frequency at each sweep end so the contact finishes relaxing.
    """

    temp_cold: float
    temp_hot: float
    omega_hot_start: float
    omega_hot_end: float
    omega_cold_start: float
    omega_cold_end: float
    stroke_time: float
    settle_time: float = 14.0
    kappa: float = 1.0
    cutoff: int = 40
    dt: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.temp_cold < self.temp_hot:
            raise ValueError("need 0 < temp_cold < temp_hot")
        for w in (
            self.omega_hot_start,
            self.omega_hot_end,
            self.omega_cold_start,
            self.omega_cold_end,
        ):
            if w <= 0:
                raise ValueError("frequencies must be positive")
        if self.stroke_time <= 0 or self.settle_time < 0 or self.kappa <= 0:
            raise ValueError("bad timing parameters")


def matched_carnot_spec(
    temp_cold: float,
    temp_hot: float,
    omega_hot_start: float,
    omega_hot_end: float,
    stroke_time: float,
    **kwargs,
) -> CarnotSpec:
    ratio = temp_cold / temp_hot
    return CarnotSpec(
        temp_cold=temp_cold,
        temp_hot=temp_hot,
        omega_hot_start=omega_hot_start,
        omega_hot_end=omega_hot_end,
        omega_cold_start=omega_hot_end * ratio,
        omega_cold_end=omega_hot_start * ratio,
        stroke_time=stroke_time,
        **kwargs,
    )


@dataclasses.dataclass(frozen=True)
class CarnotReport:
    heat_hot: float
    heat_cold: float
    work_out: float
    eta: float
    eta_carnot: float
    sigma_total: float
    delta_S_hot: float
    closure: float
    entropy_closure: float
    firstlaw_residual: float
    strokes: tuple


def _diag_entropy(p: np.ndarray) -> float:
    q = p[p > 1e-14]
    return float(-(q * np.log(q)).sum())


def _isotherm(spec, p_in, temp, w_from, w_to):
    """Sweep omega under a fixed-temperature contact, then settle.

    Returns (populations, heat, work_on, sigma, entropy change).
    States stay diagonal throughout, so evolve() integrates only the level
    populations, with the energy currents co-integrated on them.
    """
    n_dim = spec.cutoff
    dim = HilbertDim(n_dim)
    sched = linear_ramp_schedule(w_from, w_to, spec.stroke_time, dim)
    gen = thermal_generator(sched, spec.kappa, dim=dim, temperature=temp)
    rho0 = DensityMatrix(
        Operator(dim, np.diag(p_in.astype(complex))), _spectrum=np.sort(p_in)
    )
    traj = evolve(gen, rho0, spec.stroke_time, dt=spec.dt)
    p_ramp = np.clip(np.diagonal(traj.final_state.matrix).real, 0.0, None)
    p_ramp = p_ramp / p_ramp.sum()
    heat = float(traj.dissipated_cum[-1])
    work_on = float(traj.work_cum[-1])

    levels = np.arange(n_dim, dtype=float)
    nb = bose_occupation(w_to, temp)
    if spec.settle_time > 0:
        p_out = relax_populations(p_ramp, nb, spec.kappa, spec.settle_time)
        heat_settle = w_to * float(levels @ (p_out - p_ramp))
    else:
        p_out = p_ramp
        heat_settle = 0.0
    heat += heat_settle

    d_s = _diag_entropy(p_out) - _diag_entropy(p_in)
    sigma = d_s - heat / temp
    return p_out, heat, work_on, sigma, d_s


def run_carnot_like(spec: CarnotSpec) -> CarnotReport:
    """Integrate the slow two-isotherm cycle and report its balance.

    Efficiency approaches 1 - temp_cold/temp_hot from below as stroke_time
    grows. The frequency jumps between isotherms preserve the spectrum
    exactly (the ladder commutes with itself), so they cost pure work.
    """
    n_dim = spec.cutoff
    levels = np.arange(n_dim, dtype=float)
    nb0 = bose_occupation(spec.omega_hot_start, spec.temp_hot)
    p0 = thermal_populations(nb0, n_dim)

    strokes = []
    p = p0

    p, q_h, w_ramp_h, sigma_h, ds_h = _isotherm(
        spec, p, spec.temp_hot, spec.omega_hot_start, spec.omega_hot_end
    )
    strokes.append(
        StrokeLedger(
            "hot isotherm",
            w_ramp_h,
            q_h,
            spec.omega_hot_start * float(levels @ p0),
            spec.omega_hot_end * float(levels @ p),
            temperature=spec.temp_hot,
        )
    )

    n_mid = float(levels @ p)
    w_jump1 = (spec.omega_cold_start - spec.omega_hot_end) * n_mid
    strokes.append(
        StrokeLedger(
            "expansion",
            w_jump1,
            0.0,
            spec.omega_hot_end * n_mid,
            spec.omega_cold_start * n_mid,
        )
    )

    p, q_c, w_ramp_c, sigma_c, _ds_c = _isotherm(
        spec, p, spec.temp_cold, spec.omega_cold_start, spec.omega_cold_end
    )
    strokes.append(
        StrokeLedger(
            "cold isotherm",
            w_ramp_c,
            q_c,
            spec.omega_cold_start * n_mid,
            spec.omega_cold_end * float(levels @ p),
            temperature=spec.temp_cold,
        )
    )

    n_end = float(levels @ p)
    w_jump2 = (spec.omega_hot_start - spec.omega_cold_end) * n_end
    strokes.append(
        StrokeLedger(
            "compression",
            w_jump2,
            0.0,
            spec.omega_cold_end * n_end,
            spec.omega_hot_start * n_end,
        )
    )

    closure = 0.5 * float(np.abs(p - p0).sum())
    entropy_closure = abs(_diag_entropy(p) - _diag_entropy(p0))
    work_out = -sum(s.work_on for s in strokes)
    total_flow = q_h + q_c
    firstlaw_residual = abs(work_out - total_flow)
    eta = work_out / q_h if q_h > 0 and work_out > 0 else math.nan

    return CarnotReport(
        heat_hot=q_h,
        heat_cold=q_c,
        work_out=work_out,
        eta=eta,
        eta_carnot=eta_carnot(spec.temp_cold, spec.temp_hot),
        sigma_total=sigma_h + sigma_c,
        delta_S_hot=ds_h,
        closure=closure,
        entropy_closure=entropy_closure,
        firstlaw_residual=firstlaw_residual,
        strokes=tuple(strokes),
    )
