"""Otto and Carnot-style cycles driven by thermal and squeezed reservoirs.

The Otto runner works in level-population space. The damping couples
each diagonal of the density matrix, in the frame where its bath is
thermal, to itself, so the populations close on themselves and are
propagated exactly by the population channel in dynamics. The energising
contact starts from the last contact's thermal fixed point, whose squeezed
frame populations fock.squeezed_thermal_populations gives in closed form.
Coherence bands left over from the frame change decay at least as fast as
exp(-kappa * t) per band offset and are dropped; with the stroke times
used here that is far below every tolerance gate.

Otto stroke order: cold contact, compression (frequency up, spectrum
frozen), optional extra thermal contacts, the energising contact
(possibly squeezed), an unsqueezing unitary that cashes in the coherent
part as work, expansion, and back to the cold contact.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Optional

import numpy as np

from .dynamics import (
    _thermal_contact,
    bose_occupation,
    linear_ramp_schedule,
    relax_populations,
    thermal_generator,
)
from .errors import NotSteady, OpenCycle, RegimeViolation
from .fock import DEFAULT_CUTOFF, squeezed_thermal_populations, thermal_populations
from .passivity import _population_entropy

STEADY_TOL = 1e-8
CLOSURE_TOL = 1e-6
ENGINE_TOL = 1e-9
CUTOFF_TAIL_TOL = 3e-9
CUTOFF_FLOOR = 40

NOT_ENGINE = "not_engine"
ENGINE = "engine"
ENGINE_AND_FRIDGE = "engine_and_refrigerator"


@dataclasses.dataclass(frozen=True)
class BathStage:
    """Extra thermal contact inserted before the energising reservoir."""

    temperature: float

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
    """One stroke's energy flows. steady_residual is a run_otto contact's
    end distance from its fixed point (trace distance of the populations,
    gated at STEADY_TOL); None on every other stroke."""

    label: str
    work_on: float
    dissipated: float
    energy_start: float
    energy_end: float
    temperature: Optional[float] = None
    steady_residual: Optional[float] = None


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
    value = eta_sigma(passive_flow, dissipated_flow, temp_cold, temp_hot)
    if passive_flow < 0:
        raise RegimeViolation("bound assumes a nonnegative passive flow")
    return value


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
    beyond the trivial cap. A frame_flow/dissipated_flow that is not
    finite raises RegimeViolation, like a non-positive dissipated_flow.
    """
    if not 0 < temp_cold <= temp_hot:
        raise ValueError("need 0 < temp_cold <= temp_hot")
    if dissipated_flow <= 0:
        raise RegimeViolation("bound needs a positive energising flow")
    ratio = frame_flow / dissipated_flow
    if not math.isfinite(ratio):
        raise RegimeViolation(f"flow ratio {frame_flow}/{dissipated_flow} is not finite")
    return 1.0 - (temp_cold / temp_hot) * ratio


def _caps(passive_flow, frame_flow, dissipated_flow, temp_cold, temp_hot) -> tuple:
    """(eta_max, eta_sigma) of a two-contact cycle's energising flow.

    Both are NaN when the energising contact feeds nothing in; a negative
    passive flow leaves only the trivial cap 1 for eta_max.
    """
    if dissipated_flow <= 0:
        return math.nan, math.nan
    eta_s = eta_sigma(frame_flow, dissipated_flow, temp_cold, temp_hot)
    if passive_flow < 0:
        return 1.0, eta_s
    return eta_max(passive_flow, dissipated_flow, temp_cold, temp_hot), eta_s


def eta_bound_combined(
    passive_flow: float,
    frame_flow: float,
    dissipated_flow: float,
    temp_cold: float,
    temp_hot: float,
) -> float:
    """Tightest of the passive-flow cap, the frame-flow cap and 1."""
    if dissipated_flow <= 0:  # eta_sigma raises, checking temperatures first
        eta_sigma(frame_flow, dissipated_flow, temp_cold, temp_hot)
    caps = _caps(passive_flow, frame_flow, dissipated_flow, temp_cold, temp_hot)
    return min(1.0, *caps)


def eta_actual(dissipated_hot: float, dissipated_cold: float, *other_flows) -> tuple:
    """Measured efficiency and operating regime of a closed cycle.

    Work out is the sum of the bath flows (the first law) and the energy
    in is the sum of the flows that feed the medium. When the cold
    contact also feeds energy in, the regime flag says so; with two
    contacts every input unit then leaves as work and the efficiency is 1.
    """
    flows = (dissipated_hot, dissipated_cold, *other_flows)
    work_out = sum(flows)
    energy_in = sum(e for e in flows if e > ENGINE_TOL)
    if work_out <= ENGINE_TOL or energy_in <= 0:
        return math.nan, NOT_ENGINE
    regime = ENGINE_AND_FRIDGE if dissipated_cold > ENGINE_TOL else ENGINE
    return work_out / energy_in, regime


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
    """Occupation added by squeezing a thermal state: (2 nbar + 1) sinh^2 r.

    Raises ValueError when it overflows."""
    try:
        excess = (2.0 * nbar + 1.0) * math.sinh(r) ** 2
    except OverflowError:
        excess = math.inf
    if excess == math.inf:
        raise ValueError(f"squeezed excess overflows at nbar={nbar}, r={r}")
    return excess


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
    eta_m, eta_s = _caps(e_prime, e_tilde, e_dh, temp_cold, temp_hot)
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
        eta_carnot=eta_carnot(temp_cold, temp_hot),
        regime=regime,
    )


def required_cutoff(nbar: float, r: float = 0.0) -> int:
    """Fock levels needed so a squeezed thermal state's tail stays negligible.

    Uses the quadrature variance V = (2 nbar + 1) e^(2|r|) / 2; level
    populations fall off like ((2V-1)/(2V+1))^n and the bound keeps the
    clipped mass (with a generous polynomial safety factor) under
    CUTOFF_TAIL_TOL. The bound rises up to n = -1/ln(lam) < V + 1/2 and
    falls after it, so the search starts at V + 1/2, never below
    CUTOFF_FLOOR levels, and raises ValueError past 100,000 levels. A
    negative or non-finite nbar, a non-finite r, or an r so large that V
    overflows (no cutoff holds that state) raises ValueError.
    """
    if not 0 <= nbar < math.inf:
        raise ValueError(f"nbar must be nonnegative and finite, got {nbar}")
    if not math.isfinite(r):
        raise ValueError(f"squeeze parameter r must be finite, got {r}")
    try:
        v = (2.0 * nbar + 1.0) * math.exp(2.0 * abs(r)) / 2.0
    except OverflowError:
        v = math.inf
    if v == math.inf:
        raise ValueError(f"required_cutoff(nbar={nbar}, r={r}): the squeezing "
                         f"overflows; no cutoff holds it")
    lam = (2.0 * v - 1.0) / (2.0 * v + 1.0)
    n = max(CUTOFF_FLOOR, math.ceil(v + 0.5))
    power = lam**n
    while 2.0 * n * (1.0 - lam) * power > CUTOFF_TAIL_TOL and n <= 100_000:
        n += 1
        power *= lam
    if n > 100_000:
        raise ValueError("cutoff search did not converge")
    return n


# ---------------------------------------------------------------------------
# Otto runner


def _work_stroke(label: str, e_a: float, e_b: float) -> StrokeLedger:
    """A stroke without bath contact (a frozen-spectrum frequency jump or
    the unsqueezing unitary): its energy change is pure work."""
    return StrokeLedger(label, e_b - e_a, 0.0, e_a, e_b)


def _closure(strokes, p_start: np.ndarray, p_end: np.ndarray) -> dict:
    """Work out, first-law residual and closure of a cycle's strokes that
    carried the populations from p_start to p_end, by report field.

    A closure (trace distance of the end populations from the start)
    above CLOSURE_TOL warns OpenCycle: the cycle's flows then include the
    medium's own energy change."""
    work_out = -sum(s.work_on for s in strokes)
    total_flow = sum(s.dissipated for s in strokes)
    closure = 0.5 * float(np.abs(p_end - p_start).sum())
    if not closure <= CLOSURE_TOL:  # a NaN closure warns too
        warnings.warn(
            f"cycle ends {closure:.3e} (trace distance) from its start state, "
            f"above {CLOSURE_TOL:g}; its flows include the medium's energy change",
            OpenCycle,
            stacklevel=3,
        )
    return dict(
        work_out=work_out,
        firstlaw_residual=abs(work_out - total_flow),
        closure=closure,
        entropy_closure=abs(_population_entropy(p_end) - _population_entropy(p_start)),
    )


def _check_steady(v: np.ndarray, target: np.ndarray, label: str) -> float:
    resid = 0.5 * float(np.abs(v - target).sum())
    if not resid <= STEADY_TOL:  # a NaN residual fails the gate too
        raise NotSteady(
            f"{label} ended {resid:.3e} away from its fixed point "
            f"(gate {STEADY_TOL:g}); lengthen the stroke"
        )
    return resid


def run_otto(spec: CycleSpec) -> CycleReport:
    """Simulate one converged Otto cycle and assemble its report.

    Every bath contact must end at its fixed point within STEADY_TOL or
    NotSteady is raised, and its stroke keeps that residual as
    steady_residual; the cycle closure (population distance between
    final and initial cold states) is reported, not enforced.
    """
    nbar_c = bose_occupation(spec.omega_cold, spec.temp_cold)
    nbar_h = bose_occupation(spec.omega_hot, spec.temp_hot)
    stage_nbars = [
        bose_occupation(spec.omega_hot, st.temperature) for st in spec.mid_baths
    ]
    # the energising contact's input: the last thermal state, squeezed by r
    r = float(spec.r)
    n_in = stage_nbars[-1] if stage_nbars else nbar_c
    if spec.cutoff is not None:
        n_dim = spec.cutoff
    else:
        n_dim = max(
            required_cutoff(nbar_c, 0.0),
            required_cutoff(nbar_h, r),
            required_cutoff(n_in, r),
            *(required_cutoff(nb, 0.0) for nb in stage_nbars),
        )
    levels = np.arange(n_dim, dtype=float)

    def mean_n(v: np.ndarray) -> float:
        return float(levels @ v)

    def passive_n(v: np.ndarray) -> float:
        return float(np.sort(v)[::-1] @ levels)

    w_h, w_c = spec.omega_hot, spec.omega_cold
    strokes = []

    def contact(p, nbar, omega, temperature, label, v0=None, weights=levels):
        """Relax p toward occupation nbar from v0, its populations in the
        bath's frame (p by default) whose levels hold lab occupations
        `weights`; gate the fixed point and log the stroke. Returns the
        frame's end populations, the bath flow and its passive share."""
        n_start = mean_n(p)
        v = relax_populations(p if v0 is None else v0, nbar, spec.kappa,
                              spec.stroke_time)
        resid = _check_steady(v, thermal_populations(nbar, n_dim), label)
        n_end = float(weights @ v)
        e_d = omega * (n_end - n_start)
        e_pas = omega * (passive_n(v) - passive_n(p))
        e_a, e_b = omega * n_start, omega * n_end
        strokes.append(StrokeLedger(label, 0.0, e_d, e_a, e_b, temperature, resid))
        return v, e_d, e_pas

    p0 = thermal_populations(nbar_c, n_dim)
    p = p0
    strokes.append(_work_stroke("compression", w_c * mean_n(p), w_h * mean_n(p)))

    mid_flows = []
    for stage, nb in zip(spec.mid_baths, stage_nbars):
        t = stage.temperature
        p, e_d, e_pas = contact(p, nb, w_h, t, f"contact T={t:g}")
        mid_flows.append((e_d, e_pas, t))

    # energising contact, in its squeezed frame: level k holds k cosh 2r + sinh^2 r
    v0 = squeezed_thermal_populations(n_in, r, n_dim)
    weights = levels * math.cosh(2.0 * r) + math.sinh(r) ** 2
    v_t, e_dh, e_dh_prime = contact(
        p, nbar_h, w_h, spec.temp_hot, "energising contact", v0, weights
    )
    e_dh_tilde = w_h * (mean_n(v_t) - mean_n(v0))

    # unsqueeze: the frame populations become the lab populations exactly
    if r != 0.0:
        strokes.append(
            _work_stroke("unsqueeze", strokes[-1].energy_end, w_h * mean_n(v_t))
        )
    strokes.append(_work_stroke("expansion", w_h * mean_n(v_t), w_c * mean_n(v_t)))

    p_end, e_dc, _ = contact(v_t, nbar_c, w_c, spec.temp_cold, "cold contact")

    eta, regime = eta_actual(e_dh, e_dc, *(f[0] for f in mid_flows))
    eta_m, eta_s = _caps(e_dh_prime, e_dh_tilde, e_dh, spec.temp_cold, spec.temp_hot)
    return CycleReport(
        spec=spec,
        E_dh=e_dh,
        E_dh_prime=e_dh_prime,
        E_dh_tilde=e_dh_tilde,
        E_dc=e_dc,
        mid_flows=tuple(mid_flows),
        eta=eta,
        regime=regime,
        eta_max=eta_m,
        eta_sigma=eta_s,
        eta_carnot=eta_carnot(spec.temp_cold, spec.temp_hot),
        strokes=tuple(strokes),
        **_closure(strokes, p0, p_end),
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
    cutoff: int = DEFAULT_CUTOFF

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
    """One run_carnot_like cycle. heat_hot, heat_cold: the isotherms' bath
    flows E_d in, ramp and settle; work_out: the work the medium does; eta,
    regime: eta_actual of the two heats and the medium's energy release from
    the last jump to the start; eta_carnot: 1 - Tc/Th; sigma_total: both
    isotherms' delta S - heat/T; delta_S_hot: the hot one's delta S; closure:
    trace distance of the end populations from the start (OpenCycle above
    CLOSURE_TOL); entropy_closure: their entropy change; firstlaw_residual:
    |work_out - heat_hot - heat_cold|, integration error on a closed cycle,
    the medium's energy change on an open one; strokes: the StrokeLedgers."""

    heat_hot: float
    heat_cold: float
    work_out: float
    eta: float
    regime: str
    eta_carnot: float
    sigma_total: float
    delta_S_hot: float
    closure: float
    entropy_closure: float
    firstlaw_residual: float
    strokes: tuple


def _isotherm(spec, p_in, temp, w_from, w_to, label):
    """Sweep omega under a fixed-temperature contact, then settle.

    Ramp and settle form one phase-insensitive channel, with transmissivity
    eta = exp(-2 kappa t) over the whole contact. Its noise is m, the part
    of the end occupation the bath fed in, so relax_populations at
    N_eff = m / (1 - eta) gives the end populations exactly.
    dynamics._thermal_contact integrates the ramp's mean, heat and work;
    the settle holds the occupation fixed and closes in closed form.
    Returns (populations, stroke, sigma, entropy change).
    """
    n_dim = spec.cutoff
    sched = linear_ramp_schedule(w_from, w_to, spec.stroke_time, n_dim)
    gen = thermal_generator(sched, spec.kappa, dim=n_dim, temperature=temp)
    levels = np.arange(n_dim, dtype=float)
    n_in = float(levels @ p_in)
    n_ramp, heat, work = _thermal_contact(gen, n_in, spec.stroke_time)

    decay = math.exp(-2.0 * spec.kappa * spec.settle_time)
    n_out = decay * n_ramp + (1.0 - decay) * bose_occupation(w_to, temp)
    heat += w_to * (n_out - n_ramp)
    t_contact = spec.stroke_time + spec.settle_time
    eta = math.exp(-2.0 * spec.kappa * t_contact)
    n_eff = (n_out - eta * n_in) / (1.0 - eta)
    p_out = relax_populations(p_in, n_eff, spec.kappa, t_contact)

    stroke = StrokeLedger(
        label, work, heat, w_from * n_in, w_to * float(levels @ p_out), temperature=temp
    )
    d_s = _population_entropy(p_out) - _population_entropy(p_in)
    return p_out, stroke, d_s - heat / temp, d_s


def run_carnot_like(spec: CarnotSpec) -> CarnotReport:
    """Integrate the slow two-isotherm cycle and report its balance.

    Efficiency approaches 1 - temp_cold/temp_hot from below as stroke_time
    grows. The frequency jumps between isotherms preserve the spectrum
    exactly (the ladder commutes with itself), so they cost pure work.
    """
    levels = np.arange(spec.cutoff, dtype=float)
    nb0 = bose_occupation(spec.omega_hot_start, spec.temp_hot)
    p0 = thermal_populations(nb0, spec.cutoff)

    p, hot, sigma_h, ds_h = _isotherm(
        spec, p0, spec.temp_hot, spec.omega_hot_start, spec.omega_hot_end,
        "hot isotherm",
    )
    n_mid = float(levels @ p)
    expansion = _work_stroke(
        "expansion", spec.omega_hot_end * n_mid, spec.omega_cold_start * n_mid
    )
    p, cold, sigma_c, _ = _isotherm(
        spec, p, spec.temp_cold, spec.omega_cold_start, spec.omega_cold_end,
        "cold isotherm",
    )
    n_end = float(levels @ p)
    compression = _work_stroke(
        "compression", spec.omega_cold_end * n_end, spec.omega_hot_start * n_end
    )
    strokes = (hot, expansion, cold, compression)

    # the jumps land on the next isotherm only for matched sweeps, so the
    # medium's own energy release enters the first law as a third flow
    release = hot.energy_start - compression.energy_end
    eta, regime = eta_actual(hot.dissipated, cold.dissipated, release)
    return CarnotReport(
        heat_hot=hot.dissipated,
        heat_cold=cold.dissipated,
        eta=eta,
        regime=regime,
        eta_carnot=eta_carnot(spec.temp_cold, spec.temp_hot),
        sigma_total=sigma_h + sigma_c,
        delta_S_hot=ds_h,
        strokes=strokes,
        **_closure(strokes, p0, p),
    )
