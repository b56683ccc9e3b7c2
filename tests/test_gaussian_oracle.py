"""Independent Gaussian-moment oracles for the built-in baths.

The built-in baths are quadratic with linear jumps, so a Gaussian start
stays Gaussian. In the damped mode b = a cosh r + a^dag sinh r the moments
n_b = <b^dag b> and m_b = <b^2> obey

    n_b' = -2 kappa (n_b - N(t)),    m_b' = -2 kappa m_b,

with N(t) = 1/(exp(omega(t)/T) - 1). Everything the entropy report holds
follows from these three real ODEs (the third is the same ODE at r = 0,
the comparison path from the passive start). A constant bath needs no
ODE: with eta = exp(-2 kappa t) a coherent amplitude decays as
alpha sqrt(eta), and the frame quadrature variances relax as
v(t) = eta v(0) + (1 - eta)/2.

The passive state of a Gaussian state under H = omega n is thermal at
nu - 1/2, nu = sqrt((n_b + 1/2)^2 - m_b^2) its symplectic eigenvalue, so
its energy is omega (nu - 1/2) and the passive share of the bath flow is
the integral of omega dnu. Nothing here calls the library.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from squeezedbath import (
    accumulate_ledger,
    bose_occupation,
    coherent_state,
    entropy_bound_report,
    evolve,
    firstlaw_tolerance,
    linear_ramp_schedule,
    squeezed_generator,
    thermal_generator,
    thermal_state,
)


def _gaussian_entropy(nu: float) -> float:
    """Von Neumann entropy of a one-mode Gaussian state, symplectic eigenvalue nu."""
    lo, hi = nu - 0.5, nu + 0.5
    return hi * math.log(hi) - (lo * math.log(lo) if lo > 0 else 0.0)


def _symplectic_nu(n_b, m_b):
    """nu of a zero-mean one-mode Gaussian state from n_b = <b^dag b>, m_b = <b^2>."""
    return np.sqrt((n_b + 0.5) ** 2 - m_b**2)


def gaussian_stroke(omega_start, omega_end, tau, temperature, r, kappa=1.0):
    """EntropyReport fields, and the drive work, of a linear sweep from a thermal start."""
    slope = (omega_end - omega_start) / tau
    c2, s2, sh2 = math.cosh(2 * r), math.sinh(2 * r), math.sinh(r) ** 2
    nb0 = 1.0 / math.expm1(omega_start / temperature)

    def rhs(t, y):
        n_b, m_b, n_th = y[:3]
        w = omega_start + slope * t
        occ = 1.0 / math.expm1(w / temperature)
        dn, dm = -2 * kappa * (n_b - occ), -2 * kappa * m_b
        dth = -2 * kappa * (n_th - occ)
        n_lab = c2 * n_b + sh2 - s2 * m_b
        # E_d, W, squeezed-mode heat Phi, comparison-path heat
        return [dn, dm, dth, w * (c2 * dn - s2 * dm), n_lab * slope, w * dn, w * dth]

    y0 = [nb0 * c2 + sh2, 0.5 * s2 * (2 * nb0 + 1), nb0, 0.0, 0.0, 0.0, 0.0]
    sol = solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=1e-12, atol=1e-15)
    n_b, m_b, _, e_d, work, phi, e_alt = sol.y[:, -1]
    nu = _symplectic_nu(n_b, m_b)
    delta_s = _gaussian_entropy(nu) - _gaussian_entropy(nb0 + 0.5)
    return {
        "delta_S": delta_s,
        "dissipated": e_d,
        "alt_energy": e_alt,
        "sigma_spohn": delta_s - phi / temperature,
        "slack_total_heat": delta_s - e_d / temperature,
        "slack_alt_path": delta_s - e_alt / temperature,
    }, work


class TestDrivenSqueezedStrokeOracle:
    """The 25 -> 20 sweep at T = 5, cutoff 40 against the moments, squeezed
    (r = 0.2) and thermal (r = 0)."""

    @pytest.mark.parametrize("r", [0.2, 0.0])
    @pytest.mark.parametrize("tau", [2.0, 4.0, 10.0])
    def test_entropy_report_matches_gaussian_moments(self, tau, r):
        sched = linear_ramp_schedule(25.0, 20.0, tau, dim=40)
        gen = squeezed_generator(sched, 1.0, None, r, dim=40, temperature=5.0)
        rho0 = thermal_state(bose_occupation(25.0, 5.0), 40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = evolve(gen, rho0, tau)
            rep = entropy_bound_report(traj, gen)
        fields, work = gaussian_stroke(25.0, 20.0, tau, 5.0, r)
        for field, value in fields.items():
            assert getattr(rep, field) == pytest.approx(value, rel=0, abs=1e-10), field
        assert traj.work_cum[-1] == pytest.approx(work, rel=0, abs=1e-10)


def coherent_decay(alpha, omega, times, kappa=1.0):
    """Energy, E_d and entropy of a coherent start under a T = 0 bath."""
    eta = np.exp(-2.0 * kappa * np.asarray(times))
    energy = omega * abs(alpha) ** 2 * eta
    return energy, energy - omega * abs(alpha) ** 2, np.zeros_like(eta)


def _frame_variances(r, times, kappa=1.0):
    """The lab vacuum's quadrature variances in the frame of a squeezed
    vacuum bath, exp(+-2r)/2 at t = 0, relaxing toward the vacuum's 1/2."""
    eta = np.exp(-2.0 * kappa * np.asarray(times))
    return (eta * math.exp(2 * r) / 2 + (1 - eta) / 2,
            eta * math.exp(-2 * r) / 2 + (1 - eta) / 2)


def vacuum_into_squeezed_vacuum(r, omega, times, kappa=1.0):
    """Energy, E_d and entropy of the vacuum relaxing into the squeezed vacuum.

    In the bath's frame the lab vacuum is a squeezed vacuum with quadrature
    variances exp(+-2r)/2, damped toward the vacuum's 1/2; the lab mean
    occupation undoes the squeeze on each quadrature.
    """
    v_plus, v_minus = _frame_variances(r, times, kappa)
    nu = np.sqrt(v_plus * v_minus)
    entropy = np.array([_gaussian_entropy(x) for x in nu])
    n_lab = 0.5 * (v_plus * math.exp(-2 * r) + v_minus * math.exp(2 * r)) - 0.5
    return omega * n_lab, omega * n_lab, entropy


class TestConstantBathOracle:
    """The README decay and squeezed-relax runs against the moments, at
    every snapshot."""

    def _check(self, gen, rho0, t_final, closed_form):
        led = accumulate_ledger(evolve(gen, rho0, t_final), gen)
        energy, dissipated, entropy = closed_form(led.times)
        np.testing.assert_allclose(led.energy, energy, rtol=0, atol=1e-10)
        np.testing.assert_allclose(led.dissipated_cum, dissipated, rtol=0, atol=1e-10)
        np.testing.assert_allclose(led.entropy, entropy, rtol=0, atol=1e-10)

    def test_coherent_decay(self):
        gen = thermal_generator(10.0, 1.0, nbar=0.0, dim=40)
        self._check(
            gen, coherent_state(1.0, 40), 4.0,
            lambda t: coherent_decay(1.0, 10.0, t),
        )

    def test_vacuum_into_squeezed_vacuum(self):
        gen = squeezed_generator(10.0, 1.0, 0.0, 0.4, dim=40)
        self._check(
            gen, thermal_state(0.0, 40), 6.0,
            lambda t: vacuum_into_squeezed_vacuum(0.4, 10.0, t),
        )


def gaussian_passive_split(omega_start, omega_end, tau, temperature, r, times, kappa=1.0):
    """omega(t), nu(t) and the passive flow (the integral of omega dnu) at
    times, for the linear sweep of gaussian_stroke."""
    slope = (omega_end - omega_start) / tau
    c2, s2, sh2 = math.cosh(2 * r), math.sinh(2 * r), math.sinh(r) ** 2
    nb0 = 1.0 / math.expm1(omega_start / temperature)

    def rhs(t, y):
        n_b, m_b = y[:2]
        w = omega_start + slope * t
        occ = 1.0 / math.expm1(w / temperature)
        dn, dm = -2 * kappa * (n_b - occ), -2 * kappa * m_b
        dnu = ((n_b + 0.5) * dn - m_b * dm) / _symplectic_nu(n_b, m_b)
        return [dn, dm, w * dnu]

    y0 = [nb0 * c2 + sh2, 0.5 * s2 * (2 * nb0 + 1), 0.0]
    # the snapshot grid can end an ulp past tau, so integrate to its end
    sol = solve_ivp(rhs, (0.0, times[-1]), y0, method="DOP853", t_eval=times,
                    rtol=1e-12, atol=1e-15)
    n_b, m_b, flow = sol.y
    return omega_start + slope * np.asarray(times), _symplectic_nu(n_b, m_b), flow


class TestPassiveSplitOracle:
    """passive_energy and passive_dissipated_cum at every snapshot against
    the Gaussian passive state, omega (nu - 1/2), and its flow."""

    def test_coherent_decay_stays_pure(self):
        # a coherent state stays coherent: nu = 1/2, no passive energy or flow
        gen = thermal_generator(10.0, 1.0, nbar=0.0, dim=40)
        led = accumulate_ledger(evolve(gen, coherent_state(1.0, 40), 4.0), gen)
        np.testing.assert_allclose(led.passive_energy, 0.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(led.passive_dissipated_cum, 0.0, rtol=0, atol=1e-10)

    def test_vacuum_into_squeezed_vacuum(self):
        r, omega = 0.4, 10.0
        gen = squeezed_generator(omega, 1.0, 0.0, r, dim=40)
        led = accumulate_ledger(evolve(gen, thermal_state(0.0, 40), 6.0), gen)
        nu = np.sqrt(np.multiply(*_frame_variances(r, led.times)))
        np.testing.assert_allclose(led.passive_energy, omega * (nu - 0.5), rtol=0, atol=1e-10)
        np.testing.assert_allclose(led.passive_dissipated_cum, omega * (nu - nu[0]),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("r", [0.2, 0.0])
    @pytest.mark.parametrize("tau", [2.0, 4.0, 10.0])
    def test_driven_stroke(self, tau, r):
        sched = linear_ramp_schedule(25.0, 20.0, tau, dim=40)
        gen = squeezed_generator(sched, 1.0, None, r, dim=40, temperature=5.0)
        rho0 = thermal_state(bose_occupation(25.0, 5.0), 40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            led = accumulate_ledger(evolve(gen, rho0, tau), gen)
        omega, nu, flow = gaussian_passive_split(25.0, 20.0, tau, 5.0, r, led.times)
        np.testing.assert_allclose(led.passive_energy, omega * (nu - 0.5), rtol=0, atol=1e-10)
        # the ledger's midpoint sum carries the snapshot spacing's quadrature
        # error, which the run's own first-law tolerance bounds
        tol = firstlaw_tolerance(led.energy[-1] - led.energy[0], 25.0)
        np.testing.assert_allclose(led.passive_dissipated_cum, flow, rtol=0, atol=tol)
