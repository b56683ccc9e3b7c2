"""Independent Gaussian-moment oracle for driven squeezed strokes.

The built-in baths are quadratic with linear jumps, so a thermal start
stays Gaussian. In the damped mode b = a cosh r + a^dag sinh r the moments
n_b = <b^dag b> and m_b = <b^2> obey

    n_b' = -2 kappa (n_b - N(t)),    m_b' = -2 kappa m_b,

with N(t) = 1/(exp(omega(t)/T) - 1). Everything the entropy report holds
follows from these three real ODEs (the third is the same ODE at r = 0,
the comparison path from the passive start); nothing here calls the
library.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from squeezedbath import (
    bose_occupation,
    entropy_bound_report,
    evolve,
    linear_ramp_schedule,
    squeezed_generator,
    thermal_state,
)


def _gaussian_entropy(nu: float) -> float:
    """Von Neumann entropy of a one-mode Gaussian state, symplectic eigenvalue nu."""
    lo, hi = nu - 0.5, nu + 0.5
    return hi * math.log(hi) - (lo * math.log(lo) if lo > 0 else 0.0)


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
    nu = math.sqrt((n_b + 0.5) ** 2 - m_b**2)
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
    """The 25 -> 20 sweep at T = 5, r = 0.2, cutoff 40 against the moments."""

    @pytest.mark.parametrize("tau", [2.0, 4.0, 10.0])
    def test_entropy_report_matches_gaussian_moments(self, tau):
        sched = linear_ramp_schedule(25.0, 20.0, tau, dim=40)
        gen = squeezed_generator(sched, 1.0, None, 0.2, dim=40, temperature=5.0)
        rho0 = thermal_state(bose_occupation(25.0, 5.0), 40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = evolve(gen, rho0, tau)
            rep = entropy_bound_report(traj, gen)
        fields, work = gaussian_stroke(25.0, 20.0, tau, 5.0, 0.2)
        for field, value in fields.items():
            assert getattr(rep, field) == pytest.approx(value, rel=0, abs=1e-10), field
        assert traj.work_cum[-1] == pytest.approx(work, rel=0, abs=1e-10)
