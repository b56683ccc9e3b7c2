"""Exception and warning types shared across the package."""


class CutoffLeak(ValueError):
    """A state or operator puts non-negligible weight on the top Fock levels."""


class PositivityLoss(RuntimeError):
    """Time evolution produced a state with a negative or non-finite eigenvalue."""


class NonUniqueSteadyState(RuntimeError):
    """The generator's null space is empty or more than one dimensional."""


class SteadyStateResidual(RuntimeError):
    """A computed steady state is not annihilated by the generator to tolerance."""


class TraceDrift(RuntimeError):
    """Time evolution lost the unit trace beyond the integrator's tolerance."""


class NotUnitary(ValueError):
    """An operator that must be unitary is not, within tolerance."""


class LedgerInconsistent(RuntimeError):
    """Independent evaluations of the energy bookkeeping disagree."""


class NotSteady(RuntimeError):
    """A stroke ended before the working medium reached its steady state."""


class RegimeViolation(ValueError):
    """Requested quantity is undefined in this parameter regime."""


class ConfigError(ValueError):
    """Malformed scenario configuration (unknown key, bad value, missing section)."""


class SlowDriveViolation(UserWarning):
    """Frequency ramp too fast for the quasi-static assumptions to hold."""


class OpenCycle(UserWarning):
    """A cycle's end state misses its start state by more than the closure gate."""
