"""Exception types shared across the control stack."""


class NonPhysical(ValueError):
    """Robot or pendulum parameters violate a physical precondition."""


class DegenerateScale(RuntimeError):
    """ZMP scale factor is at or below the safe threshold; gain scaling would blow up."""


class RiccatiDivergence(RuntimeError):
    """Riccati doubling met a singular step, a non-finite value or its step cap."""


class NonFiniteState(ValueError):
    """The plant's CoM state is no longer finite."""


class InvalidSchedule(ValueError):
    """Footstep or contact schedule is inconsistent."""


class Infeasible(RuntimeError):
    """Wrench distribution has no solution with both centers of pressure inside the soles."""


class ConfigError(ValueError):
    """Scenario configuration is malformed. ``field`` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class SchemaMismatch(ValueError):
    """Two traces cannot be compared (different columns, dt, or length)."""


class OutputError(OSError):
    """A run's output directory cannot be created or an output file written."""
