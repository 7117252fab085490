"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SchemeError(Exception):
    """Base class for failures raised while advancing a trajectory; each subclass names the ``kind`` recorded."""

    kind: str


class PositivityError(SchemeError):
    """Density dropped to or below the configured floor.

    The mixing term log(rho) is structurally undefined at vacuum, so no
    evaluator regularizes it; loss of positivity is a scheme failure.
    """

    kind = "positivity_loss"

    def __init__(self, min_rho: float, t: float | None = None):
        self.min_rho = min_rho
        self.t = t
        where = "" if t is None else f" at t={t:.6g}"
        super().__init__(f"density positivity lost{where}: min rho = {min_rho:.6g}")


class NonFiniteError(SchemeError):
    """A step produced NaN or infinite coefficients."""

    kind = "nonfinite"


class GramSolveError(SchemeError):
    """Velocity recovery from the projected momentum failed.

    The momentum was not finite, the direct solve was singular or missed its
    residual tolerance, or conjugate gradients did not converge.
    """

    kind = "gram_failure"


class TimeStepError(SchemeError):
    """Configured dt violates the stability heuristic."""

    kind = "timestep"


class InstabilityError(SchemeError):
    """A step overflowed in floating point: its arithmetic ran away, whether or not its values stayed finite."""

    kind = "instability"


class CheckpointError(Exception):
    """Checkpoint file is malformed or inconsistent."""


class ConfigError(ValueError):
    """Configuration rejected; carries the complete list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


def require(*rules: tuple[bool, str]):
    """Raise one ConfigError listing the message of every ``(holds, message)`` rule that fails."""
    violations = [message for holds, message in rules if not holds]
    if violations:
        raise ConfigError(violations)


class CutoffSaturatedWarning(UserWarning):
    """Velocity cut-off fully engaged for a large fraction of steps."""
