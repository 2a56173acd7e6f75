"""Exception types shared across the package, each of which ``cli.main``
maps to a documented exit code, and the checks of a scalar parameter and
of an integer count."""

import sys
from numbers import Integral, Real


class EntroflowError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(EntroflowError):
    """Array shapes inconsistent with each other or the declared dimensions,
    including a wrong number of tensor factors."""


class InvalidState(EntroflowError):
    """Matrix is not a valid density operator (hermiticity, positivity, trace)."""


class InvalidSpec(EntroflowError):
    """Parameters violate their declared constraints (e.g. a non-finite angle
    or a beta that is not finite and positive)."""


class NotDegenerate(EntroflowError):
    """Requested rotation plane is not energy-degenerate."""


class OverlappingPlanes(EntroflowError):
    """Rotation planes share a basis state."""


class NoConvergence(EntroflowError):
    """Cycle iteration did not reach a fixed point within max_cycles."""


class BadCycle(EntroflowError):
    """Quench strokes do not restore the initial Hamiltonian."""


class ConfigError(EntroflowError):
    """Run configuration violates the documented schema."""


class NonFiniteResult(EntroflowError):
    """A computed result holds NaN or infinity and cannot be reported."""


def finite_real(value, name: str, positive: bool = False) -> float:
    """``value`` as a float when it is a real number other than a bool, at
    most the largest float in magnitude (an int is compared exactly, so
    ``10**400`` fails, as do NaN and infinities) and, with ``positive``,
    above 0; anything else raises InvalidSpec."""
    if isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        x = float(value)
        if x > 0 or not positive:
            return x
    kind = "finite positive" if positive else "finite"
    raise InvalidSpec(f"{name} must be a {kind} number, got {value!r}")


def integer_at_least(value, name: str, minimum: int) -> int:
    """``value`` as an int when it is an integer, not a bool, and at least
    ``minimum``; anything else raises InvalidSpec."""
    if isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise InvalidSpec(f"{name} must be an integer >= {minimum}, got {value!r}")
