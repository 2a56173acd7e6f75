"""Exception types shared across the package; ``cli.main`` maps each one
to a documented exit code."""


class EntroflowError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(EntroflowError):
    """Matrix shape inconsistent with the declared subsystem dimensions."""


class NonpositiveBeta(EntroflowError):
    """Inverse temperature must be strictly positive."""


class InvalidState(EntroflowError):
    """Matrix is not a valid density operator (hermiticity, positivity, trace)."""


class TooFewFactors(EntroflowError):
    """The average-correlation bound needs at least three subsystems."""


class InvalidSpec(EntroflowError):
    """Physical parameters violate their declared constraints."""


class NotDegenerate(EntroflowError):
    """Requested rotation plane is not energy-degenerate."""


class OverlappingPlanes(EntroflowError):
    """Rotation planes share a basis state."""


class NotUnitary(EntroflowError):
    """Matrix is not unitary within tolerance."""


class NoConvergence(EntroflowError):
    """Cycle iteration did not reach a fixed point within max_cycles."""


class BadCycle(EntroflowError):
    """Quench strokes do not restore the initial Hamiltonian."""


class ConfigError(EntroflowError):
    """Run configuration violates the documented schema."""


class NonFiniteResult(EntroflowError):
    """A computed result holds NaN or infinity and cannot be reported."""
