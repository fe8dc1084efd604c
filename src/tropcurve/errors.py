"""Exception types shared across the library."""


class TropcurveError(Exception):
    """Base class for all library errors."""


class DegeneratePolygon(TropcurveError):
    """Newton polygon is not 2-dimensional."""


class SingularSubdivision(TropcurveError):
    """The induced subdivision is not a unimodular triangulation on all
    lattice points (weighted edge, skipped point, or oversized cell)."""


class DegreeUnset(TropcurveError):
    """Operation needs the projective compactification (Newton polygon d*simplex)."""


class NotAdmissible(TropcurveError):
    """Twist set violates the per-cycle direction-sum condition."""


class UnsupportedConfiguration(TropcurveError):
    """Intersection component outside the four classified kinds."""


class InvariantViolation(TropcurveError, AssertionError):
    """An internal invariant failed: a fault in the library, not in the input.

    It is also an AssertionError, so handlers of the plain assertion keep
    catching it; unlike an ``assert`` it is raised under ``python -O`` too.
    """


class ParallelDirections(TropcurveError):
    """Transverse multiplicity of parallel directions is undefined."""


class PhasesDiffer(TropcurveError):
    """Relative twist is only defined when the two phase lines coincide."""


class WrongKind(TropcurveError):
    """Operation applied to an intersection component of the wrong kind."""


class PointOnCurve(TropcurveError):
    """Query point lies on the curve."""


class NotGenericAfterRetries(TropcurveError):
    """Deterministic perturbation schedule failed to find a generic point."""


class NotHoneycomb(TropcurveError):
    """Operation is specific to honeycomb curves."""


class NotDividing(TropcurveError):
    """Twist set is admissible but not dividing."""


class ParseError(TropcurveError):
    """Scenario file is not valid JSON or misses required structure."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


class ValidationError(TropcurveError):
    """Scenario file parsed but its contents are inconsistent."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
