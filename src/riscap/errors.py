"""Exception hierarchy.

Two branches matter to callers: ``ValidationFailure`` (bad inputs, exit
code 2 in the CLI) and ``NumericalFailure`` (a computation that could not
be completed, exit code 3).  ``until_failure`` lets a stage that batches
work across items raise what item-by-item evaluation would raise first.
"""


class RiscapError(Exception):
    """Base class for all library errors."""


class ValidationFailure(RiscapError):
    """Invalid scenario, geometry, or parameter values."""


class NumericalFailure(RiscapError):
    """A numerical procedure failed to produce a trustworthy result."""


class GeometryError(ValidationFailure):
    """Degenerate link geometry (endpoint in or below the panel plane)."""


class SingularPattern(ValidationFailure):
    """Radiation-pattern factor is zero or negative; path loss undefined."""


class PatternUnderflow(SingularPattern):
    """Radiation pattern underflowed to 0 although every cosine is positive:
    the antenna-gain exponents are too large for the geometry."""


class NegativeCorrelation(ValidationFailure):
    """Doppler-derived correlation fell below zero (outside the model)."""


class InvalidScenario(ValidationFailure):
    """Scenario is structurally empty (no reflecting path, no direct path)."""


class ScenarioError(ValidationFailure):
    """Scenario file failed schema validation; message carries the field path."""


class DegenerateDistribution(NumericalFailure):
    """Envelope variance too small to moment-match a Gamma distribution."""


class QuadratureFailure(NumericalFailure):
    """Adaptive quadrature did not reach the requested tolerance."""


def until_failure(fn, items):
    """fn(item) for each item in order, up to the first call that raises:
    (the results before it, that exception or None).

    A stage that batches work across items runs the batch on the results
    and raises the exception after it, so that it raises what calling the
    stages item by item would have raised first.
    """
    done = []
    for item in items:
        try:
            done.append(fn(item))
        except Exception as exc:
            return done, exc
    return done, None
