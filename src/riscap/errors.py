"""Exception hierarchy.

Two branches matter to callers: ``ValidationFailure`` (bad inputs, exit
code 2 in the CLI) and ``NumericalFailure`` (a computation that could not
be completed, exit code 3); ``RiscapError.__str__`` writes every text,
and ``renamed`` renames a failure's fields or labels it.  ``until_failure``
lets a stage that batches work across items raise what item-by-item
evaluation would raise first.
"""

import contextlib


class RiscapError(Exception):
    """Base class for all library errors: a message, the fields that set
    it (record paths such as ``panels[1].panel.dx`` or ``trials``, which
    the caller that read the file or flag renames; empty where none
    applies) and a label naming the item that failed (``panel 0``,
    ``sweep P=-10.0``) or None."""

    def __init__(self, message, fields=(), label=None, *, set_by=False, detail=None):
        super().__init__(message)
        self.message, self.fields, self.label = message, tuple(fields), label
        self.set_by, self.detail = set_by or detail is not None, detail

    def __str__(self) -> str:
        """The text: "F: message" with the fields F first, or with set_by
        "message, set by F" then ": detail" if given; a label leads."""
        listed = ", ".join(self.fields)
        if self.set_by:
            text = f"{self.message}, set by {listed}" + (f": {self.detail}" if self.detail else "")
        else:
            text = f"{listed}: {self.message}" if listed else self.message
        return f"{self.label}: {text}" if self.label else text


class ValidationFailure(RiscapError):
    """Invalid scenario, geometry, or parameter values."""


class NumericalFailure(RiscapError):
    """A numerical procedure failed to produce a trustworthy result."""


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
    """A scenario input, from a file or built in Python, failed validation."""


class DegenerateDistribution(NumericalFailure):
    """Envelope variance too small to moment-match a Gamma distribution."""


class QuadratureFailure(NumericalFailure):
    """Adaptive quadrature did not reach the requested tolerance."""


@contextlib.contextmanager
def renamed(rename=None, label=None):
    """A ValidationFailure raised in the block names rename(field) in
    place of each of its fields, once each, and is put under label,
    outermost first; either may be None."""
    try:
        yield
    except ValidationFailure as exc:
        if rename:
            exc.fields = tuple(dict.fromkeys(map(rename, exc.fields)))
        if label:
            exc.label = f"{label}: {exc.label}" if exc.label else label
        raise


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
