"""Exception hierarchy.

Two branches matter to callers: ``ValidationFailure`` (bad inputs, exit
code 2 in the CLI) and ``NumericalFailure`` (a computation that could not
be completed, exit code 3); ``RiscapError.__str__`` writes every text,
and ``renamed`` renames a failure's fields or labels it.  ``until_failure``
lets a stage that batches work across items raise what item-by-item
evaluation would raise first.
A bad field of a record is a ``ScenarioError`` naming it (``check_integer``,
``check_k_factor`` and ``check_correlation`` hold the rules records share);
a bad argument to a math helper (``laguerre_half(0.5)``) is a ValueError.
"""

import contextlib
import numbers


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


class ScenarioError(ValidationFailure):
    """A scenario input, from a file or built in Python, failed validation."""


class DegenerateDistribution(NumericalFailure):
    """Envelope variance too small to moment-match a Gamma distribution."""


class QuadratureFailure(NumericalFailure):
    """Adaptive quadrature did not reach the requested tolerance."""


def check_integer(field: str, value, low: int = 1, bits: int | None = None) -> None:
    """Reject a value that is not an integer (numpy's are, bool is not), or
    is below low, or given bits is not below 2**bits, naming field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioError(f"expected an integer, got {value!r}", (field,))
    if bits is not None and not low <= value < 2**bits:
        raise ScenarioError(f"must lie in [{low}, 2**{bits}), got {value}", (field,))
    if value < low:
        raise ScenarioError(f"must be >= {low}, got {value}", (field,))


def check_k_factor(field: str, value: float) -> None:
    """Reject a K-factor below 0 or NaN (+inf: a deterministic link), naming field."""
    if not value >= 0:
        raise ScenarioError("K-factor must be >= 0", (field,))


def check_correlation(field: str, value: float) -> None:
    """Reject a correlation outside [0, 1] or NaN, naming field."""
    if not 0.0 <= value <= 1.0:
        raise ScenarioError(f"correlation must lie in [0, 1], got {value!r}", (field,))


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
