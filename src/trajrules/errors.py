"""Exception types shared across the package.

Errors that stem from bad input data or configuration derive from
InputError; the CLI maps those to exit code 2 and everything else
under TrajRulesError to exit code 1.
"""
from __future__ import annotations


class TrajRulesError(Exception):
    """Base class for all package errors."""


class InputError(TrajRulesError):
    """Invalid input data or configuration (CLI exit code 2)."""


# --- trajectory ingestion ---

class TooShortError(InputError):
    """Trajectory has too few points after repair."""


class NonFiniteError(InputError):
    """Trajectory coordinates contain NaN or infinity."""


class NonPositiveError(InputError):
    """A smoothing noise setting outside NOISE_RANGE: zero, negative and NaN included."""


class ImplausibleTrackError(InputError):
    """A frame rate, unit_scale or step between frames that no recorded vehicle has."""


class DuplicateFrameError(InputError):
    """Two points share the same frame index."""


class WindowTooLongError(InputError):
    """Sliding window does not fit inside the trajectory."""


# --- predicate DSL ---

class PredicateError(InputError):
    """Base class for predicate parse errors; carries a character position."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class PredicateSyntaxError(PredicateError):
    """Malformed predicate text."""


class UnknownAtomError(PredicateError):
    """Identifier is not in the feature-atom vocabulary."""


class NonFiniteLiteralError(PredicateError):
    """Numeric literal parsed to NaN or infinity."""


# --- rule library ---

class UnitMismatchError(InputError):
    """Feature units are incompatible with the rule library's units."""


class CorruptLibraryError(InputError):
    """Library file cannot be parsed or lacks required fields."""


class LibraryValidationError(InputError):
    """Library content violates an invariant (e.g. duplicate rule ids)."""


# --- LLM backends ---

class BackendError(TrajRulesError):
    """Completion request failed."""

    def __init__(self, message: str, status: int | None = None, body: str | None = None):
        super().__init__(message)
        self.status = status
        self.body = body


class BackendTimeoutError(BackendError):
    """A single completion attempt timed out."""


class RetriesExhaustedError(BackendError):
    """All retry attempts failed."""


class EmptySampleSetError(InputError):
    """A prompt builder received no samples (or no rules)."""


# --- verification ---

class EmptyValidationTableError(InputError):
    """Verification requires a table with at least one labeled row."""


# --- classification ---

class NoApplicableRulesError(TrajRulesError):
    """No verified rule applies; caller should report 'undetermined'."""


# --- evaluation ---

class LengthMismatchError(InputError):
    """Prediction and label sequences differ in length."""


class EmptyInputError(InputError):
    """No samples left to evaluate."""


class DegenerateLabelsError(InputError):
    """ROC-AUC needs both classes present."""


# --- synthetic data ---

class InfeasibleProfileError(TrajRulesError):
    """Generator cannot reach the profile's jerk target within tolerance."""


# --- file I/O ---

class SchemaError(InputError):
    """A data file violates its documented schema."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
