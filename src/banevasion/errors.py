"""Exception types shared across the toolkit.

One class per kind of failure: every site that detects a kind raises its
class, so a caller catches one class per kind and a message names the same
thing wherever the fault was found (``file:line``, account id, or option).
"""

from __future__ import annotations


class BanEvasionError(Exception):
    """Base class for all toolkit errors."""


# input records --------------------------------------------------------


class RecordParseError(BanEvasionError):
    """A malformed or duplicated record, lexicon entry or vectors line, or a
    corpus or pair rule broken; ``path``/``line_number`` locate it when it
    was read."""

    def __init__(self, path: str | None, line_number: int | None, reason: str):
        self.path = path
        self.line_number = line_number
        self.reason = reason
        super().__init__(_located(reason, path, line_number))


def _located(msg: str, path: str | None, line_number: int | None) -> str:
    return msg if path is None else f"{path}:{line_number}: {msg}"


class ReferentialIntegrityError(BanEvasionError):
    """An unknown account id; ``path``/``line_number`` locate it when it was read."""

    def __init__(
        self,
        offending_id: str,
        context: str = "",
        path: str | None = None,
        line_number: int | None = None,
    ):
        self.offending_id = offending_id
        self.path = path
        self.line_number = line_number
        msg = f"unknown account id {offending_id!r}"
        if context:
            msg += f" ({context})"
        super().__init__(_located(msg, path, line_number))


class RevisionsNotLoadedError(BanEvasionError):
    """A read of the revisions of a corpus built with ``keep_revisions=False``,
    which holds only their per-account counts."""

    def __init__(self):
        super().__init__("the corpus was loaded without its revisions (keep_revisions=False)")


class InvalidConfigError(BanEvasionError, ValueError):
    """An option outside its range, named by ``field``; a bad value, so a
    ``ValueError`` too."""

    def __init__(self, field: str, reason: str = ""):
        self.field = field
        msg = f"invalid config field {field!r}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class MismatchError(BanEvasionError, ValueError):
    """Two inputs that must line up (lengths, shapes, categories, feature
    names) do not."""


class InvalidInputError(BanEvasionError, ValueError):
    """An input of the wrong form for its function: a training matrix or
    labels of the wrong shape or values, a model file of another format; a
    bad value, so a ``ValueError`` too."""


# text vectors ---------------------------------------------------------


class MissingVectorError(BanEvasionError, KeyError):
    """A text with no precomputed vector; a lookup miss, so a ``KeyError`` too."""

    __str__ = Exception.__str__  # KeyError's would quote the message


# degenerate samples ---------------------------------------------------


class EmptyInputError(BanEvasionError):
    pass


class SingleClassInputError(BanEvasionError):
    pass


class NonFiniteFeatureError(BanEvasionError):
    pass


class LeakageError(BanEvasionError, RuntimeError):
    """A negative account on both sides of a train/test split; a broken
    invariant of the split, so a ``RuntimeError`` too."""


class InsufficientSamplesError(BanEvasionError):
    pass


class ZeroVarianceError(BanEvasionError):
    pass


class ConvergenceError(BanEvasionError, ArithmeticError):
    """An iteration that did not converge within its limit; a failed
    computation, so an ``ArithmeticError`` too."""


# cli ------------------------------------------------------------------


class PipelineError(BanEvasionError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")
