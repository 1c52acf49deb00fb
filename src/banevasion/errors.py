"""Exception types shared across the toolkit."""

from __future__ import annotations


class BanEvasionError(Exception):
    """Base class for all toolkit errors."""


# corpus ---------------------------------------------------------------


class RecordParseError(BanEvasionError):
    """A malformed record; ``path``/``line_number`` locate it when it was read."""

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


class DuplicateIdError(BanEvasionError):
    def __init__(self, account_id: str, path: str | None = None, line_number: int | None = None):
        self.account_id = account_id
        self.path = path
        self.line_number = line_number
        super().__init__(_located(f"duplicate account id {account_id!r}", path, line_number))


class InvalidConfigError(BanEvasionError):
    def __init__(self, field: str, reason: str = ""):
        self.field = field
        msg = f"invalid config field {field!r}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


# pairing --------------------------------------------------------------


class AccountNotInGroupError(BanEvasionError):
    pass


class AccountNeverBannedError(BanEvasionError):
    pass


# matching -------------------------------------------------------------


class MissingBanTimeError(BanEvasionError):
    def __init__(self, account_id: str):
        self.account_id = account_id
        super().__init__(f"account {account_id!r} has no ban time")


class InvalidCapError(BanEvasionError):
    pass


class TrueParentMissingError(BanEvasionError):
    def __init__(self, child_id: str):
        self.child_id = child_id
        super().__init__(f"no eligible true parent for child {child_id!r}")


# textstats ------------------------------------------------------------


class CategoryMismatchError(BanEvasionError):
    pass


class EmptyInputError(BanEvasionError):
    pass


class DimensionMismatchError(BanEvasionError):
    pass


class LexiconParseError(RecordParseError):
    """A malformed lexicon, sentiment or vectors line, or lexicon entry."""


class MissingVectorError(BanEvasionError, KeyError):
    """A text with no precomputed vector; a lookup miss, so a ``KeyError`` too."""

    __str__ = Exception.__str__  # KeyError's would quote the message


# features -------------------------------------------------------------


class MissingParentBanError(BanEvasionError):
    pass


# model ----------------------------------------------------------------


class SingleClassInputError(BanEvasionError):
    pass


class NonFiniteFeatureError(BanEvasionError):
    pass


class FeatureNameMismatchError(BanEvasionError):
    pass


# analysis -------------------------------------------------------------


class InsufficientSamplesError(BanEvasionError):
    pass


class ZeroVarianceError(BanEvasionError):
    pass


class LengthMismatchError(BanEvasionError):
    pass


# cli ------------------------------------------------------------------


class PipelineError(BanEvasionError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")
