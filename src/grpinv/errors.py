"""Exceptions shared across the package."""


class GrpinvError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(GrpinvError):
    """A group specification violates its parameter constraints."""


class OrderLimitExceeded(GrpinvError):
    """A construction would realize a group larger than the configured cap."""


class BudgetExceeded(GrpinvError):
    """A search or enumeration exceeded its configured budget."""


class CheckFailed(GrpinvError):
    """An independent re-check rejected a result this package computed."""


class InvalidPartition(GrpinvError):
    """A claimed triple cover is not a cover by proper subgroups."""


class ParseError(GrpinvError):
    """A group spec string failed to parse; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
