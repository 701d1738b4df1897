"""Exception and warning types shared across the engine."""

from __future__ import annotations


class SemiformError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SemiformError):
    """Malformed input text. Carries a 1-based source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0, path: str | None = None):
        self.line = line
        self.column = column
        self.path = path
        where = path or "<input>"
        super().__init__(f"{where}:{line}:{column}: {message}")


class UnknownSignal(ParseError):
    """A net, port, or register reference does not resolve."""


class DuplicateAddress(ParseError):
    """The same bus address is bound twice."""


class WidthOverflow(ParseError):
    """A literal value does not fit the declared width."""


class WidthMismatch(SemiformError):
    """Two connected or compared objects have different bit widths."""


class UnknownModule(SemiformError):
    """A design instantiates a module that is not in the library."""


class MultipleDrivers(SemiformError):
    """A net is driven by more than one source."""


class CombinationalLoop(SemiformError):
    """A cycle through gates with no register on it."""


class UnknownRegister(SemiformError):
    """A register name does not exist in the model."""


class UnknownInstance(SemiformError):
    """An instance name does not exist in the model."""


class UnresolvableScope(SemiformError):
    """A property references no instance, so it cannot be grouped."""


class MissingStopat(SemiformError):
    """A command-line assume names a register no stopat cuts."""


class ExhaustedRegisters(SemiformError):
    """A combined register set was requested beyond the ranked list."""


class BusDecodeError:
    """A software access hit an address no decoder range claims.

    Not raised: the simulator reports it alongside its results.
    """

    kind = "bus-decode"

    def __init__(self, message: str):
        self.message = message

    def __repr__(self):
        return f"<{self.kind}: {self.message}>"
