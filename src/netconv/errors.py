"""Exception hierarchy shared by all readers, writers, and transformations."""

from __future__ import annotations


class NetconvError(Exception):
    """Base class for every error raised by this package."""


class ParseError(NetconvError):
    """Input text does not follow the expected grammar."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

    @classmethod
    def undecodable(cls, exc: UnicodeDecodeError, lines_read: int = 0) -> "ParseError":
        """The error for bytes a text stream could not decode.

        ``lines_read`` counts the lines taken from the stream before the
        failing read; the bytes that read decoded start on the next line.
        """
        line = lines_read + 1 + exc.object.count(b"\n", 0, exc.start)
        return cls(f"input is not valid {exc.encoding}: {exc.reason}", line=line)


class SchemaError(NetconvError):
    """Input parsed but violates the format's structural schema."""


class StructuralError(NetconvError):
    """In-memory network violates a structural precondition."""


class CodingError(NetconvError):
    """Coding-table lookup failed (unknown level, out-of-range code, missing table)."""


class ExportError(NetconvError):
    """Network cannot be represented in the requested output format."""


class TemporalError(NetconvError):
    """Malformed temporal quantity or time window."""
