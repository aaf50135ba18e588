"""Exception types shared across the simulator.

Work stacked over a leading client axis may say which clients an error
concerns: a NumericError carries the rows it found non-finite, and
`stacked_rows` tags any other error raised inside one block's work with
that block's rows, as an attribute `rows`.
"""

from contextlib import contextmanager


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, out-of-range values, unknown keys."""


class IngestError(ValueError):
    """Malformed input file; message carries a byte offset or line number."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required.

    For input stacked over a leading client axis, `rows` lists the
    positions on that axis of the clients whose values are not finite.
    """

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = [int(row) for row in rows]


class ProtocolError(RuntimeError):
    """Violation of the round protocol: state changed out of turn."""


@contextmanager
def stacked_rows(rows: slice):
    """Errors raised inside concern the clients at `rows` of a stacked axis,
    unless they already name rows of their own."""
    try:
        yield
    except (ConfigError, NumericError, ProtocolError) as exc:
        if not getattr(exc, "rows", None):
            exc.rows = list(range(rows.start, rows.stop))
        raise
