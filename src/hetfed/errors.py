"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, out-of-range values, unknown keys."""


class IngestError(ValueError):
    """Malformed input file; message carries a byte offset or line number."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required.

    For input stacked over a leading client axis, `index` is the position
    on that axis of the first client whose values are not finite.
    """

    def __init__(self, message, index: int | None = None):
        super().__init__(message)
        self.index = index


class ProtocolError(RuntimeError):
    """Violation of the round protocol: heterogeneous aggregation, state changed out of turn."""
