"""Exception types shared across the toolkit."""


class HarkitError(Exception):
    """Base class for all toolkit errors; `exit_code` is the command line's exit code.
    Unless a subclass says otherwise, a protocol precondition failed."""
    exit_code = 5


class UsageError(HarkitError):
    """A command-line value the command cannot run with."""
    exit_code = 2


class SchemaError(HarkitError):
    """An input file breaks its format."""
    exit_code = 4


class MalformedRow(SchemaError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}")


class NonMonotonicTimestamps(SchemaError):
    pass


class NonFiniteValue(SchemaError):
    def __init__(self, line_no: int, field: str):
        self.line_no = line_no
        self.field = field
        super().__init__(f"line {line_no}: non-finite value in column '{field}'")


class UnknownActivity(SchemaError):
    pass


class UnknownSensor(SchemaError):
    pass


class EmptySignal(HarkitError):
    pass


class SignalTooShort(HarkitError):
    pass


class EmptyTrainingSet(HarkitError):
    pass


class WidthMismatch(HarkitError):
    pass


class LengthMismatch(HarkitError):
    pass


class DimensionMismatch(HarkitError):
    pass


class TooFewInstances(HarkitError):
    pass


class SingleSubject(HarkitError):
    pass


class TooFewUnits(HarkitError):
    pass
