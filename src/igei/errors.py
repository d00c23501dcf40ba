"""Exception types shared across the package."""


class IgeiError(ValueError):
    """Base class for all errors raised by this package."""


class MetricInputError(IgeiError):
    """An input to a scalar scoring formula is outside its domain."""


class DegenerateInputError(MetricInputError):
    """Inputs for which a gap metric is mathematically undefined (0/0)."""


class OutOfModelError(MetricInputError):
    """Inputs violate the model's assumptions (e.g. a level-based gap above 1)."""


class InconsistentReferenceError(MetricInputError):
    """An achievement level exceeds the reference maximum it is compared against."""


class AggregationError(IgeiError):
    """Invalid weighted sequence or aggregation request."""


class StatisticsError(IgeiError):
    """Statistics requested on unsuitable data; ``positions`` are the columns named."""

    positions: tuple[int, ...] = ()


class SpecError(IgeiError):
    """An indicator definition or index tree is malformed."""


class DataError(IgeiError):
    """A data file or record collection cannot be loaded or is inconsistent."""


class ScoringError(IgeiError):
    """The pipeline cannot produce a complete, well-defined score."""


class RecordError(DataError):
    """A record refused when built, or a repeated key; ``problem`` omits the key."""

    def __init__(self, message: str, problem: str):
        super().__init__(message)
        self.problem = problem
