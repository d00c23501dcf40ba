"""Composite gender-equality index construction.

Builds 0-100 indicator scores from gender-disaggregated observations,
aggregates them through a configurable domain hierarchy with penalized
arithmetic means, and reproduces the published reference tables that pin
the conventions down. The names imported here are the public API.
"""

from igei.errors import (
    AggregationError,
    DataError,
    DegenerateInputError,
    IgeiError,
    InconsistentReferenceError,
    MetricInputError,
    OutOfModelError,
    ScoringError,
    SpecError,
    StatisticsError,
)
from igei.metrics import (
    MetricKind,
    correction_coefficient,
    gap_metric,
    gei_correction_coefficient,
    gei_gap_metric,
    invert_polarity,
    score_capped,
    score_gei,
    score_ratio,
    score_share,
    score_standard,
)
from igei.model import (
    Correction,
    CorrectionKind,
    Dataset,
    Domain,
    IndexTree,
    IndicatorSpec,
    ObservationRecord,
    SubDomain,
)
from igei.penalized import (
    Polarity,
    WeightedSequence,
    cartwright_field_bounds,
    geometric_mean,
    penalized_mean,
    weighted_mean,
)
from igei.pipeline import (
    ReferenceLevels,
    TableReport,
    TerritoryReport,
    aggregate_level,
    aggregate_scores,
    aggregate_table,
    compute_indicator,
    resolve_references,
    score_series_tables,
    score_table,
    score_territory,
    score_time_series,
)
from igei.stats import (
    DescriptiveSummary,
    correlation_matrix,
    descriptive_summary,
    rank_table,
)

__version__ = "0.1.0"
