"""Loading, validation, and serialization of datasets, index specs, and fixtures.

File formats:

* Observations: delimited text with header
  ``territory,indicator,period,kind,x_w,x_m,x_a,value`` (unused cells
  empty, UTF-8). With ``decimal_comma=True`` the file is read with ``;``
  as the cell delimiter and ``,`` as the decimal separator; this is
  never sniffed.
* Index spec: a YAML document defining the aggregation tree and one
  recipe per indicator (metric kind, polarity, correction source,
  reporting period).
* Score tables: wide delimited text, one territory per row and one
  0-100 score column per indicator.

Lines starting with ``#`` are comments in all delimited formats.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from typing import IO, Iterable, Iterator, Mapping, Sequence

import yaml

from igei.errors import DataError, RecordError, SpecError
from igei.metrics import MetricKind
from igei.model import (
    Correction,
    Dataset,
    Domain,
    IndexTree,
    IndicatorSpec,
    ObservationRecord,
    SubDomain,
    external_source,
    record_problem,
)
from igei.penalized import Polarity

OBSERVATION_HEADER = (
    "territory",
    "indicator",
    "period",
    "kind",
    "x_w",
    "x_m",
    "x_a",
    "value",
)

DEFAULT_SPEC_RESOURCE = "igei_tree.yaml"

# Rows carried in the published tables that are not among the 21 scoring
# regions: the national aggregate and the region whose two autonomous
# provinces are already counted.
AGGREGATE_TERRITORIES = ("Italia", "Trentino-Alto Adige/Südtirol")

_METRIC_KINDS = {kind.value: kind for kind in MetricKind}


# --- file plumbing ---------------------------------------------------------


def bundled_path(name: str):
    """Traversable path of a bundled data file."""
    return resources.files("igei").joinpath("data", name)


def _open_text(source) -> IO[str]:
    """Open a path or traversable for UTF-8 reading; failures are :class:`DataError`."""
    try:
        if hasattr(source, "open"):
            return source.open("r", encoding="utf-8")
        return open(source, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc.strerror or exc}") from None


def _not_utf8(source, exc: UnicodeDecodeError) -> DataError:
    bad = exc.object[exc.start:exc.end]
    return DataError(f"{source} is not UTF-8 text: {exc.reason} ({bad!r})")


def _rows(source, decimal_comma: bool) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells) skipping comment and blank lines."""
    delimiter = ";" if decimal_comma else ","
    with _open_text(source) as handle:
        reader = enumerate(csv.reader(handle, delimiter=delimiter), start=1)
        try:
            for lineno, row in reader:
                if not row or (row[0].lstrip().startswith("#")):
                    continue
                yield lineno, list(map(str.strip, row))
        except UnicodeDecodeError as exc:
            raise _not_utf8(source, exc) from None


def _parse_number(
    cell: str, decimal_comma: bool, lineno: int, column: str
) -> float | None:
    if cell == "":
        return None
    text = cell.replace(",", ".") if decimal_comma else cell
    try:
        return float(text)
    except ValueError:
        raise DataError(f"row {lineno}: column {column!r} is not a number: {cell!r}")


# --- observations ----------------------------------------------------------


def load_dataset(source, decimal_comma: bool = False) -> Dataset:
    """Read an observation file into a :class:`Dataset`, preserving input order.

    Raises :class:`DataError` naming the offending row for malformed
    cells and for every record :class:`Dataset` refuses: shape
    violations, out-of-bound values, and duplicate (territory,
    indicator, period) keys.
    """
    lineno = 0
    # one object per distinct territory, indicator and period of this file
    shared: dict[str | int, str | int] = {}

    def records() -> Iterator[ObservationRecord]:
        nonlocal lineno
        rows = _rows(source, decimal_comma)
        first = next(rows, None)
        if first is None:
            raise DataError("observation file is empty")
        lineno, header = first
        if tuple(header) != OBSERVATION_HEADER:
            raise DataError(
                f"row {lineno}: expected header {','.join(OBSERVATION_HEADER)}, "
                f"got {','.join(header)}"
            )
        for lineno, row in rows:
            yield _parse_observation(lineno, row, decimal_comma, shared)

    try:
        return Dataset(records())
    except RecordError as exc:
        raise DataError(f"row {lineno}: {exc.problem}") from None


def load_observations(source, decimal_comma: bool = False) -> list[ObservationRecord]:
    """The records of :func:`load_dataset`, as a list in input order."""
    return list(load_dataset(source, decimal_comma))


def _parse_observation(
    lineno: int, row: list[str], decimal_comma: bool, shared: dict[str | int, str | int]
) -> ObservationRecord:
    """One record from a row's stripped cells.

    ``shared`` maps each territory, indicator and period seen so far to
    its first object, which the record takes in place of its own copy.
    """
    if len(row) != len(OBSERVATION_HEADER):
        raise DataError(
            f"row {lineno}: expected {len(OBSERVATION_HEADER)} cells, got {len(row)}"
        )
    territory, indicator, period_text, kind_text, x_w, x_m, x_a, value = row
    if not territory or not indicator:
        raise DataError(f"row {lineno}: territory and indicator must be non-empty")
    try:
        period = int(period_text)
    except ValueError:
        raise DataError(f"row {lineno}: period is not an integer: {period_text!r}")
    kind = _METRIC_KINDS.get(kind_text)
    if kind is None:
        raise DataError(
            f"row {lineno}: unknown metric kind {kind_text!r} (expected one of "
            f"{', '.join(k.value for k in MetricKind)})"
        )
    if decimal_comma:
        x_w, x_m, x_a, value = (c.replace(",", ".") for c in (x_w, x_m, x_a, value))
    try:
        x_w = float(x_w) if x_w else None
        x_m = float(x_m) if x_m else None
        x_a = float(x_a) if x_a else None
        value = float(value) if value else None
    except ValueError:
        # name the first bad column, quoting the cell as written
        for cell, column in zip(row[4:], OBSERVATION_HEADER[4:]):
            _parse_number(cell, decimal_comma, lineno, column)
        raise
    share = shared.setdefault
    return ObservationRecord(
        share(territory, territory), share(indicator, indicator), share(period, period),
        kind, x_w, x_m, x_a, value,
    )


def save_observations(records: Iterable[ObservationRecord], path) -> None:
    """Write observations in the documented format; round-trips with the loader."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(OBSERVATION_HEADER)
        for rec in records:
            writer.writerow(
                [
                    rec.territory,
                    rec.indicator,
                    rec.period,
                    rec.kind.value,
                ]
                + [
                    "" if v is None else repr(v)
                    for v in (rec.x_w, rec.x_m, rec.x_a, rec.value)
                ]
            )


# --- score tables ----------------------------------------------------------


@dataclass(frozen=True)
class ScoreTable:
    """Wide table of 0-100 indicator scores, one row per territory."""

    territories: tuple[str, ...]
    indicators: tuple[str, ...]
    scores: Mapping[tuple[str, str], float]

    def row(self, territory: str) -> dict[str, float]:
        return {ind: self.scores[(territory, ind)] for ind in self.indicators}

    def column(self, indicator: str) -> list[float]:
        return [self.scores[(terr, indicator)] for terr in self.territories]


def load_score_table(source, decimal_comma: bool = False) -> ScoreTable:
    """Read a wide indicator-score table (header: territory + indicator ids)."""
    header: list[str] | None = None
    territories: dict[str, None] = {}
    scores: dict[tuple[str, str], float] = {}
    for lineno, row in _rows(source, decimal_comma):
        if header is None:
            if len(row) < 2 or row[0] != "territory":
                raise DataError(
                    f"row {lineno}: score tables start with a 'territory' column"
                )
            header = row[1:]
            if len(set(header)) != len(header):
                raise DataError(f"row {lineno}: duplicate indicator columns")
            continue
        if len(row) != len(header) + 1:
            raise DataError(
                f"row {lineno}: expected {len(header) + 1} cells, got {len(row)}"
            )
        territory = row[0]
        if territory in territories:
            raise DataError(f"row {lineno}: duplicate territory {territory!r}")
        territories[territory] = None
        for ind, cell in zip(header, row[1:]):
            value = _parse_number(cell, decimal_comma, lineno, ind)
            if value is None:
                raise DataError(f"row {lineno}: missing score for {ind!r}")
            if not 0.0 <= value <= 100.0:
                raise DataError(
                    f"row {lineno}: score {value} for {ind!r} is outside [0, 100]"
                )
            scores[(territory, ind)] = value
    if header is None:
        raise DataError("score table is empty")
    return ScoreTable(
        territories=tuple(territories), indicators=tuple(header), scores=scores
    )


# --- index spec ------------------------------------------------------------


class _UniqueKeyLoader(yaml.SafeLoader):
    """Safe loader that refuses a repeated mapping key; PyYAML keeps the last one."""

    def construct_mapping(self, node, deep=False):
        keys = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # ``<<`` keys may repeat; the base class merges them
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in keys
            except TypeError:  # unhashable: the base class reports it
                continue
            if repeated:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"found duplicate key {key!r}",
                    key_node.start_mark,
                )
            keys.add(key)
        return super().construct_mapping(node, deep=deep)


def load_index_spec(source=None) -> tuple[dict[str, IndicatorSpec], IndexTree]:
    """Parse an index spec file; ``None`` loads the bundled default.

    Returns the indicator recipes keyed by id and the aggregation tree.
    Placement (domain, sub-domain) is derived from the tree, so indicator
    entries declare only their scoring recipe.
    """
    if source is None:
        source = bundled_path(DEFAULT_SPEC_RESOURCE)
    with _open_text(source) as handle:
        try:
            raw = yaml.load(handle, Loader=_UniqueKeyLoader)
        except UnicodeDecodeError as exc:
            raise _not_utf8(source, exc) from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                where = f" at line {mark.line + 1}, column {mark.column + 1}"
            elif isinstance(exc, yaml.reader.ReaderError):
                # a control character: the reader knows only its position
                where = f" at position {exc.position}"
            else:
                where = ""
            # PyYAML's own text repeats the location on further lines
            problem = getattr(exc, "problem", None) or str(exc).split("\n", 1)[0]
            raise SpecError(f"{source}: malformed YAML{where}: {problem}") from None
    if not isinstance(raw, dict):
        raise SpecError("index spec must be a mapping")
    for key in ("tree", "indicators"):
        if key not in raw:
            raise SpecError(f"index spec lacks the {key!r} section")

    domains: list[Domain] = []
    placement: dict[str, tuple[str, str]] = {}
    for entry in _spec_list(raw["tree"], "the 'tree' section"):
        if not isinstance(entry, dict):
            raise SpecError(f"tree entry {entry!r} is not a mapping")
        dom_id = entry.get("domain")
        if not _is_id(dom_id):
            raise SpecError(f"every tree entry needs a 'domain' id, got {dom_id!r}")
        if "subdomains" in entry:
            subs = [
                _parse_subdomain(dom_id, sub)
                for sub in _spec_list(entry["subdomains"], f"domain {dom_id!r}: subdomains")
            ]
        elif "indicators" in entry:
            # no declared sub-domains: one implicit sub-domain named after the domain
            indicators = _indicator_ids(entry["indicators"], f"domain {dom_id!r}")
            subs = [SubDomain(id=dom_id, indicators=indicators)]
        else:
            raise SpecError(f"domain {dom_id!r} declares neither subdomains nor indicators")
        domains.append(Domain(id=dom_id, subdomains=tuple(subs)))
        for sub in subs:
            for ind in sub.indicators:
                placement[ind] = (dom_id, sub.id)
    tree = IndexTree(domains=tuple(domains))

    declared = raw.get("domain_count")
    if declared is not None and declared != len(tree.domains):
        raise SpecError(
            f"spec declares {declared} domains but the tree defines {len(tree.domains)}"
        )

    if not isinstance(raw["indicators"], dict):
        raise SpecError("the 'indicators' section must be a mapping")
    specs: dict[str, IndicatorSpec] = {}
    for ind_id, fields in raw["indicators"].items():
        if ind_id not in placement:
            raise SpecError(f"indicator {ind_id!r} does not appear in the tree")
        if not isinstance(fields, dict) or "metric" not in fields:
            raise SpecError(f"indicator {ind_id!r} needs at least a metric kind")
        try:
            metric = MetricKind(fields["metric"])
        except ValueError:
            raise SpecError(
                f"indicator {ind_id!r}: unknown metric kind {fields['metric']!r}"
            )
        try:
            polarity = Polarity(fields.get("polarity", "positive"))
        except ValueError:
            raise SpecError(
                f"indicator {ind_id!r}: unknown polarity {fields['polarity']!r}"
            )
        correction = _parse_correction(ind_id, fields.get("correction", "none"))
        period = fields.get("period")
        if period is not None and not isinstance(period, int):
            raise SpecError(
                f"indicator {ind_id!r}: period must be an integer year, got {period!r}"
            )
        domain_id, subdomain_id = placement[ind_id]
        specs[ind_id] = IndicatorSpec(
            id=ind_id,
            label=str(fields.get("label", ind_id)),
            domain=domain_id,
            subdomain=subdomain_id,
            metric=metric,
            polarity=polarity,
            correction=correction,
            period=period,
        )

    for leaf in tree.leaf_ids():
        if leaf not in specs:
            raise SpecError(f"tree leaf {leaf!r} has no indicator definition")
    for spec in specs.values():
        if spec.correction.kind == "external":
            external_source(spec, specs)
    return specs, tree


def _is_id(raw) -> bool:
    return isinstance(raw, str) and raw != ""


def _spec_list(raw, what: str) -> tuple:
    if not isinstance(raw, list):
        raise SpecError(f"{what} must be a list, got {raw!r}")
    return tuple(raw)


def _indicator_ids(raw, owner: str) -> tuple[str, ...]:
    ids = _spec_list(raw, f"{owner}: indicators")
    if not all(map(_is_id, ids)):
        raise SpecError(f"{owner}: indicators must be indicator ids, got {raw!r}")
    return ids


def _parse_subdomain(dom_id: str, raw) -> SubDomain:
    if not isinstance(raw, dict) or not _is_id(raw.get("id")):
        raise SpecError(f"domain {dom_id!r}: every sub-domain needs an 'id', got {raw!r}")
    sub_id = raw["id"]
    return SubDomain(
        id=sub_id, indicators=_indicator_ids(raw.get("indicators"), f"sub-domain {sub_id!r}")
    )


def _parse_correction(ind_id: str, raw) -> Correction:
    if isinstance(raw, str):
        return Correction(raw)
    if isinstance(raw, dict):
        if "indicator" not in raw:
            raise SpecError(
                f"indicator {ind_id!r}: external correction needs a source indicator"
            )
        return Correction(
            "external", indicator=str(raw["indicator"]), field=raw.get("field", "total")
        )
    raise SpecError(f"indicator {ind_id!r}: cannot parse correction {raw!r}")


# --- dataset validation ----------------------------------------------------


@dataclass(frozen=True, order=True)
class Finding:
    """One validation finding; error-level findings block scoring."""

    level: str
    code: str
    indicator: str
    territory: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.level == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.level == "warning")


def validate_dataset(
    records: Iterable[ObservationRecord],
    specs: Mapping[str, IndicatorSpec],
    scope: Sequence[str] | None = None,
) -> ValidationReport:
    """Check a record collection against the indicator recipes.

    Findings cover missing (territory, indicator) pairs over the scope,
    metric-kind mismatches, payload shape problems, out-of-range values,
    degenerate gendered pairs, and duplicates. The finding set is
    deterministic and independent of record order. A :class:`Dataset`
    has no duplicates or record problems, so those checks are skipped.
    """
    trusted = isinstance(records, Dataset)
    records = list(records)
    findings: set[Finding] = set()
    seen: set[tuple[str, str, int]] = set()
    covered: set[tuple[str, str]] = set()

    def add(level: str, code: str, rec_or_pair, message: str) -> None:
        if isinstance(rec_or_pair, tuple):
            territory, indicator = rec_or_pair
        else:
            territory, indicator = rec_or_pair.territory, rec_or_pair.indicator
        findings.add(
            Finding(
                level=level,
                code=code,
                indicator=indicator,
                territory=territory,
                message=message,
            )
        )

    for rec in records:
        if not trusted:
            key = (rec.territory, rec.indicator, rec.period)
            if key in seen:
                add("error", "duplicate", rec, f"duplicate observation for period {rec.period}")
            seen.add(key)
        covered.add((rec.territory, rec.indicator))

        spec = specs.get(rec.indicator)
        if spec is None:
            add("warning", "unknown-indicator", rec, "no recipe for this indicator")
            continue
        if rec.kind is not spec.metric:
            add(
                "error",
                "shape-mismatch",
                rec,
                f"expected a {spec.metric.value} observation, got {rec.kind.value}",
            )
            continue
        problem = None if trusted else record_problem(rec)
        if problem:
            add("error", "out-of-range", rec, problem)
            continue
        if spec.metric is MetricKind.STANDARD:
            if spec.correction.kind == "own_average" and rec.x_a is None:
                add(
                    "error",
                    "missing-total",
                    rec,
                    "own-average correction needs the x_a column",
                )
            if rec.x_w == 0 and rec.x_m == 0:
                add(
                    "error",
                    "degenerate",
                    rec,
                    "both gendered levels are zero; the gap is undefined",
                )
            if spec.polarity is Polarity.NEGATIVE:
                for name in ("x_w", "x_m", "x_a"):
                    v = getattr(rec, name)
                    if v is not None and v > 1.0:
                        add(
                            "error",
                            "out-of-range",
                            rec,
                            f"negative-polarity indicators are rates; {name}={v} "
                            f"exceeds 1",
                        )

    territories = (
        list(scope) if scope is not None else sorted({r.territory for r in records})
    )
    for terr in territories:
        for ind in specs:
            if (terr, ind) not in covered:
                add("error", "missing-pair", (terr, ind), "no observation")

    return ValidationReport(findings=tuple(sorted(findings)))


# --- bundled reference fixtures --------------------------------------------


def _fixture_rows(
    source, default: str
) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Header and remaining (line number, cells) of ``source``, or of a bundled file."""
    if source is None:
        source = bundled_path(default)
    rows = _rows(source, decimal_comma=False)
    first = next(rows, None)
    if first is None:
        raise DataError(f"reference fixture {source} is empty")
    return first[1], rows


def load_reference_table(source=None) -> dict[str, dict[str, float]]:
    """Published numeric rows keyed by their first cell, then by column name.

    The default source holds the final-index and domain values per
    territory; the summary fixtures hold one descriptive-statistics row
    per column.
    """
    header, rows = _fixture_rows(source, "regional_index_2023.csv")
    out: dict[str, dict[str, float]] = {}
    for lineno, row in rows:
        out[row[0]] = {
            col: _parse_number(cell, False, lineno, col) or 0.0
            for col, cell in zip(header[1:], row[1:])
        }
    return out


def load_correlation_reference(source=None) -> dict[tuple[str, str], float]:
    """Published correlation cells keyed by (row indicator, column indicator)."""
    header, rows = _fixture_rows(source, "indicator_correlation_2023.csv")
    out: dict[tuple[str, str], float] = {}
    for lineno, row in rows:
        for col, cell in zip(header[1:], row[1:]):
            if cell:
                value = _parse_number(cell, False, lineno, col)
                if value is not None:
                    out[(row[0], col)] = value
    return out


@dataclass(frozen=True)
class PenalizedCase:
    """One reference sequence with its published mean comparisons."""

    values: tuple[float, ...]
    mean: float
    penalized: float
    geometric: float | None


def load_penalized_reference(source=None) -> list[PenalizedCase]:
    _, rows = _fixture_rows(source, "penalized_mean_reference.csv")
    cases: list[PenalizedCase] = []
    for _, row in rows:
        seq, mean, penalized, geometric = row
        cases.append(
            PenalizedCase(
                values=tuple(float(v) for v in seq.split(";")),
                mean=float(mean),
                penalized=float(penalized),
                geometric=float(geometric) if geometric else None,
            )
        )
    return cases


def load_demo_expected(source=None) -> dict[str, tuple[float, float]]:
    """Published (classic-variant, standard) score pairs for the demo countries."""
    _, rows = _fixture_rows(source, "demo_countries_expected.csv")
    return {row[0]: (float(row[1]), float(row[2])) for _, row in rows}
