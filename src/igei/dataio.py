"""Loading and validation of datasets, index specs and score tables.

File formats:

* Observations: delimited text with header
  ``territory,indicator,period,kind,x_w,x_m,x_a,value`` (unused cells
  empty, UTF-8). With ``decimal_comma=True`` the file is read with ``;``
  as the cell delimiter and ``,`` as the decimal separator; this is
  never sniffed.
* Index spec: a YAML document defining the aggregation tree and one
  recipe per indicator (metric kind, polarity, correction source; an
  integer ``period`` key is accepted and checked, but not used).
* Score tables: wide delimited text, one territory per row and one
  0-100 score column per indicator.

Lines starting with ``#`` are comments in all delimited formats.
"""

from __future__ import annotations

import csv
import io
from functools import cached_property
from itertools import chain, islice, repeat
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from igei._frozen import Frozen
from igei.errors import DataError, SpecError
from igei.metrics import MetricKind, _all_rates, _complete, _some_degenerate, _within
from igei.model import (
    Correction,
    CorrectionKind,
    Columns,
    Dataset,
    Domain,
    IndexTree,
    IndicatorSpec,
    ObservationRecord,
    SubDomain,
    _shown,
    as_dataset,
    duplicate_problem,
    external_source,
    record_problem,
)
from igei.penalized import Polarity

OBSERVATION_HEADER = ("territory", "indicator", "period", "kind", "x_w", "x_m", "x_a", "value")

DEFAULT_SPEC_RESOURCE = "igei_tree.yaml"

_METRIC_KINDS = {kind.value: kind for kind in MetricKind}
# bound once: on CPython 3.11 a member read off its Enum class takes a slow
# path, and validate_dataset reads these per record
_STANDARD, _OWN_AVERAGE = MetricKind.STANDARD, CorrectionKind.OWN_AVERAGE
_NEGATIVE = Polarity.NEGATIVE


# --- file plumbing ---------------------------------------------------------


def bundled_path(name: str):
    """Traversable path of a bundled data file."""
    from importlib import resources  # only verify, demo and the tests ask for one

    return resources.files("igei").joinpath("data", name)


def _open_text(source, newline: str | None = None) -> IO[str]:
    """Open a path or traversable for UTF-8 reading, skipping a leading
    byte-order mark; failures are :class:`DataError`.

    Delimited files pass ``newline=""``, so that a quoted cell keeps its
    line breaks as written.
    """
    try:
        if hasattr(source, "open"):
            return source.open("r", encoding="utf-8-sig", newline=newline)
        return open(source, "r", encoding="utf-8-sig", newline=newline)
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc.strerror or exc}") from None


def _read_bytes(source) -> bytes:
    """Every byte of a path or traversable, read once; failures are :class:`DataError`."""
    try:
        with source.open("rb") if hasattr(source, "open") else open(source, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc.strerror or exc}") from None


def _utf8_lines(raw: bytes) -> IO[str]:
    """``raw`` as delimited UTF-8 text, decoded as it is read; a leading
    byte-order mark, as spreadsheet programs write, is skipped."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")


def _not_utf8(source, exc: UnicodeDecodeError) -> DataError:
    bad = exc.object[exc.start:exc.end]
    return DataError(f"{source} is not UTF-8 text: {exc.reason} ({bad!r})")


def _rows(source, decimal_comma: bool, handle: IO[str] | None = None) -> Iterator:
    """Yield (line number, cells as written) of ``handle``, or else of ``source``,
    skipping comment and blank lines."""
    lineno = 0
    with handle or _open_text(source, newline="") as handle:
        reader = enumerate(csv.reader(handle, delimiter=";" if decimal_comma else ","), start=1)
        try:
            for lineno, row in reader:
                # the cheap test first: most first cells hold no '#'
                if not row or ("#" in row[0] and row[0].lstrip().startswith("#")):
                    continue
                yield lineno, row
        except UnicodeDecodeError as exc:
            raise _not_utf8(source, exc) from None
        except csv.Error as exc:  # such as a cell above the csv module's size limit
            raise DataError(f"row {lineno + 1}: {exc}") from None


def _plain(text: str) -> bool:
    """Whether number text is ASCII without a '_': the spellings a table means.

    ``float`` and ``int`` also read '_' digit groups and non-ASCII digits,
    so '0_4' would load as 4.0 and '٣' as 3.
    """
    return text.isascii() and "_" not in text


def _period(text: str) -> int:
    if not _plain(text):
        raise ValueError(text)
    return int(text)


def _parse_number(
    cell: str, decimal_comma: bool, lineno: int, column: str
) -> float | None:
    if cell == "":
        return None
    text = cell.replace(",", ".") if decimal_comma else cell
    try:
        if not _plain(cell):
            raise ValueError(cell)
        value = float(text)
    except ValueError:
        raise DataError(f"row {lineno}: column {column!r} is not a number: {cell!r}")
    if decimal_comma and "." in cell:
        # where ',' is the decimal separator, '.' groups thousands: 1.234 means 1234
        raise DataError(
            f"row {lineno}: column {column!r} has a '.' but the decimal separator "
            f"is ',': {cell!r}"
        )
    return value


# --- observations ----------------------------------------------------------


class _Interned(dict):
    """Cell text -> its converted value, converted once per distinct text.

    A conversion error propagates and stores nothing.
    """

    def __init__(self, convert) -> None:
        super().__init__()
        self.convert = convert

    def __missing__(self, cell: str):
        value = self[cell] = self.convert(cell)
        return value


def _cell_values() -> tuple[_Interned, _Interned]:
    """Cell text -> name, and cell text -> period, for one file.

    Equal names, and equal periods, are one object, whatever the
    whitespace around them; a period cell that is not an integer raises
    ValueError.
    """
    shared: dict[str, str] = {}
    ints: dict[int, int] = {}
    return (_Interned(lambda cell: shared.setdefault(cell.strip(), cell.strip())),
            _Interned(lambda cell: ints.setdefault(value := _period(cell), value)))


def load_dataset(source, decimal_comma: bool = False) -> Dataset:
    """Read an observation file into a :class:`Dataset`, preserving input order.

    Raises :class:`DataError` naming the offending row for malformed
    cells, for every record that :class:`ObservationRecord` would refuse
    (unknown kinds, shape violations, out-of-bound values), and for
    duplicate (territory, indicator, period) keys.

    Rows are gathered into one block of columns per indicator, checked a
    column at a time (see :func:`_read_twice`).
    """
    return _read_twice(source, decimal_comma, _load_blocks, _load_rows)


def _read_twice(source, decimal_comma: bool, columns, rows):
    """``columns`` of the file's text, or when one of its checks fails ``rows``.

    ``columns`` returns None when a check fails, and raises ValueError for
    a cell it cannot convert; ``rows`` reads the text again one row at a
    time and names the first fault in file order. The file is read once,
    so a pipe serves both readings.
    """
    raw = _read_bytes(source)
    try:
        data = columns(_utf8_lines(raw), decimal_comma)
    except (ValueError, csv.Error):  # a bad cell; UnicodeDecodeError is a ValueError
        data = None
    return rows(_utf8_lines(raw), source, decimal_comma) if data is None else data


# characters of text cut into cells at a time, before each chunk is extended
# to a line end: the cells of about this much text are held at once
_CHUNK_CHARS = 1 << 16


def _cell_chunks(handle: IO[str], decimal_comma: bool) -> Iterator[list[str]]:
    """Yield the header row's cells, then each chunk's other rows as one flat list.

    Comment and blank lines are dropped; a row not as wide as the header raises
    ValueError. A chunk, extended to a line end, is cut with one ``str.split``
    when it holds no '"' or '\\r' and is too short for a cell past the csv
    module's size limit; else ``csv.reader`` reads it. In a split chunk the
    first cell of every row but the first keeps the '\\n' before it, which the
    callers strip.
    """
    delimiter = ";" if decimal_comma else ","
    # the header, read by csv.reader one line at a time: the chunks start after it
    reader = csv.reader(iter(handle.readline, ""), delimiter=delimiter)
    header = next((row for row in reader if row and not row[0].lstrip().startswith("#")), None)
    if header is None:
        return
    yield header
    width = len(header)
    while text := handle.read(_CHUNK_CHARS):
        text += handle.readline()
        if '"' in text or "\r" in text or len(text) > csv.field_size_limit():
            # no more rows than the chunk has lines: the reader reads on past
            # them only to end a row, as where a quoted cell runs on
            lines = io.StringIO(text, newline="").readlines()
            rows = islice(csv.reader(chain(lines, iter(handle.readline, "")),
                                     delimiter=delimiter), len(lines))
            rows = [row for row in rows if row and not row[0].lstrip().startswith("#")]
            if set(map(len, rows)) - {width}:
                raise ValueError("a row not as wide as the header")
            cells = [*chain.from_iterable(rows)]
        else:
            if "#" in text or "\n\n" in text or text[0] == "\n":
                lines = text.split("\n")
                text = "\n".join([line for line in lines if line and not line.lstrip().startswith("#")])
            if not (text := text.rstrip("\n")):
                continue
            # each '\n' leads the first cell of a row: every row is ``width`` cells
            # wide when the cells at ``width``, ``2 * width``, ... hold all of them
            n = text.count("\n") + 1
            cells = text.replace("\n", delimiter + "\n").split(delimiter)
            if len(cells) != n * width or "".join(cells[width::width]).count("\n") != n - 1:
                raise ValueError("a row not as wide as the header")
        if cells:
            yield cells


def _load_blocks(handle: IO[str], decimal_comma: bool) -> Dataset | None:
    """The dataset of a file whose every check passes a column at a time.

    None when a check fails; a cell that does not convert raises ValueError.
    """
    width = len(OBSERVATION_HEADER)
    names, periods = _cell_values()
    # territory names in order of first appearance
    territories = _Interned(names.__getitem__)
    columns: dict[str, list[list]] = {}
    order: list[str] = []
    with handle:
        chunks = _cell_chunks(handle, decimal_comma)
        if tuple(map(str.strip, next(chunks, ()))) != OBSERVATION_HEADER:
            return None
        for cells in chunks:
            indicators, row_indicators, pick = _chunk_rows(cells, width, names)
            order += row_indicators
            # interned in row order, so that territories keep their order of first appearance
            territory = list(map(territories.__getitem__, cells[::width]))
            period_cells = None
            for j, indicator in enumerate(indicators):
                # in a grid every indicator of a chunk lists the same periods
                if (cells_j := pick(cells, j, 2, width)) != period_cells:
                    period_cells, period = cells_j, list(map(periods.__getitem__, cells_j))
                block = columns.setdefault(indicator, [[] for _ in Columns._fields])
                part = [pick(territory, j), period,
                        *(pick(cells, j, k, width) for k in range(3, width))]
                if not _extend_columns(block, part, decimal_comma):
                    return None
    blocks = {}
    for indicator, block in columns.items():
        block = blocks[indicator] = Columns(*map(tuple, block))
        if not block.well_formed() or not _distinct_keys(block.territory, block.period):
            return None
    if "" in names.values():
        return None
    return Dataset._from_columns(blocks, dict.fromkeys(territories.values()), order)


def _distinct_keys(territory: tuple[str, ...], period: tuple[int, ...]) -> bool:
    """Whether no (territory, period) pair repeats.

    A territory-major grid, where each territory's run of rows lists the same
    periods (one period: distinct territories), answers without a tuple per
    row; any other layout builds the set of pairs.
    """
    n = len(territory)
    w = len(set(period))
    heads = territory[::w]
    if (period == period[:w] * (n // w) and len(set(heads)) == len(heads)
            and all(territory[k::w] == heads for k in range(1, w))):
        return True
    return len(set(zip(territory, period))) == n


def _chunk_rows(cells: list[str], width: int,
                names: _Interned) -> tuple[list[str], list[str], Callable[..., list]]:
    """A chunk's indicators in order of first appearance, each row's indicator, and
    ``pick(column, j, k=0, w=1)``: field ``k`` of indicator ``j``'s rows of a column
    of ``w`` cells a row (the chunk's cells, or one value per row), in row order."""
    raw = cells[1::width]
    # the row where the first row's indicator cell comes back: one cycle, if any
    m = [*raw, raw[0]].index(raw[0], 1)
    head = list(map(names.__getitem__, raw[:m]))
    if raw[m:] == raw[:-m] and len(set(head)) == m:
        # each indicator every m-th row, as in a file ordered by territory and
        # period; the chunk may start and end inside a cycle
        q, r = divmod(len(raw), m)
        return head, head * q + head[:r], lambda column, j, k=0, w=1: column[j * w + k::m * w]
    at: dict[str, list[int]] = {}
    for i, name in enumerate(rows := list(map(names.__getitem__, raw))):
        at.setdefault(name, []).append(i)
    places = list(at.values())
    return list(at), rows, lambda column, j, k=0, w=1: [column[i * w + k] for i in places[j]]


def _extend_columns(block: list[list], part: list[list], decimal_comma: bool) -> bool:
    """Append one indicator's rows, ``part`` a list per Columns field, to its
    columns: names and periods as interned, the other fields as cells.

    False for kind cells that name no kind, or several, for a number cell
    that is not plain, and for a '.' where ',' is the decimal separator; a
    cell that does not convert raises ValueError.
    """
    territory, period, kind_cells, *level_cells = part
    n = len(territory)
    # one count answers for a column that spells one kind throughout
    kinds = {_METRIC_KINDS.get(cell.strip()) for cell in
             (kind_cells[:1] if kind_cells.count(kind_cells[0]) == n else set(kind_cells))}
    if len(kinds) != 1 or None in kinds:
        return False
    block[0].extend(territory)
    block[1].extend(period)
    block[2].extend((kinds.pop(),) * n)
    for cells, column in zip(level_cells, block[3:]):
        blanks = cells.count("")
        if blanks == n:
            column.extend((None,) * n)
            continue
        joined = "".join(cells)
        if not _plain(joined) or (decimal_comma and "." in joined):
            return False
        if decimal_comma:
            cells = list(map(str.replace, cells, repeat(","), repeat(".")))
        # float() reads the whitespace around a number, but not a blank cell
        column.extend((float(c) if c else None for c in cells) if blanks else map(float, cells))
    return True


def _load_rows(handle: IO[str], source, decimal_comma: bool) -> Dataset:
    """:func:`load_dataset` of ``source``, read from ``handle`` one row at a time:
    the first fault in file order, or the dataset."""
    names, periods = _cell_values()
    rows: list[tuple] = []
    keys: set[tuple[str, str, int]] = set()
    lines = _rows(source, decimal_comma, handle)
    lineno, row = next(lines, (0, None))
    if row is None:
        raise DataError("observation file is empty")
    if (header := tuple(map(str.strip, row))) != OBSERVATION_HEADER:
        raise DataError(f"row {lineno}: expected header {','.join(OBSERVATION_HEADER)}, "
                        f"got {','.join(header)}")
    for lineno, row in lines:
        territory, indicator, period, kind, *levels = _parse_observation(
            lineno, row, decimal_comma, periods
        )
        fields = (names[territory], names[indicator], period,
                  _METRIC_KINDS.get(kind, kind), *levels)
        problem = record_problem(*fields)
        if problem:
            raise DataError(f"row {lineno}: {problem}")
        key = fields[:3]
        if key in keys:
            raise DataError(f"row {lineno}: {duplicate_problem(key)}")
        keys.add(key)
        rows.append(fields)
    data = Dataset.__new__(Dataset)
    data._fill(rows)
    return data


def load_observations(source, decimal_comma: bool = False) -> list[ObservationRecord]:
    """The records of :func:`load_dataset`, as a list in input order."""
    return list(load_dataset(source, decimal_comma))


def _parse_observation(
    lineno: int, row: list[str], decimal_comma: bool, periods: _Interned
) -> tuple:
    """A row's fields, cell by cell, naming the first bad cell as written.

    The path of a row the loader's one-pass conversion refuses; cells are
    stripped first, so a blank cell still reads as empty.
    """
    row = list(map(str.strip, row))
    if len(row) != len(OBSERVATION_HEADER):
        raise DataError(
            f"row {lineno}: expected {len(OBSERVATION_HEADER)} cells, got {len(row)}"
        )
    territory, indicator, period_text, kind = row[:4]
    try:
        period = periods[period_text]
    except ValueError:
        raise DataError(f"row {lineno}: period is not an integer: {period_text!r}") from None
    levels = (
        _parse_number(cell, decimal_comma, lineno, column)
        for cell, column in zip(row[4:], OBSERVATION_HEADER[4:])
    )
    return (territory, indicator, period, kind, *levels)


# --- score tables ----------------------------------------------------------


class ScoreTable(Frozen):
    """Wide table of 0-100 indicator scores, one row per territory.

    ``columns`` holds one tuple of scores per indicator, in ``indicators``
    order, with position ``i`` of each belonging to ``territories[i]``
    (any other shape is a :class:`DataError`); read them through
    :meth:`row` and :meth:`column`.
    """

    def __init__(self, territories: tuple[str, ...], indicators: tuple[str, ...],
                 columns: tuple[tuple[float, ...], ...]) -> None:
        if len(columns) != len(indicators) or any(len(c) != len(territories) for c in columns):
            raise DataError("a score table needs one column per indicator, one score per territory")
        self._store(territories, indicators, columns)

    def row(self, territory: str) -> dict[str, float]:
        return self._row_at(self._positions[territory])

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Each territory's row position, built on the first :meth:`row`."""
        return {terr: i for i, terr in enumerate(self.territories)}

    def _row_at(self, i: int) -> dict[str, float]:
        return {ind: column[i] for ind, column in zip(self.indicators, self.columns)}

    def column(self, indicator: str) -> list[float]:
        return list(self.columns[self.indicators.index(indicator)])


def load_score_table(source, decimal_comma: bool = False) -> ScoreTable:
    """Read a wide indicator-score table (header: territory + indicator ids).

    Rows are read a chunk at a time and checked a column at a time (see
    :func:`_read_twice`).
    """
    return _read_twice(source, decimal_comma, _table_columns, _table_rows)


def _table_columns(handle: IO[str], decimal_comma: bool) -> ScoreTable | None:
    """The score table of ``handle`` when every check passes a column at a time.

    None when a check fails; a cell that does not convert raises ValueError.
    """
    with handle:
        chunks = _cell_chunks(handle, decimal_comma)
        header = list(map(str.strip, next(chunks, [""])))
        indicators = header[1:]
        if header[0] != "territory" or not indicators or len(set(indicators)) != len(indicators):
            return None
        width = len(header)
        names: list[str] = []
        columns: list[list[float]] = [[] for _ in indicators]
        for cells in chunks:
            names += map(str.strip, cells[::width])
            for k, column in enumerate(columns, 1):
                text = cells[k::width]
                joined = "".join(text)
                if not _plain(joined) or (decimal_comma and "." in joined):
                    return None
                if decimal_comma:
                    text = map(str.replace, text, repeat(","), repeat("."))
                # float() reads the whitespace around a number, but not a blank cell
                column += map(float, text)
    if len(set(names)) != len(names) or not all(_within(col, 0.0, 100.0) for col in columns):
        return None
    return ScoreTable(territories=tuple(names), indicators=tuple(indicators),
                      columns=tuple(map(tuple, columns)))


def _table_rows(handle: IO[str], source, decimal_comma: bool) -> ScoreTable:
    """:func:`load_score_table` of ``source``, read from ``handle`` one row and
    one cell at a time: the first fault in file order, or the table."""
    header: list[str] | None = None
    names: dict[str, None] = {}
    for lineno, row in _rows(source, decimal_comma, handle):
        if header is None:
            row = list(map(str.strip, row))
            if len(row) < 2 or row[0] != "territory":
                raise DataError(
                    f"row {lineno}: score tables start with a 'territory' column"
                )
            header = row[1:]
            if len(set(header)) != len(header):
                raise DataError(f"row {lineno}: duplicate indicator columns")
            columns: list[list[float]] = [[] for _ in header]
            continue
        if len(row) != len(header) + 1:
            raise DataError(
                f"row {lineno}: expected {len(header) + 1} cells, got {len(row)}"
            )
        territory = row[0].strip()
        if territory in names:
            raise DataError(f"row {lineno}: duplicate territory {territory!r}")
        names[territory] = None
        # name the first bad cell, quoting it as written
        for ind, cell, column in zip(header, row[1:], columns):
            value = _parse_number(cell.strip(), decimal_comma, lineno, ind)
            if value is None:
                raise DataError(f"row {lineno}: missing score for {ind!r}")
            if not 0.0 <= value <= 100.0:
                raise DataError(
                    f"row {lineno}: score {value} for {ind!r} is outside [0, 100]"
                )
            column.append(value)
    if header is None:
        raise DataError("score table is empty")
    return ScoreTable(territories=tuple(names), indicators=tuple(header),
                      columns=tuple(map(tuple, columns)))


# --- index spec ------------------------------------------------------------


def load_index_spec(source=None) -> tuple[dict[str, IndicatorSpec], IndexTree]:
    """Parse an index spec file; ``None`` loads the bundled default.

    The default is served from :mod:`igei._bundled_spec`, a snapshot of
    ``igei_tree.yaml``, so that only a spec file imports PyYAML.

    Returns the indicator recipes keyed by id and the aggregation tree.
    Placement (domain, sub-domain) lives only in the tree, so indicator
    entries declare only their scoring recipe.
    """
    if source is None:
        from igei._bundled_spec import document

        return _spec_from_document(document())
    from igei._spec_yaml import parse_spec  # PyYAML: only a spec file needs it

    with _open_text(source) as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(source, exc) from None
        except OSError as exc:  # such as EIO, from a file that opens but cannot be read
            raise DataError(f"cannot read {source}: {exc.strerror or exc}") from None
    return _spec_from_document(parse_spec(text, source))


def _spec_from_document(raw) -> tuple[dict[str, IndicatorSpec], IndexTree]:
    """The recipes and tree of a spec document, as PyYAML reads it, checked."""
    if not isinstance(raw, dict):
        raise SpecError("index spec must be a mapping")
    for key in ("tree", "indicators"):
        if key not in raw:
            raise SpecError(f"index spec lacks the {key!r} section")

    domains: list[Domain] = []
    for position, entry in enumerate(_spec_list(raw["tree"], "the 'tree' section"), 1):
        if not isinstance(entry, dict):
            raise SpecError(f"tree entry {position} is not a mapping, got {_shown(entry)}")
        if "domain" not in entry:
            raise SpecError(f"tree entry {position} needs a 'domain' id")
        dom_id = entry["domain"]
        # Domain checks the id once its sub-domains are built: show it bounded till then
        owner = f"domain {_shown(dom_id)}"
        if "subdomains" in entry:
            subs = []
            for sub in _spec_list(entry["subdomains"], f"{owner}: subdomains"):
                if not isinstance(sub, dict) or "id" not in sub:
                    raise SpecError(f"{owner}: every sub-domain needs an 'id', got {_shown(sub)}")
                subs.append(SubDomain(id=sub["id"], indicators=sub.get("indicators")))
        elif "indicators" in entry:
            # no declared sub-domains: one implicit sub-domain named after the domain
            subs = [SubDomain(id=dom_id, indicators=entry["indicators"])]
        else:
            raise SpecError(f"{owner} declares neither subdomains nor indicators")
        domains.append(Domain(id=dom_id, subdomains=subs))
    tree = IndexTree(domains=domains)

    declared = raw.get("domain_count")
    if declared is not None:
        if declared.__class__ is not int:  # a bool too: True would count as 1
            raise SpecError(f"domain_count must be an integer, got {_shown(declared)}")
        if declared != len(tree.domains):
            raise SpecError(
                f"spec declares {declared} domains but the tree defines {len(tree.domains)}"
            )

    if not isinstance(raw["indicators"], dict):
        raise SpecError("the 'indicators' section must be a mapping")
    specs: dict[str, IndicatorSpec] = {}
    for ind_id, fields in raw["indicators"].items():
        if ind_id not in tree.leaf_ids():
            raise SpecError(f"indicator {ind_id!r} does not appear in the tree")
        if not isinstance(fields, dict) or "metric" not in fields:
            raise SpecError(f"indicator {ind_id!r} needs at least a metric kind")
        period = fields.get("period")
        if period is not None and period.__class__ is not int:  # a bool too, as records say
            raise SpecError(
                f"indicator {ind_id!r}: period must be an integer year, got {_shown(period)}"
            )
        label = fields.get("label", ind_id)
        if label.__class__ is not str:  # null, true, 5 and a collection are no text
            raise SpecError(f"indicator {ind_id!r}: label must be text, got {_shown(label)}")
        specs[ind_id] = IndicatorSpec(
            id=ind_id,
            label=label,
            metric=fields["metric"],
            polarity=fields.get("polarity", "positive"),
            correction=_parse_correction(ind_id, fields.get("correction", "none")),
        )

    for leaf in tree.leaf_ids():
        if leaf not in specs:
            raise SpecError(f"tree leaf {leaf!r} has no indicator definition")
    for spec in specs.values():
        if spec.correction.kind is CorrectionKind.EXTERNAL:
            external_source(spec, specs)
    return specs, tree


def _spec_list(raw, what: str) -> tuple:
    if not isinstance(raw, list):
        raise SpecError(f"{what} must be a list, got {_shown(raw)}")
    return tuple(raw)


def _parse_correction(ind_id: str, raw) -> Correction:
    owner = f"indicator {ind_id!r}"
    if isinstance(raw, str):
        kind, source, field = raw, None, "total"
    elif isinstance(raw, dict):
        if "indicator" not in raw:
            raise SpecError(f"{owner}: external correction needs a source indicator")
        source, field = raw["indicator"], raw.get("field", "total")
        if isinstance(source, (list, dict, set)) or not isinstance(field, str):
            raise SpecError(
                f"{owner}: external correction needs an indicator id and "
                f"a field name, got {_shown(source)} and {_shown(field)}"
            )
        kind, source = CorrectionKind.EXTERNAL, str(source)
    else:
        raise SpecError(f"{owner}: cannot parse correction {_shown(raw)}")
    try:
        return Correction(kind, indicator=source, field=field)
    except SpecError as exc:
        raise SpecError(f"{owner}: {exc}") from None


# --- dataset validation ----------------------------------------------------


class Finding(Frozen, order=True):
    """One validation finding; error-level findings block scoring."""

    def __init__(self, level: str, code: str, indicator: str, territory: str,
                 message: str) -> None:
        self._store(level, code, indicator, territory, message)


class ValidationReport(Frozen):
    """The findings of :func:`validate_dataset`, sorted."""

    def __init__(self, findings: tuple[Finding, ...]) -> None:
        self._store(findings)

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
    records: Dataset | Iterable[ObservationRecord],
    specs: Mapping[str, IndicatorSpec],
    scope: Sequence[str] | None = None,
) -> ValidationReport:
    """Check a record collection against the indicator recipes.

    Findings cover missing (territory, indicator) pairs over the scope,
    metric-kind mismatches, missing totals, degenerate gendered pairs
    and out-of-range rates. The finding set is deterministic and
    independent of record order. Records pass through :class:`Dataset`,
    so a repeated key raises :class:`RecordError`.
    """
    data = as_dataset(records)
    findings: set[Finding] = set()
    for indicator in data.indicators:
        block = data.columns(indicator)
        spec = specs.get(indicator)
        if spec is None:
            findings.update(
                Finding("warning", "unknown-indicator", indicator, terr,
                        "no recipe for this indicator")
                for terr in set(block.territory)
            )
        elif not _block_clean(spec, block):
            findings.update(_block_findings(spec, block))

    territories = list(scope) if scope is not None else sorted(data.territories)
    # a block with every territory in every period lacks no pair of a known territory
    known = scope is None or set(territories).issubset(data.territories)
    full = len(data.periods) * len(data.territories)
    for ind in specs:
        block = data.columns(ind)
        if known and len(block.territory) == full:
            continue
        recorded = set(block.territory)
        findings.update(
            Finding("error", "missing-pair", ind, terr, "no observation")
            for terr in territories if terr not in recorded
        )

    return ValidationReport(findings=tuple(sorted(findings)))


def _block_clean(spec: IndicatorSpec, block: Columns) -> bool:
    """Whether :func:`_block_findings` yields nothing for ``block``, tested a
    column at a time."""
    if block.kind.count(spec.metric) != len(block.kind):
        return False
    if spec.metric is not _STANDARD:
        return True
    x_w, x_m, x_a = block.x_w, block.x_m, block.x_a
    if (spec.correction.kind is _OWN_AVERAGE and not _complete(x_a)) or _some_degenerate(x_w, x_m):
        return False
    return spec.polarity is not _NEGATIVE or all(map(_all_rates, (x_w, x_m, x_a)))


def _block_findings(spec: IndicatorSpec, block: Columns) -> Iterator[Finding]:
    """The findings of each row of ``block``, one row at a time."""
    ind, metric = spec.id, spec.metric
    own_average, negative = spec.correction.kind is _OWN_AVERAGE, spec.polarity is _NEGATIVE
    for terr, kind, x_w, x_m, x_a in zip(block.territory, block.kind, block.x_w,
                                          block.x_m, block.x_a):
        if kind is not metric:
            yield Finding("error", "shape-mismatch", ind, terr,
                          f"expected a {metric.value} observation, got {kind.value}")
            continue
        if kind is not _STANDARD:
            continue
        if x_a is None and own_average:
            yield Finding("error", "missing-total", ind, terr,
                          "own-average correction needs the x_a column")
        if x_w == 0 and x_m == 0:
            yield Finding("error", "degenerate", ind, terr,
                          "both gendered levels are zero; the gap is undefined")
        if negative:
            for name, v in (("x_w", x_w), ("x_m", x_m), ("x_a", x_a)):
                if v is not None and v > 1.0:
                    yield Finding("error", "out-of-range", ind, terr,
                                  f"negative-polarity indicators are rates; {name}={v} exceeds 1")
