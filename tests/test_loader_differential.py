"""``load_dataset`` and ``load_score_table`` against plain row-by-row readers, on generated files.

The reader below reads one row at a time and builds each record with
:class:`ObservationRecord`, whose constructor runs ``record_problem``.
Every generated file must either load to the same records, in the same
order and sharing one object per name and period, or fail with the
reader's first message and row number.
"""

import csv
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from igei import dataio
from igei.cli import main
from igei.dataio import OBSERVATION_HEADER, ScoreTable, load_dataset, load_score_table
from igei.errors import DataError, RecordError
from igei.metrics import MetricKind
from igei.model import ObservationRecord

DIFFERENTIAL = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow],
)
KINDS = {kind.value: kind for kind in MetricKind}


def _number(cell: str, decimal_comma: bool, lineno: int, column: str):
    if cell == "":
        return None
    try:
        if not cell.isascii() or "_" in cell:
            raise ValueError
        value = float(cell.replace(",", ".") if decimal_comma else cell)
    except ValueError:
        raise DataError(f"row {lineno}: column {column!r} is not a number: {cell!r}") from None
    if decimal_comma and "." in cell:
        raise DataError(
            f"row {lineno}: column {column!r} has a '.' but the decimal separator "
            f"is ',': {cell!r}"
        )
    return value


def reference_load(text: str, decimal_comma: bool) -> tuple[list[ObservationRecord], set]:
    """The records of an observation file, read and checked one row at a time,
    and the period cells as written."""
    rows = csv.reader(io.StringIO(text, newline=""), delimiter=";" if decimal_comma else ",")
    lines = enumerate(rows, start=1)
    for lineno, row in lines:
        if row and not row[0].lstrip().startswith("#"):
            break
    else:
        raise DataError("observation file is empty")
    header = tuple(cell.strip() for cell in row)
    if header != OBSERVATION_HEADER:
        raise DataError(
            f"row {lineno}: expected header {','.join(OBSERVATION_HEADER)}, "
            f"got {','.join(header)}"
        )
    records, keys, spellings = [], set(), set()
    for lineno, row in lines:
        if not row or row[0].lstrip().startswith("#"):
            continue
        cells = [cell.strip() for cell in row]
        if len(cells) != len(OBSERVATION_HEADER):
            raise DataError(
                f"row {lineno}: expected {len(OBSERVATION_HEADER)} cells, got {len(cells)}"
            )
        territory, indicator, period, kind = cells[:4]
        spellings.add(row[2])
        try:
            if not period.isascii() or "_" in period:
                raise ValueError
            period = int(period)
        except ValueError:
            raise DataError(f"row {lineno}: period is not an integer: {period!r}") from None
        levels = [
            _number(cell, decimal_comma, lineno, column)
            for cell, column in zip(cells[4:], OBSERVATION_HEADER[4:])
        ]
        try:
            record = ObservationRecord(territory, indicator, period, KINDS.get(kind, kind),
                                       *levels)
        except RecordError as exc:
            raise DataError(f"row {lineno}: {exc.problem}") from None
        key = (territory, indicator, period)
        if key in keys:
            raise DataError(
                f"row {lineno}: duplicate observation for territory {territory!r}, "
                f"indicator {indicator!r}, period {period}"
            )
        keys.add(key)
        records.append(record)
    return records, spellings


# --- generated files ---------------------------------------------------------

NAMES = ["A", "B", " A", "B ", "Å", "C", "D", ""]
INDICATORS = ["J1", "J2", " J1", "A"]
PERIODS = ["2023", "2024", " 2023", "+2024", "2_023", "20.5", "x", ""]
LEVELS = ["0.5", "0.25", "1", "0", " 0.4 ", "1e-3", "2", "-1", "nan", "inf", "-inf",
          "1e400", "0_5", "٣", "abc", "1.2.3", "", " ", "0,5", "1,25"]
# a valid row of each kind, as (kind cell, x_w, x_m, x_a, value)
POSITIVE = ["0.5", "0.25", "1", " 0.4 ", "1e-3", "2", "3.", ".75"]
SHAPES = {
    "standard": st.tuples(st.sampled_from(POSITIVE + ["0"]), st.sampled_from(POSITIVE),
                          st.sampled_from(POSITIVE + ["0", ""]), st.just("")),
    "share": st.tuples(st.just(""), st.just(""), st.just(""),
                       st.sampled_from(["0.5", "0.25", "1", "0", "-0", " 0.4 ", "1.5"])),
    # a ratio of 0 and a share above 1 are refused; -0 is a level of 0
    "ratio": st.tuples(st.just(""), st.just(""), st.just(""),
                       st.sampled_from(POSITIVE + ["0", "-0"])),
    "capped": st.tuples(st.just(""), st.just(""), st.just(""),
                        st.sampled_from(POSITIVE + ["0"])),
}
KIND_CELLS = st.sampled_from(list(SHAPES) + [" share", "capped "])


@st.composite
def valid_row(draw):
    kind = draw(KIND_CELLS)
    # padded names and periods name the same key as their stripped text
    key = [draw(st.sampled_from(NAMES[:-1])), draw(st.sampled_from(INDICATORS)),
           draw(st.sampled_from(PERIODS[:4] + ["2025"]))]
    return key + [kind, *draw(SHAPES[kind.strip()])]


# a cell that may break a row: a bad name, period, kind or level, or quoting
ANY_CELL = st.one_of(
    st.sampled_from(NAMES + INDICATORS + PERIODS + LEVELS),
    st.sampled_from(LEVELS),
    st.sampled_from(["standard", "share", "ratio", "capped", " share", "std", "Standard"]),
    st.sampled_from(['"', '"x', 'a"b', "#", "# note"]),
)


@st.composite
def row_text(draw, separator, clean):
    """One line: a valid row, possibly edited, cut short or lengthened, or a comment."""
    shapes = ["valid"] * 6 + ["comment", "blank"]
    if not clean:
        shapes += ["edited"] * 3 + ["short", "long"]
    shape = draw(st.sampled_from(shapes))
    if shape == "comment":
        return draw(st.sampled_from(["# note", "  # indented note", "#"]))
    if shape == "blank":
        return ""
    cells = draw(valid_row())
    if shape == "edited":
        for _ in range(draw(st.integers(1, 2))):
            # mostly a level: the record rule has the most to say about those
            column = draw(st.sampled_from([0, 1, 2, 3] + [4, 5, 6, 7] * 3))
            cells[column] = draw(ANY_CELL)
    elif shape == "short":
        cells = cells[:draw(st.integers(1, 7))]
    elif shape == "long":
        cells = cells + [draw(ANY_CELL)]
    if separator == ";":
        # the decimal comma: 0.5 is written 0,5, or now and then by mistake 0.5
        slip = not clean and draw(st.integers(0, 4)) == 0
        cells = [cell if slip and draw(st.booleans()) else cell.replace(".", ",")
                 for cell in cells]
    quoted = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return separator.join(
        '"' + cell.replace('"', '""') + '"' if quote else cell
        for cell, quote in zip(cells, quoted)
    )


@st.composite
def observation_file(draw):
    decimal_comma = draw(st.booleans())
    separator = ";" if decimal_comma else ","
    header = separator.join(OBSERVATION_HEADER)
    head = draw(st.sampled_from([[header]] * 5 + [["# lead comment", "", header],
                                                  [" " + header.replace("kind", " kind ")],
                                                  [header.replace("value", "values")], []]))
    # a third of the files hold only valid rows, blank lines and comments
    clean = draw(st.sampled_from([True, False, False]))
    body = draw(st.lists(row_text(separator, clean), max_size=10))
    ending = draw(st.sampled_from(["\n", "\r\n", ""]))
    return "\n".join(head + body) + ending, decimal_comma


def _shared_once(values) -> bool:
    """Whether equal values among ``values`` are one object."""
    first = {}
    return all(first.setdefault(v, v) is v for v in values)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@DIFFERENTIAL
@given(case=observation_file())
def test_loader_matches_the_row_reader(scratch, case):
    check_observations(scratch, case)


def check_observations(scratch, case):
    text, decimal_comma = case
    path = scratch / "obs.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected, spellings = reference_load(text, decimal_comma)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            load_dataset(path, decimal_comma=decimal_comma)
        assert str(info.value) == str(exc)
        return
    data = load_dataset(path, decimal_comma=decimal_comma)
    records = list(data)
    assert [repr(rec) for rec in records] == [repr(rec) for rec in expected]
    assert len(data) == len(expected)
    names = [rec.territory for rec in records] + [rec.indicator for rec in records]
    assert _shared_once(names + list(data.territories) + list(data.indicators))
    if all(cell == str(int(cell)) for cell in spellings):
        # one object per period written one way; ' 2023' and '+2023' may differ
        assert _shared_once([rec.period for rec in records])
    assert list(data.territories) == list(dict.fromkeys(rec.territory for rec in expected))
    assert list(data.indicators) == list(dict.fromkeys(rec.indicator for rec in expected))
    assert list(data.periods) == sorted({rec.period for rec in expected})


@pytest.mark.parametrize("fault", [None, "x_w", "duplicate"])
def test_a_long_file_matches_the_row_reader(tmp_path, fault):
    # over 10,000 rows, read a few thousand at a time: every indicator's rows
    # span several reads, and a fault in the last rows is still named
    lines = [",".join(OBSERVATION_HEADER)]
    for i in range(2600):
        terr = f"T{i % 1300}"
        period = 2020 + i // 1300
        lines += [
            f"{terr},J1,{period},standard,0.{i % 9 + 1},0.5,0.4,",
            f"{terr},J2,{period},share,,,,0.{i % 7}",
            f"# comment {i}" if i % 97 == 0 else "",
            f"{terr},J3,{period},capped,,,,{i % 5}.5",
        ]
    if fault == "x_w":
        lines[-4] = lines[-4].replace(",0.", ",-0.", 1)
    elif fault == "duplicate":
        lines.append(lines[1])
    text = "\n".join(lines) + "\n"
    path = tmp_path / "long.csv"
    path.write_text(text, encoding="utf-8")
    try:
        expected, _ = reference_load(text, False)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == str(exc) and fault
        return
    data = load_dataset(path)
    assert fault is None
    assert [repr(rec) for rec in data] == [repr(rec) for rec in expected]
    assert list(data.territories) == [f"T{i}" for i in range(1300)]


@pytest.mark.parametrize("bad", [
    "C,R,2023,ratio,,,,0",
    "C,R,2023,ratio,,,,-0",
    "C,S,2023,share,,,,1.5",
    "C,S,2023,share,,,,nan",
    "C,S,2023,share,,,,-0.25",
    "C,K,2023,capped,,,,inf",
    "C,K,2023,capped,,,,nan",
    "C,K,2023,capped,0.5,,,1",
    "C,K,2023,capped,,,,",
    "C,W,2023,standard,0.5,nan,0.5,",
    "C,W,2023,standard,0.5,0.5,1e400,",
    "C,W,2023,standard,0.5,-1,,",
    "C,W,2023,standard,0.5,,0.5,",
    "C,W,2023,standard,0.5,0.5,0.5,1",
    "C,W,2023,share,,,,0.5",
    "C,W,2023,std,0.5,0.5,0.5,",
    ",W,2023,standard,0.5,0.5,0.5,",
    "A,W,2023,standard,0.5,0.5,0.5,",
])
def test_a_fault_in_a_clean_file_is_named(tmp_path, bad):
    # the fault sits after valid rows of its indicator, so no column check
    # can pass it over for being first; a share row among standard ones is
    # no fault of the file, and loads
    good = [
        "A,R,2023,ratio,,,,0.5", "B,R,2023,ratio,,,,2",
        "A,S,2023,share,,,,0.5", "B,S,2023,share,,,,1",
        "A,K,2023,capped,,,,1.5", "B,K,2023,capped,,,,0",
        "A,W,2023,standard,0.5,0.5,0.5,", "B,W,2023,standard,0,0.25,,",
    ]
    text = "\n".join([",".join(OBSERVATION_HEADER), *good, bad]) + "\n"
    path = tmp_path / "obs.csv"
    path.write_text(text, encoding="utf-8")
    try:
        expected = [repr(rec) for rec in reference_load(text, False)[0]]
    except DataError as exc:
        expected = str(exc)
    try:
        got = [repr(rec) for rec in load_dataset(path)]
    except DataError as exc:
        got = str(exc)
    assert got == expected



# --- score tables --------------------------------------------------------------


def reference_table(text: str, decimal_comma: bool) -> ScoreTable:
    """The score table of ``text``, read and checked one row and one cell at a time."""
    rows = csv.reader(io.StringIO(text, newline=""), delimiter=";" if decimal_comma else ",")
    header, table = None, {}
    for lineno, row in enumerate(rows, start=1):
        if not row or row[0].lstrip().startswith("#"):
            continue
        if header is None:
            cells = [cell.strip() for cell in row]
            if len(cells) < 2 or cells[0] != "territory":
                raise DataError(f"row {lineno}: score tables start with a 'territory' column")
            header = cells[1:]
            if len(set(header)) != len(header):
                raise DataError(f"row {lineno}: duplicate indicator columns")
            continue
        if len(row) != len(header) + 1:
            raise DataError(f"row {lineno}: expected {len(header) + 1} cells, got {len(row)}")
        territory = row[0].strip()
        if territory in table:
            raise DataError(f"row {lineno}: duplicate territory {territory!r}")
        values = []
        for indicator, cell in zip(header, row[1:]):
            value = _number(cell.strip(), decimal_comma, lineno, indicator)
            if value is None:
                raise DataError(f"row {lineno}: missing score for {indicator!r}")
            if not 0.0 <= value <= 100.0:
                raise DataError(
                    f"row {lineno}: score {value} for {indicator!r} is outside [0, 100]"
                )
            values.append(value)
        table[territory] = tuple(values)
    if header is None:
        raise DataError("score table is empty")
    columns = tuple(tuple(row[k] for row in table.values()) for k in range(len(header)))
    return ScoreTable(territories=tuple(table), indicators=tuple(header), columns=columns)


TABLE_NAMES = ["A", "B", " A", "B ", "Å", "C", "D", "", "#x", "a#b"]
TABLE_INDICATORS = ["J1", "J2", "J3", " J1", "J2 ", "territory", "Ĵ4"]
SCORES = ["50", "0", "100", "-0", " 12.5 ", "1e1", "100.0", "0.000", "99.999", "3.", ".75",
          "+7", "  0", "100 "]
BAD_SCORES = ["", " ", "nan", "NaN", "inf", "-inf", "100.5", "100.0001", "-1", "-0.5", "1e400",
              "1_0", "٣", "\xa05", "abc", "1.2.3", "1,5", "0,5", "1.5,", '"', 'a"b', "#"]


@st.composite
def table_line(draw, separator, width, clean):
    """One line of a score table: a row of ``width`` cells, maybe spoiled, or a comment."""
    shapes = ["valid"] * 6 + ["comment", "blank"]
    if not clean:
        shapes += ["edited"] * 3 + ["short", "long"]
    shape = draw(st.sampled_from(shapes))
    if shape == "comment":
        return draw(st.sampled_from(["# note", "  # indented note", "#", "#,1,2"]))
    if shape == "blank":
        return ""
    # a repeated name now and then; the pool of T<k> names rarely repeats
    name = st.one_of(st.integers(0, 99).map("T{}".format), st.sampled_from(TABLE_NAMES[:8]))
    cells = [draw(name)] + [
        draw(st.sampled_from(SCORES)) for _ in range(width)
    ]
    if shape == "edited":
        for _ in range(draw(st.integers(1, 2))):
            column = draw(st.integers(0, width))
            cells[column] = draw(st.sampled_from(BAD_SCORES + TABLE_NAMES))
    elif shape == "short":
        cells = cells[:draw(st.integers(1, width))]
    elif shape == "long":
        cells = cells + [draw(st.sampled_from(SCORES + BAD_SCORES))]
    if separator == ";":
        # the decimal comma: 12.5 is written 12,5, or now and then by mistake 12.5
        slip = not clean and draw(st.integers(0, 4)) == 0
        cells = [cells[0]] + [cell if slip and draw(st.booleans()) else cell.replace(".", ",")
                              for cell in cells[1:]]
    quoted = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return separator.join(
        '"' + cell.replace('"', '""') + '"' if quote else cell
        for cell, quote in zip(cells, quoted)
    )


@st.composite
def score_table_file(draw):
    decimal_comma = draw(st.booleans())
    separator = ";" if decimal_comma else ","
    # now and then a repeated column: ' J1' repeats 'J1' once stripped
    repeats = draw(st.integers(0, 5)) == 0
    pool = TABLE_INDICATORS if repeats else [i for i in TABLE_INDICATORS if i == i.strip()]
    indicators = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                               unique=not repeats))
    header = separator.join(["territory", *indicators])
    head = draw(st.sampled_from([[header]] * 30 + [
        ["# lead comment", "", header],
        [" " + header.replace("territory", " territory ")],
        [header.replace("territory", "territories")],
        [header.replace("territory", '"territory"')],
        ["territory"],
        [],
    ]))
    # a third of the files hold only valid rows, blank lines and comments
    clean = draw(st.sampled_from([True, False, False]))
    body = draw(st.lists(table_line(separator, len(indicators), clean), max_size=10))
    ending = draw(st.sampled_from(["\n", "\r\n", ""]))
    return "\n".join(head + body) + ending, decimal_comma


def _table_outcome(load):
    """repr of the loaded table, so that -0.0 and row order count; or the message."""
    try:
        return repr(load())
    except DataError as exc:
        return str(exc)


@DIFFERENTIAL
@given(case=score_table_file())
def test_score_table_loader_matches_the_row_reader(scratch, case):
    check_score_table(scratch, case)


def check_score_table(scratch, case):
    text, decimal_comma = case
    path = scratch / "scores.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _table_outcome(lambda: load_score_table(path, decimal_comma=decimal_comma)) == (
        _table_outcome(lambda: reference_table(text, decimal_comma))
    )


@pytest.mark.parametrize("decimal_comma", [False, True])
@pytest.mark.parametrize("fault", [None, "score", "nan", "missing", "duplicate", "short"])
def test_a_long_score_table_matches_the_row_reader(tmp_path, decimal_comma, fault):
    # thousands of rows, read a chunk at a time: a fault in the last rows is
    # still named, and a duplicate territory is found across chunks
    separator = ";" if decimal_comma else ","
    lines = [separator.join(["territory", "J1", "J2", "J3"])]
    for i in range(4000):
        cells = [f"T{i}", f"{i % 100}.5", f"{(7 * i) % 101}", f"{i % 3}.25"]
        lines.append(f"# comment {i}" if i % 97 == 0 else separator.join(cells))
    if fault == "score":
        lines[-2] = separator.join(["T3998 ", "1", "2", "100.5"])
    elif fault == "nan":
        lines[-1] = separator.join(["T4000", "1", "nan", "2"])
    elif fault == "missing":
        lines.append(separator.join(["T4001", "1", "", "2"]))
    elif fault == "duplicate":
        lines.append(lines[2])
    elif fault == "short":
        lines.append(separator.join(["T4001", "1"]))
    text = "\n".join(lines) + "\n"
    if decimal_comma:
        text = text.replace(".", ",")
    path = tmp_path / "scores.csv"
    path.write_text(text, encoding="utf-8")
    expected = _table_outcome(lambda: reference_table(text, decimal_comma))
    assert expected.startswith("ScoreTable(") == (fault is None)
    assert _table_outcome(lambda: load_score_table(path, decimal_comma=decimal_comma)) == expected


# --- chunk boundaries ------------------------------------------------------------
# The column loaders cut the text into chunks of about dataio._CHUNK_CHARS
# characters, each extended to a line end, and a chunk read by csv.reader
# further to the end of a quoted cell. With chunks of a few characters, every
# line end is a chunk boundary.

SMALL_CHUNKS = settings(DIFFERENTIAL, max_examples=200)


@SMALL_CHUNKS
@given(case=observation_file(), size=st.integers(1, 40))
def test_small_chunks_match_the_row_reader(scratch, case, size):
    with mock.patch.object(dataio, "_CHUNK_CHARS", size):
        check_observations(scratch, case)


@SMALL_CHUNKS
@given(case=score_table_file(), size=st.integers(1, 40))
def test_small_score_table_chunks_match_the_row_reader(scratch, case, size):
    with mock.patch.object(dataio, "_CHUNK_CHARS", size):
        check_score_table(scratch, case)


HEADER = ",".join(OBSERVATION_HEADER)
# clean files that the column loaders read whole at every chunk size: a
# quoted cell holding CRLF, a '"' inside an unquoted name, comment and blank
# lines, CRLF line ends
BOUNDARY_CASES = {
    "quoted CRLF in a cell": (
        load_dataset, reference_load, "_load_rows",
        HEADER + '\nA,J1,2023,standard,0.5,0.25,,\n"North\r\nEast",J1,2023,standard,'
        '"0.5","1",,\n"B ""b""",J2,2024,capped,,,,"2"\nC,J1,2023,standard,1,2,3,\n',
    ),
    "a quote inside an unquoted name": (
        load_dataset, reference_load, "_load_rows",
        HEADER + '\nA"x,J1,2023,share,,,,0.5\nB,J1,2023,share,,,,"1"\nC,J1,2023,share,,,,0\n',
    ),
    "comment and blank lines": (
        load_dataset, reference_load, "_load_rows",
        "# lead\n\n" + HEADER + "\nA,J1,2023,share,,,,0.5\n# note\n\n  # indented\n"
        "B,J1,2023,share,,,,1\n\n\nA,J2,2023,ratio,,,,2\n#\n",
    ),
    "CRLF line ends": (
        load_dataset, reference_load, "_load_rows",
        HEADER.replace(",", ' , ') + "\r\nA,J1,2023,share,,,,0.5\r\n\r\n# note\r\n"
        "B,J1,2023,share,,,,1\r\n",
    ),
    "score table, quoted CRLF in a name": (
        load_score_table, reference_table, "_table_rows",
        'territory,J1,"J2"\n# note\nA,1,2\n"B\r\nb",3,"4"\n\n"C, c",5.5,100\nD,0,7\n',
    ),
    "score table, CRLF line ends": (
        load_score_table, reference_table, "_table_rows",
        "# lead\r\n territory ,J1,J2\r\nA,1,2\r\n#\r\n\r\nB,3,4\r\nC,5,6",
    ),
}


@pytest.mark.parametrize("case", list(BOUNDARY_CASES))
def test_every_chunk_boundary_stays_on_the_column_path(tmp_path, monkeypatch, case):
    load, reference, row_path, text = BOUNDARY_CASES[case]
    path = tmp_path / "boundary.csv"
    path.write_bytes(text.encode("utf-8"))
    # the reference raises for a file that does not load
    expected = reference(text, False)
    expected = repr(expected if load is load_score_table else expected[0])

    def refused(*args):
        raise AssertionError("the column loader refused a clean file")

    monkeypatch.setattr(dataio, row_path, refused)
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", size)
        loaded = load(path)
        assert repr(loaded if load is load_score_table else list(loaded)) == expected, size


def test_a_stray_quote_at_every_chunk_size(tmp_path, monkeypatch):
    # the '"' in 'A"x' is text, and Z's quoted cell '5\n0' runs on into the
    # next line: a reader that stopped at a chunk's last line would load Z's
    # score as 5 and a territory '0"'
    text = 'territory,J1\nA"x,1\nZ,"5\n0",2\n'
    expected = _table_outcome(lambda: reference_table(text, False))
    assert expected == "row 3: expected 2 cells, got 3"
    path = tmp_path / "scores.csv"
    path.write_bytes(text.encode("utf-8"))
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", size)
        assert _table_outcome(lambda: load_score_table(path)) == expected, size


# A 6-cell row followed by a 10-cell row holds the cells of two 8-cell rows,
# and read as such the file loads (x_a of A would be 3). The column loaders
# must refuse it at every chunk size, so that the row reader names row 2.
UNEVEN_ROWS = {
    "observations": (["score"], HEADER + "\nA,J1,2023,standard,1,2\n3,,C,J1,2023,standard,1,2,3,\n",
                     "row 2: expected 8 cells, got 6"),
    "score table": (["aggregate"], "territory,J1,J2\nA,1\n2,C,3,4\n",
                    "row 2: expected 3 cells, got 2"),
}


@pytest.mark.parametrize("case", list(UNEVEN_ROWS))
def test_rows_of_uneven_width_at_every_chunk_size(tmp_path, monkeypatch, capsys, case):
    command, text, message = UNEVEN_ROWS[case]
    path = tmp_path / "uneven.csv"
    path.write_text(text, encoding="utf-8")
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", size)
        assert main([*command, "--data", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n", size


def test_a_name_read_from_two_chunks_is_one_object(tmp_path, monkeypatch):
    # at most chunk sizes the name leads one chunk and follows a line end in another
    text = HEADER + "\n" + "".join(f"A,J{j},2023,share,,,,0.{j}\n" for j in range(1, 6))
    table = "territory,J1\n" + "".join(f"{name},1\n" for name in "ABCDE")
    path, table_path = tmp_path / "obs.csv", tmp_path / "scores.csv"
    path.write_text(text, encoding="utf-8")
    table_path.write_text(table, encoding="utf-8")
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", size)
        records = list(load_dataset(path))
        assert [r.territory for r in records] == ["A"] * 5, size
        assert {id(r.territory) for r in records} == {id(records[0].territory)}, size
        assert load_score_table(table_path).territories == tuple("ABCDE"), size
