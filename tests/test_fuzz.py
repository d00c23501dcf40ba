"""Fuzz the input boundary: bad input ends as an ``IgeiError``, never another exception.

Every test is derandomized and bounded, so a run is deterministic and
takes about as long as the rest of one test module.
"""

import contextlib
import io
import math

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from igei import metrics
from igei.cli import main
from igei.dataio import OBSERVATION_HEADER, load_dataset, load_index_spec, load_score_table
from igei.errors import IgeiError, RecordError
from igei.metrics import MetricKind
from igei.model import (
    Columns,
    Correction,
    CorrectionKind,
    Domain,
    IndexTree,
    IndicatorSpec,
    ObservationRecord,
    SubDomain,
    record_problem,
)
from igei.penalized import (
    Polarity,
    WeightedSequence,
    geometric_mean,
    penalized_mean,
    weighted_mean,
)
from igei.stats import correlation_matrix, descriptive_summary

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

HEADER = "territory,indicator,period,kind,x_w,x_m,x_a,value"

# cells that reach past the parser: names, years, kinds and edge numbers
CELLS = st.one_of(
    st.sampled_from([
        "", "A", "B", "J1", "J3", "J5", "2023", "2024", "standard", "share", "ratio",
        "capped", "0", "0.5", "1", "1.5", "-1", "nan", "inf", "1e400", "0,5", '"',
    ]),
    st.text(max_size=6),
)
ROWS = st.lists(st.lists(CELLS, max_size=9), max_size=6).map(
    lambda rows: "\n".join(",".join(row) for row in rows)
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return path


def _only_igei_errors(call, *args):
    """``call(*args)``, or None when it raises an ``IgeiError``; any other exception fails."""
    try:
        return call(*args)
    except IgeiError:
        return None


@FUZZ
@given(
    content=st.one_of(st.text(max_size=200), st.binary(max_size=100), ROWS.map(
        lambda rows: HEADER + "\n" + rows
    )),
    decimal_comma=st.booleans(),
)
def test_load_dataset(scratch, content, decimal_comma):
    path = _write(scratch / "obs.csv", content)
    _only_igei_errors(lambda p: load_dataset(p, decimal_comma=decimal_comma), path)


@FUZZ
@given(content=st.one_of(st.text(max_size=200), ROWS.map(
    lambda rows: "territory,G1,G2\n" + rows
)))
def test_load_score_table(scratch, content):
    _only_igei_errors(load_score_table, _write(scratch / "scores.csv", content))


SPEC_KEYS = st.sampled_from([
    "tree", "indicators", "domain", "subdomains", "id", "metric", "polarity",
    "correction", "indicator", "field", "period", "domain_count", "label", "C", "D",
])
SPEC_SCALARS = st.one_of(
    SPEC_KEYS, st.sampled_from(["capped", "standard", "share", "negative", "external",
                                "own_average", "total"]),
    st.integers(-2, 2), st.none(), st.booleans(), st.floats(allow_nan=False),
)
SPEC_VALUES = st.recursive(
    SPEC_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SPEC_KEYS, inner, max_size=4),
    max_leaves=20,
)
# YAML text: arbitrary, a dumped document, or spliced from tokens, tags and aliases
SPEC_TEXT = st.one_of(
    st.text(max_size=200),
    st.dictionaries(SPEC_KEYS, SPEC_VALUES, max_size=4).map(yaml.safe_dump),
    st.lists(st.sampled_from([
        "tree:", "indicators:", "\n", "  ", "- ", "domain: d", "indicators: [C]",
        "C: {metric: capped}", ": ", "[", "]", "{", "}", ", ", "&a ", "*a", "!!float ",
        "!!int ", "!!binary ", "2023-13-45", "x", "1e400", "0x1g", "'", '"',
    ]), max_size=25).map("".join),
)


@settings(FUZZ, max_examples=60)
@given(content=SPEC_TEXT)
def test_load_index_spec(scratch, content):
    _only_igei_errors(load_index_spec, _write(scratch / "spec.yaml", content))


LEVELS = st.one_of(st.none(), st.floats())


@FUZZ
@given(
    kind=st.one_of(
        st.sampled_from(MetricKind),
        st.sampled_from([k.value for k in MetricKind]),
        st.text(max_size=8), st.integers(), st.none(), st.lists(st.integers(), max_size=2),
    ),
    period=st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.none(),
                     st.booleans()),
    x_w=LEVELS, x_m=LEVELS, x_a=LEVELS, value=LEVELS,
)
def test_observation_record(kind, period, x_w, x_m, x_a, value):
    try:
        record = ObservationRecord("X", "J1", period, kind, x_w, x_m, x_a, value)
    except RecordError as exc:
        assert str(exc) == f"territory 'X', indicator 'J1', period {period}: {exc.problem}"
        return
    assert record.kind in MetricKind and type(record.period) is int
    assert record_problem(*record._asdict().values()) is None
    levels = [v for v in (x_w, x_m, x_a, value) if v is not None]
    assert all(0.0 <= v < math.inf for v in levels)


KNOWN_KINDS = {kind.value: kind for kind in MetricKind}
KINDS = st.one_of(st.sampled_from(MetricKind), st.sampled_from(list(KNOWN_KINDS)),
                  st.text(max_size=8))
RECORD_FIELDS = st.fixed_dictionaries({
    "territory": st.sampled_from(["X", ""]),
    "indicator": st.sampled_from(["J1", ""]),
    "period": st.one_of(st.integers(), st.floats(), st.booleans()),
    "kind": KINDS,
    "x_w": LEVELS, "x_m": LEVELS, "x_a": LEVELS, "value": LEVELS,
})
# valid records, so that _replace is exercised too
UNIT = st.floats(min_value=0.01, max_value=1.0)
VALID_RECORD_FIELDS = st.fixed_dictionaries({
    "territory": st.just("X"), "indicator": st.just("J1"), "period": st.integers(1900, 2100),
}).flatmap(lambda key: st.one_of(
    st.fixed_dictionaries({**{k: st.just(v) for k, v in key.items()},
                           "kind": st.sampled_from([MetricKind.STANDARD, "standard"]),
                           "x_w": UNIT, "x_m": UNIT, "x_a": st.none() | UNIT,
                           "value": st.none()}),
    st.fixed_dictionaries({**{k: st.just(v) for k, v in key.items()},
                           "kind": st.sampled_from(["share", "ratio", "capped"]),
                           "x_w": st.none(), "x_m": st.none(), "x_a": st.none(),
                           "value": UNIT}),
))


def _rule(fields: dict) -> str | None:
    """What record_problem says of ``fields``, with ``kind`` read as a record reads it."""
    kind = fields["kind"]
    return record_problem(**fields | {"kind": KNOWN_KINDS.get(kind, kind)})


@FUZZ
@given(fields=RECORD_FIELDS | VALID_RECORD_FIELDS, field=st.sampled_from(list(OBSERVATION_HEADER)),
       new=st.one_of(LEVELS, KINDS, st.integers()))
def test_record_refused_exactly_when_the_rule_finds_a_fault(fields, field, new):
    problem = _rule(fields)
    try:
        record = ObservationRecord(**fields)
    except RecordError as exc:
        assert exc.problem == problem is not None
        return
    assert problem is None
    assert {name: getattr(record, name) for name in fields} == fields | {
        "kind": KNOWN_KINDS.get(fields["kind"], fields["kind"])
    }
    # _replace builds a new record, so it checks the changed fields too
    changed = fields | {field: new}
    try:
        problem = _rule(changed)
    except TypeError:  # a level that does not compare with numbers
        problem = "levels must be numbers or None"
    try:
        record._replace(**{field: new})
    except RecordError as exc:
        assert exc.problem == problem is not None
    else:
        assert problem is None


# levels whose sums stay finite, so that the column rule has no cause for caution
LEVEL = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0, 1.5, math.nan, math.inf, -math.inf]),
                  st.floats(min_value=-1e300, max_value=1e300))


# a row shaped as its kind, or not
ROW_LEVELS = st.one_of(
    st.tuples(LEVEL, LEVEL, LEVEL, LEVEL),
    st.tuples(st.none(), st.none(), st.none(), LEVEL),
    st.tuples(LEVEL, LEVEL, LEVEL, st.none()),
)


@FUZZ
@given(rows=st.lists(ROW_LEVELS, min_size=1, max_size=3),
       kind=st.one_of(st.sampled_from(MetricKind), st.sampled_from(["std", "share"])))
@example(rows=[(None, None, None, 1.0)], kind="std")
def test_the_column_rule_is_the_record_rule(rows, kind):
    n = len(rows)
    block = Columns(("X",) * n, (2023,) * n, (kind,) * n, *zip(*rows))
    assert block.well_formed() == all(
        record_problem("X", "J1", 2023, kind, *row) is None for row in rows
    )


# --- library constructors and numeric functions -----------------------------

# floats of every kind: nan, both infinities, subnormals, the largest finite
FLOATS = st.floats()
# a member, a member's value, or anything else a caller might pass
ENUM_LIKE = st.one_of(
    st.sampled_from([*MetricKind, *Polarity, *CorrectionKind]),
    st.sampled_from([m.value for m in (*MetricKind, *Polarity, *CorrectionKind)]),
    st.text(max_size=8), st.integers(), st.none(), FLOATS,
    st.lists(st.text(max_size=2), max_size=2),
)
IDS = st.one_of(st.sampled_from(["A", "B", "s", "d"]), st.text(max_size=3), st.integers(),
                st.none(), st.booleans(), FLOATS, st.lists(st.text(max_size=2), max_size=2))
ID_LISTS = st.one_of(st.lists(IDS, max_size=3), st.lists(IDS, max_size=3).map(tuple), IDS)


@FUZZ
@given(ind_id=IDS, metric=ENUM_LIKE, polarity=ENUM_LIKE, kind=ENUM_LIKE, source=IDS,
       field=st.one_of(st.sampled_from(["total", "women", "men"]), IDS))
def test_indicator_spec_and_correction(ind_id, metric, polarity, kind, source, field):
    correction = _only_igei_errors(Correction, kind, source, field)
    if correction is not None:
        assert isinstance(correction.kind, CorrectionKind)
    spec = _only_igei_errors(
        IndicatorSpec, ind_id, "label", metric, polarity, correction or Correction("none")
    )
    if spec is not None:
        assert isinstance(spec.id, str) and spec.id
        assert isinstance(spec.metric, MetricKind) and isinstance(spec.polarity, Polarity)


@FUZZ
@given(sub_id=IDS, indicators=ID_LISTS, dom_id=IDS, wrap=st.booleans())
def test_tree_types(sub_id, indicators, dom_id, wrap):
    sub = _only_igei_errors(SubDomain, sub_id, indicators)
    if sub is None:
        return
    assert type(sub.indicators) is tuple and all(isinstance(i, str) and i for i in sub.indicators)
    dom = _only_igei_errors(Domain, dom_id, [sub] if wrap else sub)
    tree = dom and _only_igei_errors(IndexTree, [dom])  # refuses a repeated leaf
    if tree is not None:
        assert tree.leaf_ids() == sub.indicators


def _assert_finite(*results):
    assert all(math.isfinite(r) for r in results if r is not None), results


NUMBERS = st.lists(FLOATS, min_size=0, max_size=6)


@FUZZ
@given(values=NUMBERS, weights=st.one_of(st.none(), NUMBERS), polarity=ENUM_LIKE)
def test_means(values, weights, polarity):
    seq = _only_igei_errors(WeightedSequence, values, weights)
    for data in (values, seq) if seq is not None else (values,):
        for mean in (weighted_mean, geometric_mean, penalized_mean):
            _assert_finite(_only_igei_errors(mean, data))
        _assert_finite(_only_igei_errors(penalized_mean, data, polarity))


SCALAR_FORMULAS = [
    (metrics.gap_metric, 2), (metrics.gei_gap_metric, 2), (metrics.correction_coefficient, 2),
    (metrics.gei_correction_coefficient, 2), (metrics.score_standard, 3),
    (metrics.score_gei, 3), (metrics.invert_polarity, 1), (metrics.score_share, 2),
    (metrics.score_ratio, 2), (metrics.score_capped, 1),
]


@FUZZ
@given(args=st.lists(FLOATS, min_size=4, max_size=4))
def test_scalar_formulas(args):
    for formula, arity in SCALAR_FORMULAS:
        _assert_finite(_only_igei_errors(formula, *args[:arity]))


@FUZZ
@given(columns=st.lists(st.lists(FLOATS, min_size=3, max_size=3), min_size=1, max_size=3))
def test_statistics(columns):
    for summary in filter(None, (_only_igei_errors(descriptive_summary, c) for c in columns)):
        _assert_finite(*vars(summary).values())
        assert summary.min <= summary.p25 <= summary.p50 <= summary.p75 <= summary.max
    matrix = _only_igei_errors(correlation_matrix, columns)
    assert matrix is None or all(-1.0 <= r <= 1.0 for r in matrix.values())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# every metric kind, negative polarity and both correction sources
SPEC = """\
tree:
  - domain: d1
    subdomains:
      - {id: s1, indicators: [J1, J2]}
      - {id: s2, indicators: [J3]}
  - domain: d2
    indicators: [J4, J5]
indicators:
  J1: {metric: standard, correction: own_average}
  J2: {metric: standard, polarity: negative, correction: own_average}
  J3: {metric: share, correction: {indicator: J1, field: total}}
  J4: {metric: ratio, correction: {indicator: J1, field: women}}
  J5: {metric: capped}
"""
VALID_ROWS = [
    ["A", "J1", "2023", "standard", "0.4", "0.6", "0.5", ""],
    ["B", "J1", "2023", "standard", "0.7", "0.9", "0.8", ""],
    ["A", "J2", "2023", "standard", "0.2", "0.4", "0.3", ""],
    ["B", "J2", "2023", "standard", "0.1", "0.1", "0.1", ""],
    ["A", "J3", "2023", "share", "", "", "", "0.25"],
    ["B", "J3", "2023", "share", "", "", "", "0.5"],
    ["A", "J4", "2023", "ratio", "", "", "", "0.8"],
    ["B", "J4", "2023", "ratio", "", "", "", "1.25"],
    ["A", "J5", "2023", "capped", "", "", "", "1.4"],
    ["B", "J5", "2023", "capped", "", "", "", "0.3"],
]


@settings(FUZZ, max_examples=50)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, len(VALID_ROWS) - 1), st.integers(0, 7), CELLS),
        max_size=3,
    ),
    next_period=st.booleans(),
    options=st.sampled_from([[], ["--scope", "A"], ["--scope", "B,C"], ["--time-series"]]),
)
def test_score_command(scratch, edits, next_period, options):
    rows = [row[:] for row in VALID_ROWS]
    for r, c, cell in edits:
        rows[r][c] = cell
    if next_period:
        rows += [[t, i, "2024"] + rest for t, i, _, *rest in rows]
    data = _write(scratch / "score.csv", "\n".join([HEADER] + [",".join(r) for r in rows]))
    spec = _write(scratch / "spec.yaml", SPEC)
    code, out, err = _run(["score", "--data", str(data), "--spec", str(spec)] + options)
    if code == 0:
        assert out and not err
    elif err:
        # refused: one line and nothing else
        assert code == 1 and not out
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        # validation findings go to stdout
        assert code == 1 and out.endswith("refusing to score\n")


@settings(FUZZ, max_examples=30)
@given(content=SPEC_TEXT)
def test_main_refuses_a_bad_spec_in_one_line(scratch, content):
    spec = _write(scratch / "bad.yaml", content)
    data = _write(scratch / "one.csv", "territory,G1\nX,50\n")
    code, out, err = _run(["aggregate", "--data", str(data), "--spec", str(spec)])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
