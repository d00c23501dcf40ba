"""The frozen value types against dataclass twins of their former declarations.

Each igei value class must behave as the frozen dataclass it replaced:
the same ``repr``, equality, hash, ordering, match arguments, refusal to
assign or delete, and ``_replace`` as ``dataclasses.replace``.
"""

import copy
import dataclasses
import itertools
import operator
import pickle

import pytest

from igei.dataio import Finding, ScoreTable, ValidationReport
from igei.errors import RecordError, SpecError
from igei.model import (
    Correction,
    CorrectionKind,
    Domain,
    IndexTree,
    IndicatorSpec,
    ObservationRecord,
    SubDomain,
)
from igei.penalized import Polarity, WeightedSequence
from igei.pipeline import ReferenceLevels, TableReport, TerritoryReport
from igei.stats import DescriptiveSummary
from igei.verify import PenalizedCase

SUB = SubDomain("s", ("J1", "J2"))
DOMAIN = Domain("d", (SUB,))
FINDINGS = [
    Finding("error", "missing-pair", "J1", "X", "no observation"),
    Finding("error", "missing-pair", "J1", "Y", "no observation"),
    Finding("error", "degenerate", "J2", "X", "both gendered levels are zero"),
    Finding("warning", "unknown-indicator", "Z9", "X", "no recipe for this indicator"),
    Finding("warning", "degenerate", "J2", "X", "both gendered levels are zero"),
]

# per class: its fields as the dataclass declared them, whether it was
# ordered or slotted, at least two distinct instances, and one change of
# valid values as ``__init__`` stores them
CASES = [
    (Correction, ("kind", "indicator", "field"), {},
     [Correction("none"), Correction("own_average"), Correction("external", "J1", "women")],
     {"kind": CorrectionKind.NONE, "indicator": None}),
    (IndicatorSpec, ("id", "label", "metric", "polarity", "correction"), {},
     [IndicatorSpec("J1", "a", "standard"), IndicatorSpec("J1", "a", "standard", "negative"),
      IndicatorSpec("J2", "b", "share")],
     {"label": "renamed"}),
    (SubDomain, ("id", "indicators"), {},
     [SUB, SubDomain("s", ("J1",)), SubDomain("t", ("J1", "J2"))],
     {"indicators": ("J3",)}),
    (Domain, ("id", "subdomains"), {},
     [DOMAIN, Domain("e", (SUB,))],
     {"id": "f"}),
    (IndexTree, ("domains",), {},
     [IndexTree((DOMAIN,)), IndexTree((DOMAIN, Domain("e", (SubDomain("u", ("J3",)),))))],
     {"domains": (Domain("e", (SUB,)),)}),
    (ObservationRecord,
     ("territory", "indicator", "period", "kind", "x_w", "x_m", "x_a", "value"),
     {"slots": True},
     [ObservationRecord("X", "J1", 2023, "standard", 0.4, 0.6),
      ObservationRecord("X", "J1", 2023, "standard", 0.4, 0.6, 0.5),
      ObservationRecord("Y", "J2", 2024, "share", value=0.5)],
     {"period": 2022}),
    (WeightedSequence, ("values", "weights"), {},
     [WeightedSequence([1, 2]), WeightedSequence([1, 2], [0.25, 0.75])],
     {"values": (4.0, 5.0)}),
    (ReferenceLevels, ("maxima", "bases"), {},
     [ReferenceLevels({"J1": 0.5}), ReferenceLevels({"J1": 0.5}, {("J2", "X", 2023): 0.4})],
     {"maxima": {"J1": 0.7}}),
    (TerritoryReport,
     ("territory", "indicator_scores", "subdomain_values", "domain_values", "index", "period"),
     {},
     [TerritoryReport("X", {"J1": 50.0}, {("d", "s"): 50.0}, {"d": 50.0}, 50.0),
      TerritoryReport("X", {"J1": 50.0}, {("d", "s"): 50.0}, {"d": 50.0}, 50.0, 2023)],
     {"period": 2024}),
    (TableReport,
     ("territories", "indicator_scores", "subdomain_values", "domain_values", "index"), {},
     [TableReport(("X",), {"J1": [50.0]}, {("d", "s"): [50.0]}, {"d": [50.0]}, [50.0]),
      TableReport(("Y",), {"J1": [40.0]}, {("d", "s"): [40.0]}, {"d": [40.0]}, [40.0])],
     {"index": [45.0]}),
    (DescriptiveSummary, ("mean", "sd", "cv", "min", "p25", "p50", "p75", "max"), {},
     [DescriptiveSummary(1.0, 0.5, 0.5, 0.0, 0.25, 0.5, 0.75, 2.0),
      DescriptiveSummary(0.0, None, None, 0.0, 0.0, 0.0, 0.0, 0.0)],
     {"cv": None}),
    (ScoreTable, ("territories", "indicators", "columns"), {},
     [ScoreTable(("X",), ("J1",), ((50.0,),)), ScoreTable((), ("J1",), ((),))],
     {"territories": (), "columns": ((),)}),
    (Finding, ("level", "code", "indicator", "territory", "message"), {"order": True},
     FINDINGS, {"territory": "W"}),
    (ValidationReport, ("findings",), {},
     [ValidationReport(()), ValidationReport(tuple(FINDINGS[:2]))],
     {"findings": (FINDINGS[3],)}),
    (PenalizedCase, ("values", "mean", "penalized", "geometric"), {},
     [PenalizedCase((1.0, 2.0), 1.5, 1.4, None), PenalizedCase((1.0, 2.0), 1.5, 1.4, 1.41)],
     {"geometric": 1.414}),
]
IDS = [cls.__name__ for cls, *_ in CASES]


def _twin_class(cls, names, options):
    return dataclasses.make_dataclass(cls.__name__, names, frozen=True, **options)


def _twin(twin_cls, value):
    return twin_cls(*(getattr(value, name) for name in twin_cls.__dataclass_fields__))


def _outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except TypeError as exc:  # the twin must raise the same
        return TypeError, str(exc)


@pytest.mark.parametrize("cls, names, options, values, change", CASES, ids=IDS)
def test_fields_match_the_dataclass_declaration(cls, names, options, values, change):
    twin_cls = _twin_class(cls, names, options)
    assert cls._fields == names == twin_cls.__match_args__ == cls.__match_args__
    for value in values:
        assert value._asdict() == dataclasses.asdict(_twin(twin_cls, value))
        assert list(value._asdict()) == list(names)


@pytest.mark.parametrize("cls, names, options, values, change", CASES, ids=IDS)
def test_behaves_as_its_dataclass_twin(cls, names, options, values, change):
    twin_cls = _twin_class(cls, names, options)
    twins = [_twin(twin_cls, value) for value in values]
    for value, twin in zip(values, twins):
        assert repr(value) == repr(twin)
        assert _outcome(lambda: hash(value)) == _outcome(lambda: hash(twin))
        assert value != twin and twin != value  # another class is never equal
        rebuilt = cls(**value._asdict())
        assert rebuilt == value and rebuilt is not value
        assert _outcome(lambda: hash(rebuilt)) == _outcome(lambda: hash(value))
    pairs = list(zip(values, twins))
    for (a, ta), (b, tb) in itertools.product(pairs, repeat=2):
        for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
            assert _outcome(lambda: op(a, b)) == _outcome(lambda: op(ta, tb)), op
    # an instance of a subclass is another class: never equal, as for the twin
    assert type("Sub", (cls,), {})(**values[0]._asdict()) != values[0]
    assert _twin(type("Sub", (twin_cls,), {}), values[0]) != twins[0]
    if options.get("order"):
        assert list(map(repr, sorted(values))) == list(map(repr, sorted(twins)))


@pytest.mark.parametrize("cls, names, options, values, change", CASES, ids=IDS)
def test_frozen_as_its_dataclass_twin(cls, names, options, values, change):
    value = values[0]
    twin = _twin(_twin_class(cls, names, options), value)
    for name in (names[-1], "not_a_field"):
        # a slotted dataclass twin fails with TypeError on a name that is not a field
        for target in (value, twin) if name in names or not options.get("slots") else (value,):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(target, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(target, name)
    assert hasattr(value, "__dict__") == hasattr(twin, "__dict__") == (not options.get("slots"))


@pytest.mark.parametrize("cls, names, options, values, change", CASES, ids=IDS)
def test_replace_as_dataclasses_replace(cls, names, options, values, change):
    twin_cls = _twin_class(cls, names, options)
    for value in values:
        changed = value._replace(**change)
        assert type(changed) is cls and changed is not value
        assert repr(changed) == repr(dataclasses.replace(_twin(twin_cls, value), **change))
        assert changed._replace(**{k: getattr(value, k) for k in change}) == value
        assert value._replace() == value
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        values[0]._replace(not_a_field=1)


@pytest.mark.parametrize("cls, names, options, values, change", CASES, ids=IDS)
def test_copies_and_pickles(cls, names, options, values, change):
    for value in values:
        for copied in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(copied) is cls and repr(copied) == repr(value)


def test_defaults_as_declared():
    assert Correction("none")._asdict() == {
        "kind": CorrectionKind.NONE, "indicator": None, "field": "total"}
    spec = IndicatorSpec("J1", "a", "standard")
    assert (spec.polarity, spec.correction) == (Polarity.POSITIVE, Correction("none"))
    record = ObservationRecord("Y", "J2", 2024, "share", value=0.5)
    assert (record.x_w, record.x_m, record.x_a) == (None, None, None)
    assert TerritoryReport("X", {}, {}, {}, 50.0).period is None
    # a new dict each time, as the dataclass's default_factory gave
    first, second = ReferenceLevels({}), ReferenceLevels({})
    assert first.bases == {} and first.bases is not second.bases


def test_replace_checks_the_changed_instance():
    with pytest.raises(SpecError, match="unknown correction kind 'bogus'"):
        Correction("none")._replace(kind="bogus")
    with pytest.raises(RecordError, match="x_w must be non-negative"):
        ObservationRecord("X", "J1", 2023, "standard", 0.4, 0.6)._replace(x_w=-1.0)
    tree = IndexTree((DOMAIN,))
    assert tree._replace(domains=(Domain("e", (SubDomain("u", ("J3",)),)),)).leaf_ids() == ("J3",)


def test_matches_positionally():
    match Finding("error", "degenerate", "J2", "X", "both zero"):
        case Finding(level, code, indicator, territory, message):
            assert (level, code, indicator, territory, message) == (
                "error", "degenerate", "J2", "X", "both zero")
        case _:
            pytest.fail("no positional match")
