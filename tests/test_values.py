"""Value semantics of the label and record classes: equality, hashing,
ordering, immutability, repr, copying and JSON. Labels are dictionary keys
everywhere and records are compared and printed by the tests and the CLI, so
these are part of the package's interface."""

import copy
import json
import pickle

import pytest

from pebblekit.engine import (Distribution, Move, MoveSequence, PebblingReport,
                              SolveOutcome, SweepResult)
from pebblekit.graphs import EdgeVertex, Original, Pair, path
from pebblekit.registry import CLAIMS, CheckRecord, GrahamReport
from pebblekit.strategies import PathContext, StrategyReport

LABELS = [Original(3), EdgeVertex(2, 5), Pair(Original(0), EdgeVertex(1, 2))]


def test_label_equality_and_hash():
    assert EdgeVertex(2, 1) == EdgeVertex(1, 2)
    assert hash(EdgeVertex(2, 1)) == hash(EdgeVertex(1, 2))
    assert Pair(Original(1), Original(2)) == Pair(Original(1), Original(2))
    assert Original(1) != EdgeVertex(1, 2)
    assert Original(1) != 1 and Original(1).__eq__(1) is NotImplemented
    assert Move(Original(0), Original(1)) == Move(Original(0), Original(1))
    assert Move(Original(0), Original(1)) != Move(Original(1), Original(0))
    assert len({Original(1), Original(1), EdgeVertex(1, 2), EdgeVertex(2, 1)}) == 2


def test_label_ordering_within_a_class_only():
    assert Original(1) < Original(2) <= Original(2) and Original(3) > Original(2) >= Original(2)
    assert EdgeVertex(0, 3) < EdgeVertex(1, 2) and EdgeVertex(1, 3) > EdgeVertex(1, 2)
    assert sorted([EdgeVertex(2, 3), EdgeVertex(0, 1), EdgeVertex(1, 0)]) == \
        [EdgeVertex(0, 1), EdgeVertex(0, 1), EdgeVertex(2, 3)]
    for a, b in [(Original(1), EdgeVertex(1, 2)), (EdgeVertex(1, 2), Original(1)),
                 (Pair(Original(0), Original(1)), Pair(Original(0), Original(2)))]:
        with pytest.raises(TypeError):
            a < b
        with pytest.raises(TypeError):
            a >= b


@pytest.mark.parametrize("value, name", [
    *[(lab, field) for lab, field in zip(LABELS, ("index", "i", "left"))],
    (Move(Original(0), Original(1)), "src"),
    (CLAIMS["cor24"], "name"),
])
def test_immutable_values_reject_assignment(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, 7)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_reprs():
    assert repr(Pair(Original(0), EdgeVertex(2, 1))) == \
        "Pair(left=Original(index=0), right=EdgeVertex(i=1, j=2))"
    assert repr(Move(Original(0), EdgeVertex(0, 1))) == \
        "Move(src=Original(index=0), dst=EdgeVertex(i=0, j=1))"
    assert str(Move(Original(0), EdgeVertex(0, 1))) == "v0 -> u(0,1)"
    assert repr(SolveOutcome(True, None, 3)) == \
        "SolveOutcome(solvable=True, witness=None, nodes_explored=3)"
    assert repr(SweepResult(True, None, 5)) == \
        "SweepResult(all_solvable=True, counterexample=None, checked=5)"
    assert repr(PebblingReport(4, {Original(0): 4}, None)) == (
        "PebblingReport(value=4, per_target={Original(index=0): 4}, witness=None, "
        "distributions_checked=0, dp_targets=[], max_level=0)")
    assert repr(GrahamReport("holds", 4, 4, 16)) == \
        "GrahamReport(verdict='holds', f_left=4, f_right=4, f_product=16, detail='')"
    assert repr(GrahamReport("inconclusive", 4, None, None, "d")) == (
        "GrahamReport(verdict='inconclusive', f_left=4, f_right=None, f_product=None, "
        "detail='d')")
    assert repr(StrategyReport(True, 1, MoveSequence([]), "x")) == (
        "StrategyReport(succeeded=True, delivered=1, sequence=MoveSequence(0 moves), "
        "rationale='x', notes=())")
    assert repr(CheckRecord("c", {"n": 3}, "confirmed", "d", timestamp=1.0)) == (
        "CheckRecord(claim='c', params={'n': 3}, status='confirmed', detail='d', "
        "evidence={}, hypothesis_ok=True, timestamp=1.0)")


@pytest.mark.parametrize("value", [
    *LABELS,
    Move(Original(0), EdgeVertex(0, 1)),
    PebblingReport(4, {Original(0): 4}, None, 2, [Original(0)], 1),
    SolveOutcome(False, None, 9),
    GrahamReport("holds", 4, 4, 16),
    CheckRecord("c", {"n": 3}, "confirmed", "d", {"oracle": 3}, False, 1.0),
])
def test_copy_and_pickle_round_trips(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert twin == value and type(twin) is type(value)
        assert repr(twin) == repr(value)


def test_records_compare_field_by_field_and_are_unhashable():
    a = PebblingReport(4, {Original(0): 4}, None, 2)
    assert a == PebblingReport(4, {Original(0): 4}, None, 2)
    assert a != PebblingReport(4, {Original(0): 4}, None, 3)
    assert a != SolveOutcome(4, {Original(0): 4}, None)
    with pytest.raises(TypeError):
        hash(a)
    g = path(2)
    ctx = PathContext(g, list(g.vertices), Distribution({g.vertices[0]: 2}), 2)
    assert ctx == PathContext(g, list(g.vertices), Distribution({g.vertices[0]: 2}), 2)


def test_default_containers_are_not_shared():
    a, b = PebblingReport(1, {}, None), PebblingReport(1, {}, None)
    a.dp_targets.append(Original(0))
    assert b.dp_targets == []
    c, d = CheckRecord("c", {}, "confirmed", ""), CheckRecord("c", {}, "confirmed", "")
    c.evidence["x"] = 1
    assert d.evidence == {}
    assert c.timestamp > 0 and c.hypothesis_ok is True


def test_check_record_json_is_frozen():
    rec = CheckRecord("cor24", {"n": 3}, "confirmed", "oracle 6 == formula 6",
                      {"oracle": 6, "dp_targets": ["v0"]}, True, timestamp=1.0)
    assert json.dumps(rec.to_json_dict(), sort_keys=True) == (
        '{"claim": "cor24", "detail": "oracle 6 == formula 6", "evidence": '
        '{"dp_targets": ["v0"], "oracle": 6}, "evidence_hash": '
        '"579b5707bb97b7a95e86fde5a7a65fc3fd6c5032521682c5136345e3cd759fde", '
        '"hypothesis_ok": true, "params": {"n": 3}, "status": "confirmed", '
        '"timestamp": 1.0}')
