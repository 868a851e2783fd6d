"""Span recorder: nesting, self time, trace-event export."""

import json

import pytest

from repro.obs.export import validate_trace_events
from trace import NULL, Recorder, Span, self_times, to_trace_events, write_trace


def test_self_time_is_duration_minus_children_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),          # children cover 2..9
        Span("child-a", 2.0, 5.0, 0, 0),            # grandchild covers 3..4
        Span("grandchild", 3.0, 4.0, 1, 0),
        Span("child-b", 5.0, 9.0, 0, 0),
        Span("other-root", 20.0, 21.5, None, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_overlapping_children_are_counted_once():
    spans = [
        Span("batch", 0.0, 10.0, None, 0),
        Span("request", 1.0, 6.0, 0, 0),
        Span("request", 4.0, 8.0, 0, 0),            # overlaps 4..6
        Span("request", 9.0, 12.0, 0, 0),           # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_recorder_nests_by_call_order_and_groups_by_unit():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.group = 7
    with rec.span("outer"):                          # 0 .. 5
        with rec.span("inner"):                      # 1 .. 2
            pass
        rec.record("overlapped", 2.5, 4.5)
        with rec.span("inner"):                      # 3 .. 4
            pass
    rec.group = 8
    with rec.span("outer"):                          # 6 .. 7
        pass
    assert [s.parent for s in rec.spans] == [None, 0, 0, 0, None]
    by_group = rec.self_time_by_group()
    assert by_group[7]["inner"] == 2.0
    assert by_group[7]["outer"] == pytest.approx(5.0 - 1.0 - 2.0)
    assert by_group[8] == {"outer": 1.0}


def test_export_passes_the_repo_validator(tmp_path):
    rec = Recorder()
    with rec.span("netsim.simulator.run"):
        with rec.span("netsim.solver.replay"):
            pass
    events = write_trace(rec.spans, tmp_path / "out" / "trace.json", "unit")
    assert validate_trace_events(events) == []
    on_disk = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert on_disk["traceEvents"] == events
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["netsim.simulator.run",
                                             "netsim.solver.replay"]
    assert all(e["cat"] == "netsim" and e["ts"] >= 0 for e in complete)
    assert to_trace_events([], "empty")[0]["ph"] == "M"


def test_null_recorder_records_nothing():
    with NULL.span("anything"):
        pass
    assert not NULL.enabled
