"""The span recorder: open spans are closed by identity."""

from repro.obs import SpanRecorder
from repro.verify import lint_chrome_trace


def _phases(trace):
    return sorted(e["ph"] for e in trace["traceEvents"] if e["ph"] != "M")


def test_nested_identical_spans_both_close():
    # same name, thread and start tick: equal field for field
    rec = SpanRecorder(clock=lambda: 0)
    with rec.span("load", "io"):
        with rec.span("load", "io"):
            pass
    assert _phases(rec.to_chrome_trace()) == ["X", "X"]
    assert rec.open_spans == []


def test_ending_one_of_two_identical_spans_leaves_the_other_open():
    rec = SpanRecorder(clock=lambda: 0)
    first = rec.begin("load", "io")
    second = rec.begin("load", "io")
    rec.end(second)
    assert rec.open_spans == [first]
    trace = rec.to_chrome_trace()
    assert _phases(trace) == ["B", "X"]
    assert lint_chrome_trace(trace).rule_ids() == {"O301"}
