"""Unit checks of the benchmark's self-time, percentile and tracing helpers.

    python3 -m pytest perfbench
"""

import statistics
import time

import pytest

from perfbench.stats import median, percentile, self_times
from perfbench.tracing import SpanLog, Tracer, call_span, gen_span


# -- percentiles ---------------------------------------------------------------
def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    # rank (4 - 1) * 0.9 = 2.7: between 3.0 and 4.0
    assert percentile(values, 90) == pytest.approx(3.7)


def test_percentile_50_is_the_median():
    values = [0.3, 9.0, 1.5, 2.5, 7.25, 0.1, 4.0]
    assert percentile(values, 50) == median(values) == statistics.median(values)


def test_percentile_90_of_100_values_leaves_ten_beyond():
    values = list(range(1, 101))
    p90 = percentile(values, 90)
    assert sum(1 for v in values if v > p90) == 10


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- self time -----------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 50, 0],  # child of root
        ["b", 20, 30, 1],  # child of a, grandchild of root
        ["a", 60, 70, 0],  # second call of a
    ]
    self_t, total, calls = self_times(spans)
    assert self_t == {"root": 100 - 40 - 10, "a": (40 - 10) + 10, "b": 10}
    assert total == {"root": 100, "a": 50, "b": 10}
    assert calls == {"root": 1, "a": 2, "b": 1}


def test_self_times_sum_to_the_root_span():
    spans = [["run", 0, 1000, -1], ["x", 100, 400, 0], ["y", 150, 250, 1],
             ["z", 500, 900, 0], ["y", 600, 700, 3]]
    self_t, _, _ = self_times(spans)
    assert sum(self_t.values()) == 1000


# -- tracing wrappers ------------------------------------------------------------
def test_call_span_records_nesting_and_calls():
    log = SpanLog(0)
    inner = call_span(log, "inner", lambda x: x + 1)
    outer = call_span(log, "outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    (o_name, o_start, o_end, o_parent, _), (i_name, i_start, i_end, i_parent, _) = log.spans
    assert (o_name, o_parent) == ("outer", -1)
    assert (i_name, i_parent) == ("inner", 0)
    assert o_start <= i_start <= i_end <= o_end
    assert log.calls == {"outer": 1, "inner": 1}
    assert log.stack == [-1]


def test_gen_span_times_each_resume_not_the_wait_between():
    log = SpanLog(0)

    def worker(n):
        total = 0
        for _ in range(n):
            total += yield "op"
        return total

    traced = gen_span(log, "worker", worker)
    gen = traced(3)
    assert next(gen) == "op"
    time.sleep(0.02)  # waiting outside the generator
    assert gen.send(1) == "op"
    assert gen.send(2) == "op"
    with pytest.raises(StopIteration) as stop:
        gen.send(3)
    assert stop.value.value == 6
    assert len(log.spans) == 4  # one span per resume
    assert log.calls == {"worker": 1}
    waited_ns = 20_000_000
    assert sum(end - start for _, start, end, _, _ in log.spans) < waited_ns


def test_gen_span_forwards_thrown_exceptions():
    log = SpanLog(0)

    def worker():
        try:
            yield "waiting"
        except KeyError:
            return "recovered"

    gen = gen_span(log, "worker", worker)()
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "recovered"
    assert log.stack == [-1]


def test_gen_span_inside_yield_from_matches_plain_generator():
    def inner():
        a = yield 1
        b = yield a + 1
        return a + b

    def outer(make):
        result = yield from make()
        return result

    def drive(gen):
        out, value = [], None
        try:
            while True:
                out.append(gen.send(value))
                value = out[-1] * 10
        except StopIteration as stop:
            return out, stop.value

    log = SpanLog(0)
    assert drive(outer(gen_span(log, "inner", inner))) == drive(outer(inner))


def test_tracer_keeps_one_log_per_thread_and_sums_layers():
    import threading

    tracer = Tracer()
    fn = tracer.call_span("work", lambda: time.sleep(0.001))
    threads = [threading.Thread(target=fn) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    fn()
    self_t, total, calls = tracer.layer_times()
    assert calls == {"work": 4}
    assert self_t["work"] == total["work"] > 0
    trace = tracer.chrome_trace()
    assert sum(1 for ev in trace["traceEvents"] if ev["ph"] == "X") == 4


def test_fold_keeps_totals_and_rebases_kept_spans():
    tracer = Tracer()
    log = tracer.log()
    log.keep = 3
    outer = call_span(log, "outer", lambda: inner())
    inner = call_span(log, "inner", lambda: None)
    outer()
    log.fold()
    outer()
    assert log.spans and len(log.kept) == 2
    self_t, total, calls = tracer.layer_times()
    assert calls == {"outer": 2, "inner": 2}
    assert self_t["outer"] + self_t["inner"] == total["outer"]
    spans = log.all_spans()
    assert [s[3] for s in spans] == [-1, 0, -1, 2]
    log.fold()
    assert len(log.kept) == 3 and log.spans == []
