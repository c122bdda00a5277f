"""Span recording and the self-time arithmetic."""

import threading
import time

import pytest

from tracer import Span, Tracer, queue_waits, self_times, union_length, uncovered


def span(ident, start, end, parent=None, layer="x", trace=None, thread=1):
    return Span(layer, layer, start, end, parent, trace, thread, ident)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_of_nested_spans():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 5.0, 6.0, parent=0),
        span(3, 2.0, 3.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {0: pytest.approx(6.0), 1: pytest.approx(2.0), 2: 1.0, 3: 1.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_with_children_on_several_threads():
    # Two children on other threads overlap each other and stick out of
    # the parent: only the union inside the parent's interval counts.
    spans = [
        span(0, 0.0, 10.0, thread=1),
        span(1, 2.0, 6.0, parent=0, thread=2),
        span(2, 4.0, 8.0, parent=0, thread=3),
        span(3, 9.0, 12.0, parent=0, thread=4),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_uncovered_counts_time_outside_every_span():
    spans = [span(0, 1.0, 3.0), span(1, 2.0, 4.0, thread=2), span(2, 8.0, 20.0)]
    assert uncovered(spans, 0.0, 10.0) == pytest.approx(10.0 - 3.0 - 2.0)


def test_queue_wait_pairs_parse_and_solve_by_digest():
    spans = [
        span(0, 0.0, 1.0, layer="serve.parse", trace="a"),
        span(1, 3.0, 5.0, layer="serve.solve", trace="a"),
        span(2, 0.0, 2.0, layer="serve.parse", trace="b"),
        span(3, 2.5, 4.0, layer="serve.batch"),
        span(4, 4.0, 5.0, layer="serve.commit", trace="b"),
        span(5, 6.0, 7.0, layer="serve.parse", trace="c"),  # a cache hit
    ]
    assert sorted(queue_waits(spans)) == [pytest.approx(0.5), pytest.approx(2.0)]


def test_wrap_folds_calls_within_a_layer_and_carries_trace_ids():
    tracer = Tracer()

    def inner(n):
        return n if n == 0 else inner_wrapped(n - 1)

    inner_wrapped = tracer.wrap(inner, "solver")
    outer = tracer.wrap(lambda digest: inner_wrapped(3), "service",
                        trace=lambda args, result: args[0])
    workers = [threading.Thread(target=outer, args=(f"d{i}",)) for i in range(3)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert len(tracer.spans) == 6  # one service and one solver span each
    by_id = {s.ident: s for s in tracer.spans}
    for solver in (s for s in tracer.spans if s.layer == "solver"):
        parent = by_id[solver.parent]
        assert parent.layer == "service" and solver.trace == parent.trace
        assert parent.thread == solver.thread
    assert tracer.counters["solver.calls"] == 3


def test_wrap_counts_failures_and_reraises():
    tracer = Tracer()

    def boom():
        time.sleep(0.001)
        raise RuntimeError("x")

    wrapped = tracer.wrap(boom, "store.put")
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer.counters["store.put.failed"] == 1
    assert tracer.spans[0].end > tracer.spans[0].start
