"""Span self-time arithmetic and per-request reconciliation."""

import threading

import pytest

import layers
import measure
from spans import Span, Tracer, covered, read_spans, self_times


def span(id, name, start, end, parent=None, request=None, thread=1,
         args=None):
    made = Span(id, name, start, parent, request, thread, args)
    made.end = end
    return made


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [span(1, "a", 0, 100), span(2, "b", 10, 30, parent=1),
                 span(3, "c", 40, 70, parent=1), span(4, "d", 45, 50, parent=3)]
        assert self_times(spans) == {1: 50, 2: 20, 3: 25, 4: 5}

    def test_overlapping_children_count_once(self):
        spans = [span(1, "a", 0, 100), span(2, "b", 10, 60, parent=1),
                 span(3, "c", 40, 80, parent=1)]
        assert self_times(spans)[1] == 30

    def test_child_on_another_thread_covers_its_parent(self):
        # an ingest waits while the scheduler runs its batch elsewhere
        spans = [span(1, "manager.ingest", 0, 100, thread=1),
                 span(2, "scheduler.wait", 5, 20, parent=1, thread=2),
                 span(3, "scheduler.run", 20, 95, parent=1, thread=2)]
        assert self_times(spans) == {1: 10, 2: 15, 3: 75}

    def test_child_outside_its_parent_is_clipped(self):
        spans = [span(1, "a", 50, 100), span(2, "b", 40, 60, parent=1)]
        assert self_times(spans)[1] == 40

    def test_covered_is_the_union_length(self):
        assert covered([(0, 10), (5, 15), (20, 25)]) == 20
        assert covered([]) == 0


class TestTracer:
    def test_parent_carried_across_threads(self):
        tracer = Tracer()

        def inner(parent):
            tracer.call("worker", lambda: None, parent=parent)

        root = tracer.begin("root", request="t0:1")
        outer = tracer.enter(root)
        thread = threading.Thread(target=inner, args=(tracer.current(),))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        tracer.finish(root, outer)
        worker = next(s for s in tracer.spans if s.name == "worker")
        assert worker.parent == root.id
        assert worker.request == "t0:1"
        assert worker.thread != root.thread

    def test_wrap_records_and_undoes(self):
        class Thing:
            def work(self, value):
                return value * 2

        tracer = Tracer()
        undo = tracer.wrap(Thing, "work", "thing.work",
                           request_of=lambda _self, value: f"r:{value}",
                           after_of=lambda result, *a: {"result": result})
        assert Thing().work(3) == 6
        undo()
        assert Thing().work(4) == 8
        assert len(tracer.spans) == 1
        assert tracer.spans[0].request == "r:3"
        assert tracer.spans[0].args == {"result": 6}

    def test_trace_file_round_trip(self, tmp_path):
        tracer = Tracer(id_base=1000)
        root = tracer.begin("a", request="x")
        outer = tracer.enter(root)
        tracer.call("b", lambda: None)
        tracer.finish(root, outer)
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        spans = read_spans(str(path))
        assert {(s.id, s.name, s.parent, s.request) for s in spans} == {
            (s.id, s.name, s.parent, s.request) for s in tracer.spans}
        assert min(s.id for s in spans) > 1000


class TestReconciliation:
    @pytest.fixture(autouse=True)
    def few_samples(self, monkeypatch):
        # a single request cannot carry a p90 under the ten-beyond rule
        monkeypatch.setattr(measure, "MIN_BEYOND", 0)

    def test_serve_request_self_times_add_up_to_its_latency(self):
        # client: send_frames [0, 100] with an encode [2, 5]
        # daemon: decode [10, 12] before ingest [14, 90]; the ingest's
        # batch waits [15, 20] and runs [20, 88] on a worker, and the
        # run's process_batch [21, 80] holds the engine kernels
        spans = [
            span(1, "client.send_frames", 0, 100, request="t0:0"),
            span(2, "client.encode", 2, 5, parent=1, request="t0:0"),
            span(11, "wire.decode", 10, 12, thread=7),
            span(12, "manager.ingest", 14, 90, request="t0:0", thread=7),
            span(13, "scheduler.wait", 15, 20, parent=12, request="t0:0",
                 thread=8),
            span(14, "scheduler.run", 20, 88, parent=12, request="t0:0",
                 thread=8),
            span(15, "session.process_batch", 21, 80, parent=14,
                 request="t0:0", thread=8,
                 args={"method": "bn_norm", "arena0": [0, 0, 0],
                       "arena1": [4, 3, 100]}),
            span(16, "engine.conv2d_forward", 25, 60, parent=15,
                 request="t0:0", thread=8, args={"macs": 7}),
        ]
        metrics = layers.per_layer(spans, {"t0:0"}, window=(0, 100),
                                   workers=2)
        assert metrics["client.encode.ms"] * 1e6 == 3
        assert metrics["wire.decode.ms"] * 1e6 == 2
        # latency - encode - decode - ingest
        assert metrics["daemon.self_ms"] * 1e6 == 100 - 3 - 2 - 76
        # ingest self (76 - 73 covered) + run self (68 - 59)
        assert metrics["manager.self_ms"] * 1e6 == 3 + 9
        parts = 3 + 2 + 19 + 3 + 5 + 9 + (59 - 35) + 35
        assert metrics["unattributed.ms"] * 1e6 == 100 - parts == 0
        assert metrics["bn_norm.engine.conv2d_forward.ms"] * 1e6 == 35
        assert metrics["bn_norm.engine.arena.hit_pct"] == 75.0
        assert metrics["scheduler.depth_max"] == 1

    def test_stream_round_leaves_loop_overhead_unattributed(self):
        spans = [span(1, "bench.round", 0, 100, request="round:2"),
                 span(2, "session.process_batch", 1, 40, parent=1,
                      request="round:2", args={"method": "no_adapt",
                                               "arena0": [0, 0, 0],
                                               "arena1": [0, 0, 0]}),
                 span(3, "session.process_batch", 41, 99, parent=1,
                      request="round:2", args={"method": "bn_opt",
                                               "arena0": [0, 0, 0],
                                               "arena1": [0, 0, 0]}),
                 span(4, "engine.matmul", 5, 30, parent=2,
                      request="round:2"),
                 span(5, "engine.matmul", 45, 90, parent=3,
                      request="round:2")]
        metrics = layers.per_layer(spans, {"round:2"}, window=(0, 100))
        assert metrics["unattributed.ms"] * 1e6 == 3
        assert metrics["bn_opt.engine.other.ms"] * 1e6 == 45

    def test_batches_without_kernel_spans_are_refused(self):
        spans = [span(1, "bench.round", 0, 100, request="round:2"),
                 span(2, "session.process_batch", 1, 40, parent=1,
                      request="round:2", args={"method": "no_adapt",
                                               "arena0": [0, 0, 0],
                                               "arena1": [0, 0, 0]})]
        with pytest.raises(RuntimeError, match="no kernel call"):
            layers.per_layer(spans, {"round:2"}, window=(0, 100))
