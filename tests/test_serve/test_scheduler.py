"""BatchScheduler: per-key FIFO, non-overlap, fairness, and the
manager-level bit-identity contract under cross-tenant scheduling."""

import threading
import time

import pytest

from repro.serve.manager import SessionManager, TenantSpec
from repro.serve.scheduler import (
    BatchScheduler,
    BatchTicket,
    SchedulerClosedError,
)

from tests.test_serve.conftest import (
    HELD_BLAS_THREADS,
    assert_states_identical,
    make_batches,
    strip_timing,
)


@pytest.fixture
def scheduler():
    instance = BatchScheduler(workers=2)
    yield instance
    instance.close()


class TestOrdering:
    def test_per_key_fifo(self, scheduler):
        ran = []
        tickets = [scheduler.submit("t", lambda i=i: ran.append(i))
                   for i in range(20)]
        assert scheduler.wait_idle(timeout=10.0)
        assert all(ticket.done() for ticket in tickets)
        assert ran == list(range(20))

    def test_per_key_non_overlap(self, scheduler):
        """A key's session is never entered concurrently, even with
        more workers than keys."""
        active = []
        overlaps = []
        lock = threading.Lock()

        def item():
            with lock:
                active.append(None)
                if len(active) > 1:
                    overlaps.append(None)
            time.sleep(0.002)
            with lock:
                active.pop()

        for _ in range(10):
            scheduler.submit("t", item)
        assert scheduler.wait_idle(timeout=10.0)
        assert overlaps == []

    def test_keys_run_concurrently(self, scheduler):
        """Different keys do overlap — that is the point of the pool."""
        barrier = threading.Barrier(2, timeout=5.0)
        scheduler.submit("a", barrier.wait)
        scheduler.submit("b", barrier.wait)
        # the barrier only releases if both run at once; a serial
        # scheduler would trip its timeout and the error would surface
        for ticket in (scheduler.submit("a", lambda: None),):
            assert ticket.wait(timeout=10.0)
        assert scheduler.wait_idle(timeout=10.0)

    def test_hot_tenant_cannot_starve_a_cold_one(self):
        """Tail re-entry: the cold key's single batch dispatches second,
        not after the hot key's whole backlog."""
        scheduler = BatchScheduler(workers=1, record_dispatches=True,
                                   start=False)
        try:
            for _ in range(5):
                scheduler.submit("hot", lambda: None)
            scheduler.submit("cold", lambda: None)
            scheduler.start()
            assert scheduler.wait_idle(timeout=10.0)
            assert scheduler.dispatch_log[0] == "hot"
            assert scheduler.dispatch_log[1] == "cold"
            assert scheduler.dispatch_log[2:] == ["hot"] * 4
        finally:
            scheduler.close()


class TestTickets:
    def test_wait_reraises_the_batch_exception(self, scheduler):
        def boom():
            raise RuntimeError("batch exploded")

        ticket = scheduler.submit("t", boom)
        with pytest.raises(RuntimeError, match="batch exploded"):
            ticket.wait(timeout=10.0)
        # a failed batch does not wedge the key: later items still run
        assert scheduler.submit("t", lambda: None).wait(timeout=10.0)

    def test_wait_timeout_returns_false(self):
        ticket = BatchTicket()
        assert ticket.wait(timeout=0.01) is False
        assert not ticket.done()

    def test_wait_idle_timeout_returns_false(self):
        scheduler = BatchScheduler(workers=1, start=False)
        try:
            scheduler.submit("t", lambda: None)
            assert scheduler.wait_idle(timeout=0.05) is False
            assert scheduler.depth() == 1
        finally:
            scheduler.close()


class TestLifecycle:
    def test_close_fails_stranded_tickets(self):
        scheduler = BatchScheduler(workers=1, start=False)
        tickets = [scheduler.submit("t", lambda: None) for _ in range(3)]
        scheduler.close()
        for ticket in tickets:
            with pytest.raises(SchedulerClosedError):
                ticket.wait(timeout=10.0)

    def test_submit_after_close_refused(self):
        scheduler = BatchScheduler(workers=1)
        scheduler.close()
        with pytest.raises(SchedulerClosedError):
            scheduler.submit("t", lambda: None)

    def test_close_is_idempotent(self, scheduler):
        scheduler.close()
        scheduler.close()

    def test_stats_counters(self, scheduler):
        for _ in range(4):
            scheduler.submit("t", lambda: None)
        assert scheduler.wait_idle(timeout=10.0)
        stats = scheduler.stats()
        assert stats == {"workers": 2, "queued": 0, "in_flight": 0,
                         "dispatched": 4}

    def test_wait_key_tracks_one_tenant(self, scheduler):
        release = threading.Event()
        scheduler.submit("slow", lambda: release.wait(5.0))
        scheduler.submit("fast", lambda: None)
        assert scheduler.wait_key("fast", timeout=10.0)
        assert not scheduler.wait_key("slow", timeout=0.05)
        release.set()
        assert scheduler.wait_key("slow", timeout=10.0)


def spec_for(tenant, **overrides):
    base = dict(tenant=tenant, model="wrn40_2", method="bn_norm",
                batch_size=8, guard=False, queue_capacity=2,
                image_size=16, seed=3)
    base.update(overrides)
    return TenantSpec(**base)


class TestManagerScheduling:
    """The scheduler under the real manager: bit-identity and
    admission accounting."""

    def test_concurrent_tenants_match_serial_twins(self):
        """Two tenants fed concurrently through the shared pool end in
        exactly the state of serially fed twins — scheduling changes
        wall-clock interleaving, never results."""
        streams = {"cam0": make_batches(6, batch_size=8, seed=11),
                   "cam1": make_batches(6, batch_size=8, seed=22)}

        serial = SessionManager(workers=2)
        try:
            expected = {}
            for tenant, batches in streams.items():
                serial.open_tenant(spec_for(tenant))
                for images, labels in batches:
                    serial.ingest(tenant, images, labels)
                expected[tenant] = (
                    strip_timing(serial.scorecard(tenant)),
                    serial.session(tenant).model.state_dict())

            concurrent = SessionManager(workers=2)
            try:
                for tenant in streams:
                    concurrent.open_tenant(spec_for(tenant))

                def feed(tenant):
                    for images, labels in streams[tenant]:
                        concurrent.ingest(tenant, images, labels)

                threads = [threading.Thread(target=feed, args=(tenant,))
                           for tenant in streams]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

                for tenant in streams:
                    card, state = expected[tenant]
                    assert strip_timing(
                        concurrent.scorecard(tenant)) == card
                    assert_states_identical(
                        state,
                        concurrent.session(tenant).model.state_dict())
            finally:
                concurrent.close()
        finally:
            serial.close()

    def test_admission_counts_scheduled_frames_as_backlog(self):
        """Frames handed to the scheduler but not yet run still occupy
        admission capacity — a slow pool cannot be overfilled."""
        manager = SessionManager(workers=1)
        try:
            manager.open_tenant(spec_for("cam0", queue_capacity=1))
            # capacity = (1 + 1) * 8 = 16; pretend 8 frames are already
            # queued in the scheduler and not yet processed
            manager._tenants["cam0"].queued_frames = 8
            images, labels = make_batches(1, batch_size=20, seed=5)[0]
            ack = manager.ingest("cam0", images, labels)
            assert ack["accepted"] == 8 and ack["dropped"] == 12
            manager._tenants["cam0"].queued_frames = 0
        finally:
            manager.close()

    def test_status_reports_scheduler_stats(self):
        manager = SessionManager(workers=3)
        try:
            manager.open_tenant(spec_for("cam0"))
            images, labels = make_batches(1, batch_size=8)[0]
            manager.ingest("cam0", images, labels)
            stats = manager.status()["scheduler"]
            assert stats["workers"] == 3
            assert stats["dispatched"] >= 1
            assert stats["queued"] == 0 and stats["in_flight"] == 0
            assert stats["blas_threads"] == HELD_BLAS_THREADS
        finally:
            manager.close()
