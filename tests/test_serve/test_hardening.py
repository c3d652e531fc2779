"""Daemon hardening tests: deadlines, drain, eviction, compaction.

Everything long-lived operation needs beyond the happy path: slow-loris
clients evicted by the io deadline, oversized and undecodable frames
refused without dropping the connection, the ``status`` health
document, graceful drain (checkpoint everyone, compact to one
checkpoint per tenant, resume bit-identically), idle-tenant eviction,
online journal compaction, and the client's typed call timeout.
"""

import socket
import struct
import threading
import time

import pytest

from repro.resilience.journal import scan_journal
from repro.serve import (
    ServeClient,
    ServeTimeoutError,
    SessionManager,
    TenantSpec,
)
from repro.serve import protocol
from repro.serve.daemon import ServeDaemon

from tests.test_serve.conftest import (
    assert_states_identical,
    make_batches,
    strip_timing,
)


def spec_for(tenant, **overrides):
    base = dict(tenant=tenant, model="wrn40_2", method="bn_opt",
                batch_size=8, guard=True, queue_capacity=2,
                image_size=16, seed=3)
    base.update(overrides)
    return TenantSpec(**base)


def start_daemon(manager, **kwargs):
    daemon = ServeDaemon(manager, host="127.0.0.1", port=0, **kwargs)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    return daemon, thread


def connect(daemon, **kwargs):
    host, port = daemon.address
    return ServeClient.connect(host, port, timeout=5.0, **kwargs)


def raw_connect(daemon):
    return socket.create_connection(daemon.address, timeout=5.0)


def checkpoint_entries(journal_path):
    """Map tenant -> list of its ``tenant_checkpoint`` journal entries."""
    per_tenant = {}
    for entry in scan_journal(journal_path).entries:
        if entry.get("event") == "tenant_checkpoint":
            per_tenant.setdefault(entry["tenant"], []).append(entry)
    return per_tenant


class TestConnectionDeadlines:
    def test_slow_loris_client_is_evicted(self):
        daemon, thread = start_daemon(SessionManager(), io_timeout=0.2)
        try:
            with raw_connect(daemon) as sock:
                sock.sendall(b"\x00\x00")       # half a length prefix, then
                reply = protocol.recv_message(sock)   # ...nothing, forever
                assert reply["type"] == "error"
                assert "deadline" in reply["reason"]
                # the daemon closed the connection after the eviction
                assert protocol.recv_message(sock) is None
            assert daemon.evicted_connections == 1
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)

    def test_eviction_keeps_tenant_state(self):
        daemon, thread = start_daemon(SessionManager(), io_timeout=0.3)
        try:
            images, labels = make_batches(1, batch_size=8, seed=4)[0]
            with connect(daemon) as client:
                client.hello(spec_for("cam0"))
                client.send_frames(images, labels)
                time.sleep(0.8)                 # idle past the deadline
            # connection evicted; session survives in the manager
            with connect(daemon) as client:
                welcome = client.hello(spec_for("cam0"))
                assert welcome["batches_done"] == 1
                client.close_tenant()
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)


class TestMalformedFrames:
    def test_oversized_frame_refused_connection_survives(self):
        daemon, thread = start_daemon(SessionManager(),
                                      max_message_bytes=1024)
        try:
            with raw_connect(daemon) as sock:
                sock.sendall(struct.pack(">I", 2048) + b"x" * 2048)
                reply = protocol.recv_message(sock)
                assert reply["type"] == "error"
                assert "exceeds" in reply["reason"]
                # framing stayed intact: the next message is served
                protocol.send_message(sock, {"type": "status"})
                assert protocol.recv_message(sock)["type"] == "status"
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)

    def test_undecodable_payload_refused_connection_survives(self, daemon):
        with raw_connect(daemon) as sock:
            noise = b"\xff\xfe definitely not json \x00"
            sock.sendall(struct.pack(">I", len(noise)) + noise)
            reply = protocol.recv_message(sock)
            assert reply["type"] == "error"
            assert "protocol violation" in reply["reason"]
            protocol.send_message(sock, {"type": "status"})
            assert protocol.recv_message(sock)["type"] == "status"

    def test_one_byte_at_a_time_sender_is_served(self, daemon):
        with raw_connect(daemon) as sock:
            payload = b'{"type":"status"}'
            frame = struct.pack(">I", len(payload)) + payload
            for index in range(len(frame)):
                sock.sendall(frame[index:index + 1])
                time.sleep(0.002)
            assert protocol.recv_message(sock)["type"] == "status"


@pytest.fixture
def daemon():
    instance, thread = start_daemon(SessionManager())
    yield instance
    instance.shutdown()
    instance.close()
    thread.join(timeout=5)


class TestStatus:
    def test_status_reports_tenants_and_daemon_state(self, daemon):
        images, labels = make_batches(1, batch_size=8, seed=4)[0]
        with connect(daemon) as client:
            status = client.status()        # allowed before hello
            assert status["tenants"] == {}
            client.hello(spec_for("cam0"))
            client.send_frames(images, labels)
            status = client.status()
            cam0 = status["tenants"]["cam0"]
            assert cam0["batches_done"] == 1
            assert cam0["chunk"] == 0
            assert cam0["frames_processed"] == 8
            assert status["journal"] is None
            assert status["draining"] is False
            assert status["suspended"] == []
            assert status["evictions"] == 0
            assert list(daemon.address) == status["address"]
            client.close_tenant()

    def test_status_reports_journal_stats(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        daemon, thread = start_daemon(SessionManager(journal=journal,
                                                     compact_above=1 << 20))
        try:
            images, labels = make_batches(1, batch_size=8, seed=4)[0]
            with connect(daemon) as client:
                client.hello(spec_for("cam0"))
                client.send_frames(images, labels)
                stats = client.status()["journal"]
                assert stats["path"] == journal
                assert stats["size_bytes"] > 0
                assert stats["compact_above"] == 1 << 20
                client.close_tenant()
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)


class TestChunkDedupe:
    def test_duplicate_chunk_is_not_reapplied(self):
        manager = SessionManager()
        try:
            manager.open_tenant(spec_for("cam0"))
            images, labels = make_batches(1, batch_size=8)[0]
            first = manager.ingest("cam0", images, labels, faults=1,
                                   chunk=0)
            assert first["duplicate"] is False
            again = manager.ingest("cam0", images, labels, faults=1,
                                   chunk=0)
            assert again["duplicate"] is True
            assert again["accepted"] == 0
            assert again["batches_done"] == first["batches_done"]
            card = manager.scorecard("cam0")
            assert card.frames_processed == 8   # applied exactly once
            assert card.faults_injected == 1    # counted exactly once
        finally:
            manager.close()

    def test_unnumbered_chunks_never_dedupe(self):
        manager = SessionManager()
        try:
            manager.open_tenant(spec_for("cam0"))
            images, labels = make_batches(1, batch_size=8)[0]
            manager.ingest("cam0", images, labels)
            manager.ingest("cam0", images, labels)
            assert manager.scorecard("cam0").frames_processed == 16
        finally:
            manager.close()


class TestDrain:
    def _stream(self, client, tenant, chunks):
        client.hello(spec_for(tenant))
        for images, labels in chunks:
            client.send_frames(images, labels)

    def test_drain_compacts_to_one_checkpoint_per_tenant(self, tmp_path):
        """Acceptance pin, part two: a drained daemon's compacted
        journal holds exactly one ``tenant_checkpoint`` per tenant, and
        a resume re-admits every tenant bit-identically."""
        chunks = make_batches(4, batch_size=8, seed=11)
        journal = str(tmp_path / "serve.jsonl")
        daemon, thread = start_daemon(SessionManager(journal=journal))
        with connect(daemon) as client:
            self._stream(client, "cam0", chunks[:3])
        with connect(daemon) as client:
            self._stream(client, "cam1", chunks)
        with connect(daemon) as client:
            client.shutdown(drain=True)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert daemon.drain_requested
        summary = daemon.drain(5.0)             # the CLI epilogue
        assert sorted(summary["checkpointed"]) == ["cam0", "cam1"]
        assert summary["skipped"] == []
        daemon.close(close_tenants=False)

        per_tenant = checkpoint_entries(journal)
        assert sorted(per_tenant) == ["cam0", "cam1"]
        assert [len(entries) for entries in per_tenant.values()] == [1, 1]

        # resume from the compacted journal: both tenants re-admitted,
        # and the streams continue bit-identically vs an uninterrupted twin
        twin = SessionManager()
        try:
            twin.open_tenant(spec_for("cam0"))
            for images, labels in chunks:
                twin.ingest("cam0", images, labels)
            twin_state = twin.session("cam0").model.state_dict()
            twin_card = twin.scorecard("cam0")
        finally:
            twin.close()
        resumed = SessionManager(journal=journal, resume=True)
        try:
            opened = resumed.open_tenant(spec_for("cam0"))
            assert opened["resumed"] is True
            assert opened["batches_done"] == 3
            for images, labels in chunks[3:]:
                resumed.ingest("cam0", images, labels)
            assert strip_timing(resumed.scorecard("cam0")) == \
                strip_timing(twin_card)
            assert_states_identical(
                twin_state, resumed.session("cam0").model.state_dict())
            assert resumed.open_tenant(spec_for("cam1"))["resumed"] is True
        finally:
            resumed.close()

    def test_draining_daemon_refuses_new_work(self, tmp_path):
        daemon, thread = start_daemon(
            SessionManager(journal=str(tmp_path / "serve.jsonl")))
        images, labels = make_batches(1, batch_size=8, seed=4)[0]
        with connect(daemon) as client:
            client.hello(spec_for("cam0"))
            client.send_frames(images, labels)
            daemon.draining = True              # drain began elsewhere
            from repro.serve import ServeError
            with pytest.raises(ServeError, match="draining"):
                client.send_frames(images, labels)
        with pytest.raises(Exception, match="draining"):
            with connect(daemon) as client:
                client.hello(spec_for("cam1"))
        daemon.shutdown()
        daemon.close(close_tenants=False)
        thread.join(timeout=5)

    def test_non_drain_shutdown_skips_the_drain(self):
        daemon, thread = start_daemon(SessionManager())
        with connect(daemon) as client:
            client.shutdown(drain=False)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert daemon.drain_requested is False
        daemon.close()


class TestIdleEviction:
    def test_idle_tenant_evicted_then_resumed_bit_identically(self, tmp_path):
        chunks = make_batches(2, batch_size=8, seed=11)
        journal = str(tmp_path / "serve.jsonl")
        daemon, thread = start_daemon(SessionManager(journal=journal),
                                      idle_evict_s=0.3)
        try:
            with connect(daemon) as client:
                client.hello(spec_for("cam0"))
                client.send_frames(*chunks[0])
                # service_actions runs between accepts (~every 0.5 s);
                # wait for the eviction to land
                deadline = time.monotonic() + 5.0
                while daemon.manager.evictions == 0:
                    assert time.monotonic() < deadline, "never evicted"
                    time.sleep(0.05)
                status = client.status()
                assert status["suspended"] == ["cam0"]
                assert status["tenants"] == {}
                # re-hello resumes from the eviction checkpoint
                welcome = client.hello(spec_for("cam0"))
                assert welcome["resumed"] is True
                assert welcome["batches_done"] == 1
                client.send_frames(*chunks[1])
                card = client.scorecard()
                state = daemon.manager.session("cam0").model.state_dict()
                client.close_tenant()
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)
        evicts = [e for e in scan_journal(journal).entries
                  if e.get("event") == "tenant_evict"]
        assert len(evicts) == 1

        twin = SessionManager()
        try:
            twin.open_tenant(spec_for("cam0"))
            for images, labels in chunks:
                twin.ingest("cam0", images, labels)
            assert strip_timing(twin.scorecard("cam0")) == strip_timing(card)
            assert_states_identical(twin.session("cam0").model.state_dict(),
                                    state)
        finally:
            twin.close()

    def test_mid_batch_tenant_is_never_evicted(self):
        manager = SessionManager()
        try:
            manager.open_tenant(spec_for("cam0"))
            entry = manager._tenants["cam0"]
            entry.last_active -= 1000.0         # ancient, but...
            with entry.lock:                    # ...mid-batch right now
                assert manager.evict_idle(0.1) == []
            assert manager.evict_idle(0.1) == ["cam0"]
        finally:
            manager.close()


class TestOnlineCompaction:
    def test_compact_above_keeps_journal_bounded(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        manager = SessionManager(journal=journal, compact_above=16 * 1024)
        try:
            manager.open_tenant(spec_for("cam0"))
            for images, labels in make_batches(8, batch_size=8, seed=11):
                manager.ingest("cam0", images, labels)
            assert manager.compactions >= 1
            per_tenant = checkpoint_entries(journal)
            assert len(per_tenant["cam0"]) == 1     # only the latest
        finally:
            manager.close()

    def test_compaction_is_invisible_to_resume(self, tmp_path):
        chunks = make_batches(6, batch_size=8, seed=11)
        plain = str(tmp_path / "plain.jsonl")
        compacted = str(tmp_path / "compacted.jsonl")
        for path, compact_above in ((plain, 0), (compacted, 8 * 1024)):
            manager = SessionManager(journal=path,
                                     compact_above=compact_above)
            manager.open_tenant(spec_for("cam0"))
            for images, labels in chunks[:4]:
                manager.ingest("cam0", images, labels)
            del manager                         # SIGKILL: no close
        states = {}
        for path in (plain, compacted):
            resumed = SessionManager(journal=path, resume=True)
            try:
                opened = resumed.open_tenant(spec_for("cam0"))
                assert opened["batches_done"] == 4
                for images, labels in chunks[4:]:
                    resumed.ingest("cam0", images, labels)
                states[path] = \
                    resumed.session("cam0").model.state_dict()
            finally:
                resumed.close()
        assert_states_identical(states[plain], states[compacted])


class TestClientTimeout:
    def test_stalled_daemon_raises_typed_timeout(self):
        mute = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        mute.bind(("127.0.0.1", 0))
        mute.listen()
        accepted = []

        def sink():
            try:
                conn, _ = mute.accept()
                accepted.append(conn)
                while conn.recv(1 << 16):
                    pass                        # read forever, reply never
            except OSError:
                pass

        thread = threading.Thread(target=sink, daemon=True)
        thread.start()
        host, port = mute.getsockname()
        try:
            client = ServeClient.connect(host, port, timeout=5.0,
                                         call_timeout=0.3)
            with pytest.raises(ServeTimeoutError, match="0.3"):
                client.status()
            client.close()
        finally:
            mute.close()
            for conn in accepted:
                conn.close()
            thread.join(timeout=5)

    def test_per_call_timeout_overrides_default(self):
        mute = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        mute.bind(("127.0.0.1", 0))
        mute.listen()
        host, port = mute.getsockname()
        try:
            client = ServeClient.connect(host, port, timeout=5.0,
                                         call_timeout=60.0)
            start = time.monotonic()
            with pytest.raises(ServeTimeoutError):
                client.status(timeout=0.2)
            assert time.monotonic() - start < 5.0
            client.close()
        finally:
            mute.close()
