"""The selectors event loop: pipelining, connection fan-in, and
deadline sweeps interacting with oversized-frame skip mode.

These tests poke the daemon below the :class:`ServeClient` abstraction
— raw sockets, several messages in flight, many connections at once —
the traffic shapes a thread-per-connection server handled by blocking
and the event loop must handle by multiplexing.
"""

import socket
import struct
import threading

import pytest

from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.manager import SessionManager, TenantSpec

from tests.test_serve.conftest import HELD_BLAS_THREADS, make_batches


def spec_for(tenant, **overrides):
    base = dict(tenant=tenant, model="wrn40_2", method="bn_norm",
                batch_size=8, guard=False, queue_capacity=2,
                image_size=16, seed=3)
    base.update(overrides)
    return TenantSpec(**base)


def start_daemon(manager, **kwargs):
    daemon = ServeDaemon(manager, host="127.0.0.1", port=0, **kwargs)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    return daemon, thread


@pytest.fixture
def daemon():
    instance, thread = start_daemon(SessionManager())
    yield instance
    instance.shutdown()
    instance.close()
    thread.join(timeout=5)


def raw_connect(daemon):
    host, port = daemon.address
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


class TestPipelining:
    def test_back_to_back_requests_answered_in_order(self, daemon):
        """Several requests written before any reply is read: the loop
        parses them all from one buffer and answers strictly in order."""
        sock = raw_connect(daemon)
        try:
            for _ in range(5):
                protocol.send_message(sock, {"type": "status"})
            protocol.send_message(sock, {"type": "nonsense"})
            for _ in range(5):
                reply = protocol.recv_message(sock)
                assert reply["type"] == "status"
            reply = protocol.recv_message(sock)
            assert reply["type"] == "error"
            assert "first message must be 'hello'" in reply["reason"]
        finally:
            sock.close()

    def test_interleaved_tenants_on_separate_connections(self, daemon):
        """Frames from many connections interleave through one loop and
        every tenant's arithmetic stays exact."""
        errors = []

        def stream(tenant, seed):
            try:
                host, port = daemon.address
                with ServeClient.connect(host, port,
                                         timeout=10.0) as client:
                    client.hello(spec_for(tenant))
                    total = 0
                    for images, labels in make_batches(
                            3, batch_size=8, seed=seed):
                        ack = client.send_frames(images, labels)
                        total += ack["accepted"]
                    card = client.close_tenant()
                    assert total == 24
                    assert card.frames_processed == 24
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append((tenant, error))

        threads = [threading.Thread(target=stream, args=(f"cam{i}", i))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert daemon.manager.tenants() == []


class TestConnectionAccounting:
    def test_status_counts_open_connections(self, daemon):
        host, port = daemon.address
        with ServeClient.connect(host, port, timeout=10.0) as first:
            with ServeClient.connect(host, port, timeout=10.0) as second:
                status = second.status()
                assert status["connections"] >= 2
                assert status["scheduler"]["workers"] >= 1
                assert status["scheduler"]["blas_threads"] == \
                    HELD_BLAS_THREADS
            assert first.status()["connections"] >= 1

    def test_many_idle_connections_then_one_worker(self, daemon):
        """Dozens of parked sockets cost the loop nothing; a request on
        the last one still gets served promptly."""
        parked = [raw_connect(daemon) for _ in range(32)]
        try:
            active = parked[-1]
            protocol.send_message(active, {"type": "status"})
            reply = protocol.recv_message(active)
            assert reply["connections"] >= 32
        finally:
            for sock in parked:
                sock.close()


class TestDeadlinesAndSkip:
    def test_oversized_frame_refused_connection_survives(self):
        manager = SessionManager()
        daemon, thread = start_daemon(manager, max_message_bytes=1024)
        try:
            sock = raw_connect(daemon)
            try:
                big = b"x" * 4096
                sock.sendall(struct.pack(">I", len(big)) + big)
                reply = protocol.recv_message(sock)
                assert reply["type"] == "error"
                assert "exceeds" in reply["reason"]
                # the offending frame was skipped, not fatal: the same
                # connection keeps working
                protocol.send_message(sock, {"type": "status"})
                assert protocol.recv_message(sock)["type"] == "status"
            finally:
                sock.close()
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)

    def test_eviction_mid_skip_of_oversized_frame(self):
        """A sender that declares a huge frame, dribbles part of it,
        then stalls is evicted by the deadline sweep while the parser
        is still in skip mode."""
        manager = SessionManager()
        daemon, thread = start_daemon(manager, max_message_bytes=1024,
                                      io_timeout=0.5)
        try:
            sock = raw_connect(daemon)
            try:
                sock.sendall(struct.pack(">I", 1 << 20) + b"y" * 100)
                reply = protocol.recv_message(sock)
                assert reply["type"] == "error"
                assert "evicting connection" in reply["reason"]
                assert protocol.recv_message(sock) is None    # then EOF
            finally:
                sock.close()
            assert daemon.status()["evicted_connections"] == 1
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)
