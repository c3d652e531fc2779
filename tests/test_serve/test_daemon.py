"""End-to-end daemon tests over real TCP (port 0, loopback).

Covers the serve smoke contract (two tenants with faulty frames, guard
rollbacks visible in acks and scorecards), protocol refusals, and the
daemon-level kill-resume: kill the whole server between chunks, start a
new one on the same journal, and the finished stream must match an
uninterrupted twin bit-for-bit.  A port already in use is a clean
error that leaves nothing running or open behind it.
"""

import os
import socket
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.engine.blas import blas_threads
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon
from repro.serve.manager import SessionManager, TenantSpec
from repro.serve import protocol

from tests.test_serve.conftest import (
    assert_states_identical,
    make_batches,
    poison,
    strip_timing,
)


def spec_for(tenant, **overrides):
    base = dict(tenant=tenant, model="wrn40_2", method="bn_opt",
                batch_size=8, guard=True, queue_capacity=2,
                image_size=16, seed=3)
    base.update(overrides)
    return TenantSpec(**base)


def start_daemon(manager):
    daemon = ServeDaemon(manager, host="127.0.0.1", port=0)
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


def connect(daemon):
    host, port = daemon.address
    return ServeClient.connect(host, port, timeout=5.0)


class TestServeSmoke:
    def test_two_tenants_with_faults_roll_back(self, daemon):
        """The CI smoke scenario, in-process: both guarded tenants see
        NaN frames and must report rollbacks, not crashes."""
        chunks = poison(make_batches(4, batch_size=8, seed=2), {1})
        cards = {}
        for tenant in ("cam0", "cam1"):
            with connect(daemon) as client:
                welcome = client.hello(spec_for(tenant))
                assert welcome["resumed"] is False
                for index, (images, labels) in enumerate(chunks):
                    ack = client.send_frames(
                        images, labels, faults=1 if index == 1 else 0)
                    assert ack["dropped"] == 0
                assert ack["rollbacks"] >= 1
                cards[tenant] = client.close_tenant()
        for tenant, card in cards.items():
            assert card.tenant == tenant
            assert card.rollbacks >= 1
            assert card.faults_injected == 1
            assert card.frames_processed == 32
        assert daemon.manager.tenants() == []

    def test_scorecard_midstream_and_reconnect(self, daemon):
        images, labels = make_batches(1, batch_size=8, seed=4)[0]
        with connect(daemon) as client:
            client.hello(spec_for("cam0"))
            client.send_frames(images, labels)
        # connection dropped without close: the session survives in the
        # manager and a new connection re-attaches
        with connect(daemon) as client:
            welcome = client.hello(spec_for("cam0"))
            assert welcome == {"type": "welcome", "tenant": "cam0",
                               "resumed": True, "batches_done": 1,
                               "chunk": 0}
            assert client.scorecard().frames_processed == 8
            client.close_tenant()


class TestRefusals:
    def test_frames_before_hello_refused(self, daemon):
        with connect(daemon) as client:
            with pytest.raises(ServeError, match="hello"):
                client.send_frames(np.zeros((1, 3, 16, 16)), np.zeros(1))

    def test_protocol_version_mismatch_refused(self, daemon):
        with connect(daemon) as client:
            protocol.send_message(client._sock, {
                "type": "hello", "protocol": protocol.PROTOCOL_VERSION + 1,
                "spec": {"tenant": "cam0"}})
            reply = protocol.recv_message(client._sock)
            assert reply["type"] == "error"
            assert "version" in reply["reason"]

    def test_bad_spec_refused_but_connection_survives(self, daemon):
        with connect(daemon) as client:
            # invalid spec straight onto the wire (the typed client
            # would refuse to construct it locally)
            protocol.send_message(client._sock, {
                "type": "hello", "protocol": protocol.PROTOCOL_VERSION,
                "spec": {"tenant": "cam0", "batch_size": 0}})
            reply = protocol.recv_message(client._sock)
            assert reply["type"] == "error"
            # same connection recovers with a valid hello
            assert client.hello(spec_for("cam0"))["resumed"] is False
            client.close_tenant()

    def test_unknown_message_type_refused(self, daemon):
        with connect(daemon) as client:
            client.hello(spec_for("cam0"))
            protocol.send_message(client._sock, {"type": "frobnicate"})
            reply = protocol.recv_message(client._sock)
            assert reply["type"] == "error"
            client.close_tenant()


class TestDaemonKillResume:
    def test_killed_daemon_resumes_bit_identically(self, tmp_path):
        chunks = poison(make_batches(10, batch_size=8, seed=11), {2, 7})
        faults = {2: 1, 7: 1}

        def feed(client, indexed_chunks):
            for index, (images, labels) in indexed_chunks:
                client.send_frames(images, labels,
                                   faults=faults.get(index, 0))

        twin_manager = SessionManager()
        twin, twin_thread = start_daemon(twin_manager)
        with connect(twin) as client:
            client.hello(spec_for("cam0"))
            feed(client, enumerate(chunks))
            twin_card = client.scorecard()
        twin_state = twin_manager.session("cam0").model.state_dict()
        twin.shutdown()
        twin.server_close()
        twin_thread.join(timeout=5)
        assert twin_card.rollbacks >= 1

        journal = str(tmp_path / "serve.jsonl")
        first, first_thread = start_daemon(SessionManager(journal=journal))
        with connect(first) as client:
            client.hello(spec_for("cam0"))
            feed(client, list(enumerate(chunks))[:5])
        # SIGKILL the daemon: drop the socket without closing the
        # manager or journal — the per-batch checkpoints are on disk
        first.shutdown()
        first.server_close()
        first_thread.join(timeout=5)

        second_manager = SessionManager(journal=journal, resume=True)
        second, second_thread = start_daemon(second_manager)
        try:
            with connect(second) as client:
                welcome = client.hello(spec_for("cam0"))
                assert welcome["resumed"] is True
                assert welcome["batches_done"] == 5
                feed(client, list(enumerate(chunks))[5:])
                assert strip_timing(client.scorecard()) == \
                    strip_timing(twin_card)
            assert_states_identical(
                twin_state, second_manager.session("cam0").model.state_dict())
        finally:
            second.shutdown()
            second.close()
            second_thread.join(timeout=5)


class TestShutdown:
    def test_client_initiated_shutdown(self):
        daemon, thread = start_daemon(SessionManager())
        with connect(daemon) as client:
            client.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        daemon.close()


class TestBusyPort:
    @pytest.fixture
    def busy_port(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            yield holder.getsockname()[1]

    def test_cli_reports_a_busy_port_and_releases_the_manager(
            self, busy_port, capsys):
        threads, blas = threading.active_count(), blas_threads()
        assert main(["serve", "--port", str(busy_port)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot listen on 127.0.0.1:{busy_port}: " in err
        assert "Traceback" not in err
        # the manager's scheduler threads joined, its BLAS hold released
        assert threading.active_count() == threads
        assert blas_threads() == blas

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open descriptors in /proc/self/fd")
    def test_daemon_closes_what_it_opened_before_raising(self, busy_port):
        manager = SessionManager()
        try:
            before = len(os.listdir("/proc/self/fd"))
            with pytest.raises(OSError):
                ServeDaemon(manager, host="127.0.0.1", port=busy_port)
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            manager.close()


class TestDurationFlags:
    @pytest.mark.parametrize("flag,value", [
        ("--io-timeout", "-1"), ("--idle-evict", "-5"),
        ("--drain-timeout", "-5"), ("--io-timeout", "nan"),
    ])
    def test_negative_or_nan_duration_exits_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be >= 0" in err
        assert err.count("error:") == 1 and "Traceback" not in err
