"""Chaos-proxy tests: seeded network faults between client and daemon.

The acceptance pin of the hardening work lives here: a tenant stream
run through the chaos proxy with injected disconnects, truncations and
garbage — client retries on — must finish with a model state and
scorecard bit-identical to the same stream run fault-free.  That only
holds if the whole stack cooperates: the proxy's fault semantics
(applied vs not-applied), the daemon's chunk dedupe, and the client's
reconnect/re-hello/re-send loop.
"""

import struct
import threading

import pytest

from repro.robustness.faults import parse_fault_specs
from repro.serve import (
    ChaosProxy,
    NETWORK_FAULT_NAMES,
    ServeClient,
    SessionManager,
    TenantSpec,
    parse_network_fault_specs,
)
from repro.serve.daemon import ServeDaemon

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


def connect_via(proxy, **kwargs):
    host, port = proxy.address
    return ServeClient.connect(host, port, timeout=5.0, **kwargs)


class TestGrammar:
    def test_network_parser_rejects_batch_faults(self):
        with pytest.raises(ValueError, match="not a network fault"):
            parse_network_fault_specs("nan:0.2")

    def test_network_parser_accepts_full_taxonomy(self):
        text = ",".join(f"{name}@1" for name in NETWORK_FAULT_NAMES)
        specs = parse_network_fault_specs(text)
        assert tuple(s.fault for s in specs) == NETWORK_FAULT_NAMES

    def test_proxy_refuses_batch_fault_specs(self):
        with pytest.raises(ValueError, match="not a network fault"):
            ChaosProxy("127.0.0.1", 1, parse_fault_specs("nan@1"))


class TestDeterminism:
    def test_garbage_bytes_are_seeded_and_oversized(self):
        a = ChaosProxy("127.0.0.1", 1, (), seed=7)
        b = ChaosProxy("127.0.0.1", 1, (), seed=7)
        c = ChaosProxy("127.0.0.1", 1, (), seed=8)
        for index in range(5):
            noise = a._garbage(index)
            assert noise == b._garbage(index)
            # declared length always over the 64 MB cap: the daemon
            # refuses the frame instead of waiting for gigabytes
            (length,) = struct.unpack(">I", noise[:4])
            assert length >= 1 << 31
        assert a._garbage(0) != c._garbage(0)


class TestRelay:
    def test_fault_free_proxy_is_transparent(self, daemon):
        chunks = make_batches(3, batch_size=8, seed=5)
        with ChaosProxy(*daemon.address, ()) as proxy:
            with connect_via(proxy) as client:
                client.hello(spec_for("cam0"))
                for images, labels in chunks:
                    ack = client.send_frames(images, labels)
                    assert ack["duplicate"] is False
                card = client.close_tenant()
        assert card.frames_processed == 24
        assert proxy.events == []

    def test_split_and_delay_are_survivable_without_retries(self, daemon):
        # split dribbles bytes, delay stalls: annoying, never fatal —
        # the recv loop and a generous io_timeout must absorb both
        specs = parse_network_fault_specs("split@1,delay@2")
        chunks = make_batches(3, batch_size=8, seed=5)
        with ChaosProxy(*daemon.address, specs, delay_s=0.05) as proxy:
            with connect_via(proxy) as client:
                client.hello(spec_for("cam0"))
                for images, labels in chunks:
                    client.send_frames(images, labels)
                card = client.close_tenant()
        assert card.frames_processed == 24
        assert [e.fault for e in proxy.events] == ["split", "delay"]

    def test_disconnect_after_apply_is_acked_as_duplicate(self, daemon):
        # message 0 is the hello; message 1 the first frames chunk: the
        # proxy forwards it whole, then severs — the daemon *applied*
        # it, the reply is lost, and the retried send must dedupe
        specs = parse_network_fault_specs("disconnect@1")
        images, labels = make_batches(1, batch_size=8, seed=5)[0]
        with ChaosProxy(*daemon.address, specs) as proxy:
            with connect_via(proxy, retries=4) as client:
                client.hello(spec_for("cam0"))
                ack = client.send_frames(images, labels)
                assert ack["duplicate"] is True
                assert ack["batches_done"] == 1
                assert client.scorecard().frames_processed == 8
                client.close_tenant()
        assert [e.fault for e in proxy.events] == ["disconnect"]

    def test_truncate_is_not_applied_and_retry_applies_once(self, daemon):
        # a truncated frame EOFs mid-message server-side: never applied,
        # so the retried send is a *fresh* apply, not a duplicate
        specs = parse_network_fault_specs("truncate@1")
        images, labels = make_batches(1, batch_size=8, seed=5)[0]
        with ChaosProxy(*daemon.address, specs) as proxy:
            with connect_via(proxy, retries=4) as client:
                client.hello(spec_for("cam0"))
                ack = client.send_frames(images, labels)
                assert ack["duplicate"] is False
                assert client.scorecard().frames_processed == 8
                client.close_tenant()
        assert [e.fault for e in proxy.events] == ["truncate"]

    def test_fault_without_retries_surfaces_typed_error(self, daemon):
        from repro.serve import ServeDisconnectedError
        specs = parse_network_fault_specs("truncate@1")
        images, labels = make_batches(1, batch_size=8, seed=5)[0]
        with ChaosProxy(*daemon.address, specs) as proxy:
            with connect_via(proxy) as client:
                client.hello(spec_for("cam0"))
                with pytest.raises(ServeDisconnectedError):
                    client.send_frames(images, labels)


class TestBitIdentityUnderChaos:
    def test_chaos_stream_matches_fault_free_twin(self, daemon):
        """THE acceptance pin: chaos changes nothing but the weather.

        Message indices through the proxy: hello=0, then each frames
        chunk / retry hello / re-send consumes the next index, so
        ``disconnect@2,truncate@4,garbage@6`` chains three recoveries
        onto the second chunk — an applied-but-unacked send, then two
        never-applied sends — before the duplicate ack settles it.
        """
        chunks = poison(make_batches(6, batch_size=8, seed=11), {3})

        twin = SessionManager()
        try:
            twin.open_tenant(spec_for("cam0"))
            for index, (images, labels) in enumerate(chunks):
                twin.ingest("cam0", images, labels,
                            faults=1 if index == 3 else 0)
            twin_state = twin.session("cam0").model.state_dict()
            twin_card = twin.scorecard("cam0")
            assert twin_card.rollbacks >= 1       # the fault actually bit
        finally:
            twin.close()

        specs = parse_network_fault_specs("disconnect@2,truncate@4,garbage@6")
        with ChaosProxy(*daemon.address, specs, seed=7) as proxy:
            with connect_via(proxy, retries=6, backoff_base=0.01) as client:
                client.hello(spec_for("cam0"))
                for index, (images, labels) in enumerate(chunks):
                    client.send_frames(images, labels,
                                       faults=1 if index == 3 else 0)
                card = client.scorecard()
                state = daemon.manager.session("cam0").model.state_dict()
                client.close_tenant()
        assert [e.fault for e in proxy.events] == \
            ["disconnect", "truncate", "garbage"]
        assert strip_timing(card) == strip_timing(twin_card)
        assert_states_identical(twin_state, state)
