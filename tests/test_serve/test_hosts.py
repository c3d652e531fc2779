"""Host processes: placement, resume across hosts, failure and lifecycle.

Each tenant's session lives in one of the manager's ``workers`` host
processes.  Admission places a tenant on the least-loaded live host; a
checkpoint carries the tenant's whole state, so an evicted or resumed
tenant may land on any host and still continue bit-identically.  A
host that dies takes only its own tenants with it, a killed front takes
every host with it, and every way a manager ends reaps its hosts.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.serve.client import ServeClient, ServeError
from repro.serve.manager import SessionManager, TenantSpec

from tests.test_serve.conftest import (
    assert_states_identical,
    child_pids,
    make_batches,
    poison,
    strip_timing,
)
from tests.test_serve.test_hardening import connect, start_daemon

#: a journal the in-process daemon wrote before tenants moved to hosts:
#: tenant cam0 (spec_for below) after chunks 0-2 of ``_stream()``,
#: compacted to its last checkpoint
IN_PROCESS_JOURNAL = Path(__file__).with_name("data") / \
    "in_process_journal.jsonl"

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="reads process states from /proc")


def spec_for(tenant, **overrides):
    base = dict(tenant=tenant, model="wrn40_2", method="bn_opt",
                batch_size=8, guard=True, queue_capacity=2,
                image_size=16, seed=3)
    base.update(overrides)
    return TenantSpec(**base)


def _stream():
    """Six guarded chunks, a NaN fault in chunk 2."""
    return poison(make_batches(6, batch_size=8, seed=11), {2})


def _feed(manager, tenant, chunks, start=0):
    for index, (images, labels) in enumerate(chunks, start):
        manager.ingest(tenant, images, labels, faults=int(index == 2),
                       chunk=index)


def _twin(chunks):
    """Scorecard and model state of an uninterrupted in-order run."""
    twin = SessionManager(workers=1)
    try:
        twin.open_tenant(spec_for("cam0"))
        _feed(twin, "cam0", chunks)
        return (strip_timing(twin.scorecard("cam0")),
                twin.session("cam0").model.state_dict())
    finally:
        twin.close()


def host_of(manager):
    """tenant -> pid of the host that runs it."""
    return {name: host["pid"] for host in manager.status()["hosts"]
            for name in host["tenants"]}


def running(pid):
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def make_idle(manager, tenant):
    manager._tenants[tenant].last_active -= 1000.0


class TestPlacement:
    def test_tenants_spread_over_hosts_and_free_their_slots(self):
        manager = SessionManager(workers=2)
        try:
            manager.open_tenant(spec_for("cam0"))
            manager.open_tenant(spec_for("cam1"))
            first = host_of(manager)
            assert first["cam0"] != first["cam1"]
            # closing frees cam0's slot: the next tenant takes it
            manager.close_tenant("cam0")
            manager.open_tenant(spec_for("cam2"))
            assert host_of(manager)["cam2"] == first["cam0"]
            # so does an eviction
            make_idle(manager, "cam1")
            assert manager.evict_idle(0.1) == ["cam1"]
            manager.open_tenant(spec_for("cam3"))
            assert host_of(manager)["cam3"] == first["cam1"]
        finally:
            manager.close()

    def test_evicted_tenant_resumes_bit_identically_on_the_other_host(self):
        chunks = _stream()
        card, state = _twin(chunks)
        manager = SessionManager(workers=2)
        try:
            manager.open_tenant(spec_for("cam0"))
            _feed(manager, "cam0", chunks[:3])
            before = host_of(manager)["cam0"]
            make_idle(manager, "cam0")
            assert manager.evict_idle(0.1) == ["cam0"]
            # a newcomer takes the first host, so cam0 comes back on the
            # other one, from the eviction checkpoint
            manager.open_tenant(spec_for("filler", seed=4))
            assert host_of(manager)["filler"] == before
            opened = manager.open_tenant(spec_for("cam0"))
            assert opened == {"resumed": True, "batches_done": 3,
                              "chunk": 2}
            assert host_of(manager)["cam0"] != before
            _feed(manager, "cam0", chunks[3:], start=3)
            assert strip_timing(manager.scorecard("cam0")) == card
            assert_states_identical(
                state, manager.session("cam0").model.state_dict())
        finally:
            manager.close()

    def test_journal_of_the_in_process_daemon_resumes_bit_identically(
            self, tmp_path):
        """The journal format is unchanged: a journal the in-process
        daemon wrote resumes onto a host and continues bit-identically."""
        chunks = _stream()
        card, state = _twin(chunks)
        journal = tmp_path / "serve.jsonl"
        journal.write_bytes(IN_PROCESS_JOURNAL.read_bytes())
        manager = SessionManager(journal=str(journal), resume=True)
        try:
            opened = manager.open_tenant(spec_for("cam0"))
            assert opened == {"resumed": True, "batches_done": 3,
                              "chunk": 2}
            _feed(manager, "cam0", chunks[3:], start=3)
            assert strip_timing(manager.scorecard("cam0")) == card
            assert_states_identical(
                state, manager.session("cam0").model.state_dict())
        finally:
            manager.close()


@needs_proc
class TestHostFailure:
    def test_a_killed_host_fails_only_its_own_tenants(self):
        chunks = make_batches(3, batch_size=8, seed=5)
        daemon, thread = start_daemon(SessionManager(workers=2))
        try:
            with connect(daemon, call_timeout=10.0) as lost, \
                    connect(daemon, call_timeout=10.0) as kept:
                lost.hello(spec_for("cam0"))
                kept.hello(spec_for("cam1"))
                lost.send_frames(*chunks[0])
                kept.send_frames(*chunks[0])
                victim = host_of(daemon.manager)["cam0"]
                os.kill(victim, signal.SIGKILL)
                assert wait_until(lambda: not running(victim), 5.0)
                started = time.monotonic()
                with pytest.raises(ServeError, match=f"host process {victim}"):
                    lost.send_frames(*chunks[1])
                assert time.monotonic() - started < 10.0
                # the front and the other host keep serving
                for images, labels in chunks[1:]:
                    assert kept.send_frames(images, labels)["batches_done"] \
                        >= 2
                hosts = {host["pid"]: host for host in kept.status()["hosts"]}
                assert hosts[victim]["alive"] is False
                assert [host["alive"] for pid, host in hosts.items()
                        if pid != victim] == [True]
                with pytest.raises(ServeError, match="host process"):
                    lost.close_tenant()
                assert kept.close_tenant().batches_total == 3
        finally:
            daemon.shutdown()
            daemon.close()
            thread.join(timeout=5)

    def test_every_host_exits_with_a_killed_front(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        with open(tmp_path / "daemon.log", "wb") as log, \
                subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                 stderr=log) as front:
            try:
                port = _listening_port(front)
                with ServeClient.connect("127.0.0.1", port) as client:
                    client.hello(spec_for("cam0"))
                    client.send_frames(*make_batches(1, seed=5)[0])
                    hosts = [host["pid"] for host in client.status()["hosts"]]
                assert len(hosts) == 2 and all(map(running, hosts))
                front.send_signal(signal.SIGKILL)
                front.wait(timeout=30)
                assert wait_until(lambda: not any(map(running, hosts)), 5.0)
            finally:
                if front.poll() is None:
                    front.kill()


def _listening_port(proc, timeout=60.0):
    deadline = time.monotonic() + timeout
    line = b""
    while not line.endswith(b"\n"):
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        assert ready, "daemon did not start listening in time"
        chunk = proc.stdout.read1(256)
        assert chunk, f"daemon exited with {proc.wait()} before listening"
        line += chunk
    return int(line.decode().strip().rsplit(":", 1)[1])


@needs_proc
class TestLifecycle:
    def test_close_reaps_every_host(self):
        children = child_pids()
        manager = SessionManager(workers=2)
        hosts = {host["pid"] for host in manager.status()["hosts"]}
        assert len(hosts) == 2 and hosts <= child_pids() - children
        manager.open_tenant(spec_for("cam0"))
        manager.close()
        assert child_pids() <= children

    def test_a_manager_dropped_without_close_ends_its_hosts(self):
        children = child_pids()
        manager = SessionManager(workers=2)
        hosts = [host["pid"] for host in manager.status()["hosts"]]
        del manager                 # the kill-resume tests' SIGKILL
        assert not any(map(running, hosts))
        assert child_pids() <= children
