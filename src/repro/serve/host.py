"""Host processes: where the serve daemon's tenants adapt.

One Python process runs one tenant's batch at a time however many
threads it starts, because the GIL serializes the adaptation code.  The
daemon is therefore split in two:

- the *front* process keeps the event loop, the
  :class:`~repro.serve.manager.SessionManager` (admission, carving,
  chunk dedupe, the journal, compaction, eviction, drain, status) and
  one :class:`~repro.serve.scheduler.BatchScheduler` per host;
- each *host* process owns the
  :class:`~repro.serve.session.AdaptationSession` (model, method, guard,
  optimizer) of every tenant placed on it, for the tenant's life, and
  answers the front's requests one at a time.

A request is one round trip over the host's socketpair: a pickled
``(op, tenant, args)`` out, a pickled ``(ok, value)`` back.  The front's
side is :meth:`Host.call`, made only by that host's scheduler worker;
the worker waits on the socket with the GIL released, so two hosts adapt
on two cores.  The host runs the same session code as an in-process
stream, so every stream is bit-identical to an in-process one.

Hosts are forked from the already-imported front (:func:`start_hosts`),
before the manager starts its scheduler threads or opens its journal and
before the daemon listens.  The child closes every socket it inherited
except its own channel — the other hosts' channels and any listener or
connection of another daemon in the same process — so it sees EOF, and
exits, as soon as the front closes its end or dies.  It leaves through
``os._exit``, so no exit handler of the front (a trace writer, an atexit
hook) ever runs in it, and it ignores SIGINT, which the front handles.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import socket
import stat
import struct
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.engine import use_backend
from repro.engine.blas import blas_threads
from repro.serve.scheduler import BatchScheduler
from repro.serve.session import AdaptationSession

__all__ = ["Host", "HostError", "start_hosts"]

_LENGTH = struct.Struct("!Q")


class HostError(RuntimeError):
    """The host process that runs a tenant is gone."""


class Channel:
    """One end of a host's socketpair: pickled messages, length-prefixed."""

    __slots__ = ("sock",)

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock

    def send(self, message: Any) -> None:
        payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        self.sock.sendall(_LENGTH.pack(len(payload)) + payload)

    def recv(self) -> Any:
        (size,) = _LENGTH.unpack(self._read(_LENGTH.size))
        return pickle.loads(self._read(size))

    def _read(self, size: int) -> bytearray:
        buffer = bytearray(size)
        view = memoryview(buffer)
        got = 0
        while got < size:
            count = self.sock.recv_into(view[got:])
            if count == 0:
                raise EOFError("the other end closed the channel")
            got += count
        return buffer


class Host:
    """The front's handle on one host process.

    :attr:`tenants` is the placement load (the manager's registry lock
    guards it); :attr:`scheduler` is the host's own scheduler, whose one
    worker is the only thread that calls :meth:`call`.
    """

    def __init__(self, pid: int, channel: Channel) -> None:
        self.pid = pid
        self.channel = channel
        self.scheduler = BatchScheduler(start=False)
        #: what this host's batches run with, from its ready message
        self.blas_threads: Optional[int] = None
        self.tenants = 0
        #: why the host is gone, once a call found it so
        self.error: Optional[str] = None
        self._lock = threading.Lock()
        self._reaped = False

    def call(self, op: str, tenant: str, *args: Any) -> Any:
        """One round trip; re-raises what the request raised in the host."""
        if self.error is not None:
            raise HostError(self.error)
        try:
            self.channel.send((op, tenant, args))
            ok, value = self.channel.recv()
        except (EOFError, OSError) as error:
            self.error = (f"host process {self.pid} exited; the state of its "
                          "tenants since their last checkpoint is lost")
            raise HostError(self.error) from error
        if not ok:
            raise value
        return value

    @property
    def alive(self) -> bool:
        """Whether the host process is still running (reaps it if not)."""
        return self.error is None and not self._wait(os.WNOHANG)

    def _wait(self, options: int) -> bool:
        """``waitpid`` once; True when the host is known to have exited."""
        with self._lock:
            if not self._reaped:
                try:
                    self._reaped = os.waitpid(self.pid, options)[0] != 0
                except ChildProcessError:
                    self._reaped = True
            return self._reaped

    def stop(self, timeout: float = 5.0) -> None:
        """End the host and reap it; SIGKILL after ``timeout`` seconds.

        Shutting the channel down sends the host EOF once it has
        answered the request in hand; it then exits, which in turn ends
        any call still waiting on the channel.
        """
        try:
            self.channel.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass                        # the host already closed its end
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while not self._wait(os.WNOHANG):
            if time.monotonic() >= deadline:
                with self._lock:
                    if not self._reaped:
                        os.kill(self.pid, signal.SIGKILL)
                self._wait(0)
                break
            time.sleep(delay)
            delay = min(2 * delay, 0.02)
        self.channel.sock.close()

    def describe(self, tenants: List[str]) -> dict:
        """The host's entry in the daemon's ``status`` document."""
        return {"pid": self.pid, "alive": self.alive,
                "blas_threads": self.blas_threads, "tenants": tenants}


def start_hosts(count: int,
                make_backend: Callable[[], Any]) -> List[Host]:
    """Fork ``count`` hosts and wait until each is ready.

    ``make_backend`` builds each host's engine backend, in the host.
    Call it before this process starts threads of its own: the child
    keeps only the forking thread, and a lock another thread held at the
    fork would stay held in it for good.
    """
    hosts: List[Host] = []
    try:
        for _ in range(count):
            hosts.append(_fork(make_backend))
        for host in hosts:
            try:
                host.blas_threads = host.channel.recv()
            except EOFError:
                raise HostError(f"host process {host.pid} exited before "
                                "it was ready") from None
    except BaseException:
        for host in hosts:
            host.stop()
        raise
    return hosts


def _fork(make_backend: Callable[[], Any]) -> Host:
    front, back = socket.socketpair()
    try:
        pid = os.fork()
    except BaseException:
        front.close()
        back.close()
        raise
    if pid == 0:                        # the host: never returns
        code = 1
        try:
            _close_inherited_sockets(keep=back.fileno())
            # inherited objects are never collected here, so nothing
            # closes a descriptor number the host has reused meanwhile
            gc.freeze()
            code = _serve(Channel(back), make_backend)
        except BaseException:           # noqa: BLE001 — the host's last words
            try:
                traceback.print_exc()
            except (OSError, ValueError):
                pass                    # no stderr left to write them to
        finally:
            os._exit(code)
    back.close()
    return Host(pid, Channel(front))


def _close_inherited_sockets(keep: int) -> None:
    """Close every inherited socket but ``keep``: the front's ends of all
    hosts' channels and any listener or connection open in the front."""
    directory = "/proc/self/fd" if os.path.isdir("/proc/self/fd") \
        else "/dev/fd"
    for name in os.listdir(directory):
        fd = int(name)
        if fd < 3 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue                    # the listing's own descriptor


def _serve(channel: Channel, make_backend: Callable[[], Any]) -> int:
    """The host's life: answer requests until the front goes away."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sessions: Dict[str, AdaptationSession] = {}
    # the host runs on one BLAS thread without setting it: it inherits
    # the count the front set before the fork (the hosts are the
    # parallelism, and a BLAS pool per host only oversubscribes cores)
    with use_backend(make_backend()):
        channel.send(blas_threads())
        while True:
            try:
                op, tenant, args = channel.recv()
            except (EOFError, OSError):
                return 0
            try:
                reply = (True, _HANDLERS[op](sessions, tenant, *args))
            except Exception as error:  # noqa: BLE001 — re-raised in front
                reply = (False, _portable(error))
            try:
                channel.send(reply)
            except OSError:
                return 0
            except Exception as error:  # noqa: BLE001 — the reply did not
                channel.send((False, _portable(error)))     # pickle


def _portable(error: Exception) -> Exception:
    """``error`` if it survives pickling, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:                   # noqa: BLE001 — any pickling failure
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


# -- requests (run in the host) -----------------------------------------

def _counted(session: AdaptationSession, counts) -> AdaptationSession:
    """Apply the front's running totals: faults the client reported and
    frames admission dropped travel on the tenant's next request."""
    session.faults_injected, session.frames_dropped = counts
    return session


def _open(sessions, tenant, session, checkpoint):
    # the front builds the session (one model cache for every host) and
    # ships it unstarted; from here on it lives only in this host
    if checkpoint is None:
        session.start()
    else:
        session.load_checkpoint(checkpoint)
    sessions[tenant] = session
    return session.scorecard()


def _batch(sessions, tenant, counts, images, labels, checkpoint):
    session = _counted(sessions[tenant], counts)
    session.process_batch(images, labels)
    return session.scorecard(), session.checkpoint() if checkpoint else None


def _checkpoint(sessions, tenant, counts):
    return _counted(sessions[tenant], counts).checkpoint()


def _evict(sessions, tenant, counts):
    checkpoint = _checkpoint(sessions, tenant, counts)
    del sessions[tenant]
    return checkpoint


def _close(sessions, tenant, counts, restore):
    session = _counted(sessions.pop(tenant), counts)
    session.close(restore_model=restore)
    return session.scorecard()


def _session(sessions, tenant, counts):
    # pickled on the way out: the front gets a copy
    return _counted(sessions[tenant], counts)


_HANDLERS = {"open": _open, "batch": _batch, "checkpoint": _checkpoint,
             "evict": _evict, "close": _close, "session": _session}
