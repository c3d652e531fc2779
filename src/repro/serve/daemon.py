"""The multi-tenant adaptation daemon: event-loop TCP front-end.

One ``selectors`` event loop owns every socket (PR 9 replaced the
thread-per-connection :class:`socketserver.ThreadingTCPServer`): the
loop does non-blocking accepts, reads, framing, and writes, and hands
complete messages to a small dispatcher pool whose replies flow back
through a thread-safe outbox (a socketpair waker gets the loop's
attention).  Per-connection messages are processed strictly in order —
a connection is *busy* while one of its messages is in flight and its
inbox simply queues — so the wire semantics are exactly the old
handler loop's, but a thousand idle connections now cost a thousand
socket registrations instead of a thousand threads.  Batches run
elsewhere: the manager sends each carved batch to the host process
that holds its tenant's session (:mod:`repro.serve.host`).

Connections are stateless beyond the ``hello`` handshake: a tenant's
session lives in the manager, not the connection, so a dropped client
reconnects and carries on — and a killed *daemon* restarted with
``resume=True`` carries on from the journal.

The wire format is the length-prefixed JSON protocol of
:mod:`repro.serve.protocol`; malformed requests get an ``error`` reply
and the connection stays up, so one confused client cannot take a
tenant down.

Hardened for long-lived operation (pinned by the hardening and
chaos-proxy suites; the event loop preserves every contract):

- every connection runs under a read deadline (``io_timeout``): a
  slow-loris client that dribbles bytes — or stalls mid-frame — is
  evicted with an ``error`` reply instead of pinning resources.  The
  deadline applies only while the connection is *idle*; a request
  being processed never times its own connection out;
- recoverable protocol violations (an oversized declared length, a
  well-framed but undecodable payload) get an ``error`` reply and the
  connection *stays up* — oversized payload bytes are skipped as they
  stream in, so framing never desyncs; only a broken byte stream
  closes a connection;
- ``status`` reports per-tenant health, scheduler and journal
  statistics without a handshake;
- shutdown drains: stop accepting, finish in-flight batches,
  checkpoint every tenant, compact the journal, then exit — and the
  helper thread that stops the serve loop is joined in :meth:`close`,
  so the listening socket is provably gone when ``close()`` returns
  (``repro serve`` runs ``serve_forever``, the drain, then ``close``);
- idle tenants are evicted with a checkpoint (``idle_evict_s``) from
  the loop's housekeeping tick, keeping resident model memory
  proportional to *active* tenants.
"""

from __future__ import annotations

import contextlib
import json
import logging
import selectors
import socket
import struct
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, Optional, Tuple

from repro.serve import protocol
from repro.serve.checkpoint import decode_array
from repro.serve.host import HostError
from repro.serve.manager import AdmissionError, SessionManager, TenantSpec

_log = logging.getLogger("repro.serve")

_LENGTH = struct.Struct(">I")

#: bytes pulled per non-blocking recv
_RECV_BYTES = 1 << 16

#: grace (seconds) a connection marked for closing gets to flush its
#: last reply before the deadline sweep hard-closes it
_CLOSE_GRACE_S = 5.0

#: dispatcher pool size: how many connections' messages are *handled*
#: at once (batches themselves run one layer down, in the host processes)
_DISPATCH_WORKERS = 8


class _Connection:
    """Per-connection state, owned by the event-loop thread.

    The dispatcher pool only ever touches ``tenant`` (and only while
    this connection is ``busy``, so exactly one thread at a time).
    """

    __slots__ = ("sock", "peer", "recv_buffer", "send_buffer", "inbox",
                 "tenant", "busy", "closing", "eof", "skip_remaining",
                 "skip_error", "deadline", "events")

    def __init__(self, sock: socket.socket, peer) -> None:
        self.sock = sock
        self.peer = peer
        self.recv_buffer = bytearray()
        self.send_buffer = bytearray()
        #: complete decoded messages awaiting dispatch (in order)
        self.inbox: Deque[dict] = deque()
        self.tenant: Optional[str] = None
        #: a message of this connection is in the dispatcher pool
        self.busy = False
        #: close once the send buffer flushes (post-``bye``/eviction)
        self.closing = False
        #: peer sent EOF; close once queued work and replies settle
        self.eof = False
        #: oversized-frame payload bytes still to discard
        self.skip_remaining = 0
        self.skip_error: Optional[str] = None
        #: monotonic eviction instant (None while a request is in
        #: flight — processing time never counts against the peer)
        self.deadline: Optional[float] = None
        self.events = selectors.EVENT_READ


class ServeDaemon:
    """The serving loop: bind, select, and delegate to the manager.

    ``port=0`` binds an OS-assigned port (tests); :attr:`address` is
    the actually-bound ``(host, port)``.  :meth:`serve_forever` blocks
    until a client sends ``shutdown`` or :meth:`shutdown` is called;
    :meth:`drain` checkpoints every tenant and compacts the journal;
    :meth:`close` joins the shutdown helper, tears down the sockets and
    the manager.  :meth:`server_close` tears down *only* the sockets —
    the kill-resume tests use it as SIGKILL: manager and journal stay
    untouched.

    Parameters
    ----------
    io_timeout:
        Idle-connection deadline in seconds (0 disables): a peer that
        keeps a connection silent — or stalls mid-frame — longer than
        this is evicted.
    idle_evict_s:
        Evict-with-checkpoint tenants idle longer than this (0
        disables); enforced by :meth:`service_actions` every loop tick.
    max_message_bytes:
        Frame-size cap (tests shrink it to exercise the
        oversized-frame reply).
    """

    def __init__(self, manager: SessionManager, host: str = "127.0.0.1",
                 port: int = 0, *, io_timeout: float = 30.0,
                 idle_evict_s: float = 0.0,
                 max_message_bytes: int = protocol.MAX_MESSAGE_BYTES
                 ) -> None:
        if io_timeout < 0:
            raise ValueError("io_timeout must be >= 0")
        if idle_evict_s < 0:
            raise ValueError("idle_evict_s must be >= 0")
        self.manager = manager
        self.io_timeout = io_timeout
        self.idle_evict_s = idle_evict_s
        self.max_message_bytes = max_message_bytes
        self.poll_interval = 0.5
        self.draining = False
        self.drain_requested = False
        self.evicted_connections = 0
        self._shutdown_thread: Optional[threading.Thread] = None
        self._shutdown_request = False
        #: set while the loop is *not* running (stdlib-compatible
        #: shutdown(): callable before, during, or after serve_forever)
        self._stopped = threading.Event()
        self._stopped.set()
        self._closed = False
        self._connections: Dict[socket.socket, _Connection] = {}
        self._outbox: Deque[tuple] = deque()
        self._outbox_lock = threading.Lock()
        # a failure part-way (a busy port, no file descriptors left)
        # releases whatever was already opened before it propagates
        with contextlib.ExitStack() as opened:
            self._executor = ThreadPoolExecutor(
                max_workers=_DISPATCH_WORKERS,
                thread_name_prefix="serve-dispatch")
            opened.callback(self._executor.shutdown, wait=False)
            self._selector = selectors.DefaultSelector()
            opened.callback(self._selector.close)
            self._listener = opened.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(128)
            self._listener.setblocking(False)
            self._server_address = self._listener.getsockname()[:2]
            self._selector.register(self._listener, selectors.EVENT_READ,
                                    None)
            self._waker_recv, self._waker_send = socket.socketpair()
            opened.enter_context(self._waker_recv)
            opened.enter_context(self._waker_send)
            self._waker_recv.setblocking(False)
            self._waker_send.setblocking(False)
            self._selector.register(self._waker_recv, selectors.EVENT_READ,
                                    "waker")
            opened.pop_all()

    @property
    def address(self) -> Tuple[str, int]:
        return self._server_address[0], self._server_address[1]

    # -- the event loop ------------------------------------------------

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (or a ``bye``)."""
        self._stopped.clear()
        try:
            while not self._shutdown_request:
                try:
                    ready = self._selector.select(self._select_timeout())
                except OSError:
                    if self._closed:
                        break       # server_close raced the loop
                    raise
                for key, mask in ready:
                    if key.data is None:
                        self._accept()
                    elif key.data == "waker":
                        self._drain_waker()
                    else:
                        conn = key.data
                        if mask & selectors.EVENT_WRITE \
                                and conn.sock in self._connections:
                            self._flush(conn)
                        if mask & selectors.EVENT_READ \
                                and conn.sock in self._connections:
                            self._read(conn)
                self._drain_outbox()
                self._sweep_deadlines()
                self.service_actions()
        finally:
            self._shutdown_request = False
            self._stopped.set()

    def _select_timeout(self) -> float:
        timeout = self.poll_interval
        now = time.monotonic()
        for conn in self._connections.values():
            if conn.deadline is not None:
                timeout = min(timeout, max(0.0, conn.deadline - now))
        return timeout

    def _accept(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            conn = _Connection(sock, peer)
            if self.io_timeout:
                conn.deadline = time.monotonic() + self.io_timeout
            self._connections[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _read(self, conn: _Connection) -> None:
        try:
            while True:
                data = conn.sock.recv(_RECV_BYTES)
                if not data:
                    conn.eof = True
                    break
                conn.recv_buffer += data
                self._touch(conn)
                if len(data) < _RECV_BYTES:
                    break
        except BlockingIOError:
            pass                    # socket drained for now
        except OSError:
            self._close_connection(conn)
            return
        self._parse(conn)
        if conn.sock not in self._connections:
            return                  # a parse error reply closed it
        self._pump(conn)
        if conn.eof and not conn.busy and not conn.inbox \
                and not conn.send_buffer:
            self._close_connection(conn)

    def _touch(self, conn: _Connection) -> None:
        """Re-arm the idle deadline after bytes or a finished reply."""
        if self.io_timeout and not conn.closing and not conn.busy:
            conn.deadline = time.monotonic() + self.io_timeout

    def _parse(self, conn: _Connection) -> None:
        """Carve complete frames out of the receive buffer.

        Mirrors :func:`repro.serve.protocol.recv_message` error for
        error so the event loop keeps the threading daemon's exact
        reply texts: an oversized declared length flips the connection
        into skip mode (payload bytes are discarded as they stream in,
        framing stays intact) and the refusal is sent once the skip
        completes; an undecodable payload is refused with the
        connection left up.
        """
        while conn.sock in self._connections:
            if conn.skip_remaining:
                drop = min(len(conn.recv_buffer), conn.skip_remaining)
                del conn.recv_buffer[:drop]
                conn.skip_remaining -= drop
                if conn.skip_remaining:
                    return          # more payload still on the wire
                reason, conn.skip_error = conn.skip_error, None
                self._send_error(conn, reason)
                continue
            if len(conn.recv_buffer) < _LENGTH.size:
                return
            (length,) = _LENGTH.unpack(bytes(conn.recv_buffer[:4]))
            if length > self.max_message_bytes:
                del conn.recv_buffer[:4]
                conn.skip_remaining = length
                error = protocol.FrameTooLargeError(length,
                                                    self.max_message_bytes)
                conn.skip_error = f"protocol violation: {error}"
                continue
            if len(conn.recv_buffer) < _LENGTH.size + length:
                return
            payload = bytes(conn.recv_buffer[4:4 + length])
            del conn.recv_buffer[:4 + length]
            try:
                message = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                self._send_error(
                    conn, "protocol violation: undecodable message "
                    f"payload: {error}")
                continue
            if not isinstance(message, dict) or "type" not in message:
                self._send_error(
                    conn, "protocol violation: message must be a JSON "
                    "object with a 'type'")
                continue
            conn.inbox.append(message)

    def _pump(self, conn: _Connection) -> None:
        """Dispatch the connection's next message, if it is free to."""
        if conn.busy or conn.closing or not conn.inbox:
            return
        message = conn.inbox.popleft()
        conn.busy = True
        conn.deadline = None        # processing never times the peer out
        self._executor.submit(self._dispatch, conn, message)

    def _dispatch(self, conn: _Connection, message: dict) -> None:
        """Handle one message (dispatcher pool thread); reply via outbox."""
        reply: Optional[dict] = None
        close_after = False
        shutdown_drain: Optional[bool] = None
        try:
            reply, close_after, shutdown_drain = self._handle(conn, message)
        except (AdmissionError, HostError, ValueError, KeyError) as error:
            reply = {"type": "error",
                     "reason": str(error) or type(error).__name__}
        except Exception:
            _log.exception("handler failure for %r", message.get("type"))
            reply = {"type": "error", "reason": "internal error"}
            close_after = True
        with self._outbox_lock:
            self._outbox.append((conn, reply, close_after, shutdown_drain))
        self._wake()

    def _handle(self, conn: _Connection, message: dict):
        """The request dispatch table; returns (reply, close, drain?)."""
        kind = message.get("type")
        # `close` naming its tenant explicitly is allowed without a
        # handshake: it is how a retrying client settles a close whose
        # first reply was lost on a severed connection
        handshake_free = ("hello", "shutdown", "status")
        if conn.tenant is None and kind not in handshake_free \
                and not (kind == "close" and message.get("tenant")):
            return {"type": "error",
                    "reason": "first message must be 'hello'"}, False, None
        if kind == "hello":
            if message.get("protocol") != protocol.PROTOCOL_VERSION:
                raise ValueError(
                    f"protocol version mismatch: daemon speaks "
                    f"{protocol.PROTOCOL_VERSION}")
            if self.draining:
                raise AdmissionError(
                    "daemon is draining; not admitting tenants")
            spec = TenantSpec(**message["spec"])
            opened = self.manager.open_tenant(spec)
            conn.tenant = spec.tenant
            return {"type": "welcome", "tenant": spec.tenant,
                    "resumed": opened["resumed"],
                    "batches_done": opened["batches_done"],
                    "chunk": opened["chunk"]}, False, None
        if kind == "frames":
            if self.draining:
                raise AdmissionError(
                    "daemon is draining; not accepting frames")
            images = decode_array(message["images"])
            labels = decode_array(message["labels"])
            chunk = message.get("chunk")
            outcome = self.manager.ingest(
                conn.tenant, images, labels,
                faults=int(message.get("faults", 0)),
                chunk=None if chunk is None else int(chunk))
            return dict(outcome, type="ack"), False, None
        if kind == "scorecard":
            card = self.manager.scorecard(conn.tenant)
            return {"type": "scorecard",
                    "scorecard": protocol.scorecard_to_dict(card)}, \
                False, None
        if kind == "status":
            return dict(self.status(), type="status"), False, None
        if kind == "close":
            name = str(message.get("tenant") or conn.tenant)
            card = self.manager.close_tenant(
                name, restore=bool(message.get("restore", False)))
            if name == conn.tenant:
                conn.tenant = None
            return {"type": "closed",
                    "scorecard": protocol.scorecard_to_dict(card)}, \
                False, None
        if kind == "shutdown":
            return {"type": "bye"}, True, bool(message.get("drain", True))
        return {"type": "error",
                "reason": f"unknown message type {kind!r}"}, False, None

    def _drain_outbox(self) -> None:
        """Apply dispatcher replies (event-loop thread)."""
        while True:
            with self._outbox_lock:
                if not self._outbox:
                    return
                conn, reply, close_after, shutdown_drain = \
                    self._outbox.popleft()
            conn.busy = False
            if shutdown_drain is not None:
                self.request_shutdown(drain=shutdown_drain)
            if conn.sock not in self._connections:
                continue            # closed while the reply was made
            if reply is not None:
                self._queue_reply(conn, reply)
            if close_after:
                conn.closing = True
                conn.deadline = time.monotonic() + _CLOSE_GRACE_S
            self._flush(conn)
            if conn.sock not in self._connections:
                continue
            if conn.closing:
                if not conn.send_buffer:
                    self._close_connection(conn)
                continue
            self._touch(conn)
            self._pump(conn)
            if conn.eof and not conn.busy and not conn.inbox \
                    and not conn.send_buffer:
                self._close_connection(conn)

    # -- writes --------------------------------------------------------

    def _queue_reply(self, conn: _Connection, message: dict) -> None:
        payload = json.dumps(message, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        conn.send_buffer += _LENGTH.pack(len(payload)) + payload

    def _send_error(self, conn: _Connection, reason: str) -> None:
        self._queue_reply(conn, {"type": "error", "reason": reason})
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        while conn.send_buffer:
            try:
                sent = conn.sock.send(bytes(conn.send_buffer))
            except BlockingIOError:
                break
            except OSError:
                self._close_connection(conn)
                return
            if sent == 0:
                break
            del conn.send_buffer[:sent]
        self._update_events(conn)

    def _update_events(self, conn: _Connection) -> None:
        wanted = selectors.EVENT_READ
        if conn.send_buffer:
            wanted |= selectors.EVENT_WRITE
        if wanted != conn.events:
            conn.events = wanted
            try:
                self._selector.modify(conn.sock, wanted, conn)
            except (KeyError, ValueError, OSError):
                pass                # already unregistered / closing

    # -- deadlines and housekeeping ------------------------------------

    def _sweep_deadlines(self) -> None:
        now = time.monotonic()
        for conn in list(self._connections.values()):
            if conn.deadline is None or now < conn.deadline:
                continue
            if conn.closing:
                self._close_connection(conn)    # flush grace expired
                continue
            # slow-loris / stalled peer: evict the connection, the
            # tenant session (if any) survives in the manager
            self.evicted_connections += 1
            self._queue_reply(conn, {
                "type": "error",
                "reason": "read deadline exceeded; evicting connection "
                          "(tenant state is kept)"})
            conn.closing = True
            conn.deadline = now + _CLOSE_GRACE_S
            self._flush(conn)
            if conn.sock in self._connections and not conn.send_buffer:
                self._close_connection(conn)

    def service_actions(self) -> None:
        """Housekeeping every loop tick: idle-tenant eviction."""
        if self.idle_evict_s > 0:
            for name in self.manager.evict_idle(self.idle_evict_s):
                _log.info("evicted idle tenant %s (checkpointed)", name)

    def _close_connection(self, conn: _Connection) -> None:
        if self._connections.pop(conn.sock, None) is None:
            return
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass                    # selector already closed / gone
        try:
            conn.sock.close()
        except OSError:
            pass                    # peer already reset the socket

    def _wake(self) -> None:
        try:
            self._waker_send.send(b"\0")
        except (BlockingIOError, OSError):
            pass                    # waker full or loop torn down: the
            #                         poll-interval tick picks it up

    def _drain_waker(self) -> None:
        try:
            while self._waker_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass                    # drained (or torn down mid-read)

    # -- status, shutdown, teardown ------------------------------------

    def status(self) -> dict:
        """The manager's health document plus daemon-level state."""
        return dict(self.manager.status(),
                    draining=self.draining,
                    evicted_connections=self.evicted_connections,
                    connections=len(self._connections),
                    address=list(self.address))

    def shutdown(self) -> None:
        """Stop the serve loop; blocks until it has exited."""
        self._shutdown_request = True
        self._wake()
        self._stopped.wait()

    def request_shutdown(self, drain: bool = True) -> None:
        """Stop the serve loop without blocking the caller.

        ``shutdown()`` blocks until ``serve_forever`` exits, which
        never happens from inside the loop (or a dispatcher thread) —
        so the stop is issued from a helper thread, which :meth:`close`
        joins so nothing is fire-and-forget.  ``drain`` marks the
        daemon draining (new hellos and frames are refused) and asks
        the owner of the serve loop to run :meth:`drain` before
        closing, which is exactly what ``repro serve`` does.
        """
        self.draining = self.draining or drain
        self.drain_requested = self.drain_requested or drain
        if self._shutdown_thread is None:
            self._shutdown_thread = threading.Thread(target=self.shutdown,
                                                     daemon=True)
            self._shutdown_thread.start()

    def drain(self, timeout: Optional[float] = None) -> dict:
        """Finish in-flight batches, checkpoint every tenant, compact.

        Safe to call after ``serve_forever`` has returned (the CLI
        path) or while it still runs (the daemon refuses new work once
        ``draining`` is set).  Returns the manager's drain summary.
        """
        self.draining = True
        summary = self.manager.drain(timeout)
        _log.info("drained: %d tenant(s) checkpointed, %d journal "
                  "entries compacted away", len(summary["checkpointed"]),
                  summary["compacted_entries"])
        return summary

    def server_close(self) -> None:
        """Close every socket — and nothing else.

        The kill-resume tests call this directly as SIGKILL: the
        manager and its journal must stay untouched so a new daemon
        can resume from the on-disk checkpoints.
        """
        if self._closed:
            return
        self._closed = True
        for conn in list(self._connections.values()):
            self._close_connection(conn)
        for sock in (self._listener, self._waker_recv, self._waker_send):
            try:
                sock.close()
            except OSError:
                pass                # already closed
        try:
            self._selector.close()
        except OSError:
            pass                    # selector backend already gone
        self._executor.shutdown(wait=False, cancel_futures=True)

    def close(self, *, close_tenants: bool = True) -> None:
        """Deterministic teardown: join the stopper, close sockets+manager.

        ``close_tenants=False`` is the drained-shutdown path: tenants
        stay open in the journal for a later ``--resume``.
        """
        if self._shutdown_thread is not None:
            self._shutdown_thread.join(timeout=5.0)
            self._shutdown_thread = None
        self.server_close()
        self.manager.close(close_tenants=close_tenants)

    def __enter__(self) -> "ServeDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
