"""Seeded TCP chaos proxy: network faults for the serve wire protocol.

The robustness layer injects *batch-level* faults (NaN pixels, constant
frames) into adaptation streams; this module extends the same seeded
fault grammar to the *network and lifecycle* layer.  :class:`ChaosProxy`
is an in-process TCP proxy that sits between a
:class:`~repro.serve.client.ServeClient` and a
:class:`~repro.serve.daemon.ServeDaemon` and mangles the client→server
byte stream on a deterministic schedule, reproducing the failure modes
a long-lived edge deployment actually sees: mid-frame disconnects,
partial writes, stalled and dribbling senders, truncated frames, and
malformed garbage.

The schedule reuses :class:`~repro.robustness.faults.FaultSpec` /
:class:`~repro.robustness.faults.FaultSchedule` verbatim over its own
namespace, the network taxonomy below: :func:`parse_network_fault_specs`
reads ``"disconnect:0.1"``, ``"truncate@2+5"`` and friends in the fault
grammar (:mod:`repro.grammar`), and neither namespace accepts the other's
names.  Fault indices count *client→server protocol messages through the
proxy* (the ``hello`` is message 0), across all connections, so a
retried message consumes the next index.

Network fault taxonomy (``NETWORK_FAULT_NAMES``):

- ``disconnect`` — forward the frame intact, then sever the client
  connection before the reply can arrive.  The server *applies* the
  operation; the client must retry; only chunk-dedupe on the daemon
  keeps the retry from double-applying adaptation.
- ``truncate`` — forward the length prefix and a strict prefix of the
  payload, then sever both sides.  The server sees a mid-message EOF
  (the op is *not* applied); the client must retry.
- ``split`` — deliver the frame one header byte at a time and the
  payload in tiny chunks with pauses: the slow-but-honest sender every
  ``recv`` loop must tolerate.
- ``delay`` — stall the whole frame by ``delay_s`` before forwarding
  (raise it past the daemon's ``io_timeout`` to exercise slow-loris
  eviction).
- ``garbage`` — replace the frame with seeded random bytes (top bit of
  the bogus length prefix forced on, so the daemon refuses it as
  oversized instead of waiting for gigabytes) and sever both sides.

Usage::

    specs = parse_network_fault_specs("disconnect@2,truncate@5")
    with ChaosProxy(daemon_host, daemon_port, specs, seed=7) as proxy:
        client = ServeClient.connect(*proxy.address, retries=8)
        ...
    proxy.events     # [FaultEvent(batch_index=2, fault="disconnect"), ...]

The proxy is deliberately one-way-chaotic: server→client bytes are
relayed verbatim (a ``disconnect``/``truncate``/``garbage`` still kills
the relay, losing the in-flight reply — which is the point).
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.robustness.faults import (
    FaultEvent,
    FaultSchedule,
    FaultSpec,
    check_fault_names,
    parse_fault_specs,
)

#: the network fault taxonomy, in severity-of-mangling order
NETWORK_FAULT_NAMES = ("disconnect", "delay", "truncate", "split",
                       "garbage")

_LENGTH = struct.Struct(">I")

#: bytes of seeded noise a ``garbage`` fault sends upstream
_GARBAGE_BYTES = 32


def parse_network_fault_specs(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a comma-separated chaos spec string (CLI ``--chaos``).

    Same grammar as batch fault specs, over the network taxonomy, so a
    typo'd ``nan:0.2`` fails loudly here instead of silently never
    firing in the proxy.
    """
    return parse_fault_specs(text, NETWORK_FAULT_NAMES, "network")


def _read_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF (clean or mid-read)."""
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _Relay:
    """One proxied connection: client socket, upstream socket, pumps."""

    def __init__(self, client: socket.socket,
                 upstream: socket.socket) -> None:
        self.client = client
        self.upstream = upstream
        self._closed = threading.Lock()   # close-once guard

    def close(self) -> None:
        if not self._closed.acquire(blocking=False):
            return
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass        # peer already gone; closing is what matters
            try:
                sock.close()
            except OSError:
                pass        # double-close race with the other pump


class ChaosProxy:
    """A seeded fault-injecting TCP proxy in front of a serve daemon.

    Parameters
    ----------
    upstream_host, upstream_port:
        The real daemon to forward to.
    specs:
        :class:`FaultSpec` sequence over :data:`NETWORK_FAULT_NAMES`
        (e.g. from :func:`parse_network_fault_specs`).
    seed:
        Seeds both the fault schedule and the ``garbage`` noise, so a
        chaos run is reproducible message-for-message.
    delay_s:
        Stall duration of the ``delay`` fault.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 specs: Sequence[FaultSpec], *, seed: int = 0,
                 delay_s: float = 0.2,
                 listen_host: str = "127.0.0.1") -> None:
        check_fault_names(specs, NETWORK_FAULT_NAMES, "network")
        self.upstream = (upstream_host, upstream_port)
        self.schedule = FaultSchedule(specs, seed=seed)
        self.delay_s = delay_s
        self.events: List[FaultEvent] = []
        self._lock = threading.Lock()       # schedule + events + relays
        self._message_index = 0
        self._relays: List[_Relay] = []
        self._threads: List[threading.Thread] = []
        self._closing = False
        self._listener: Optional[socket.socket] = None
        self._listen_host = listen_host

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The proxy's bound ``(host, port)`` — point clients here."""
        if self._listener is None:
            raise RuntimeError("proxy is not started")
        name = self._listener.getsockname()
        return name[0], name[1]

    @property
    def faults_injected(self) -> int:
        with self._lock:
            return len(self.events)

    def start(self) -> "ChaosProxy":
        if self._listener is not None:
            raise RuntimeError("proxy already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._listen_host, 0))
        listener.listen()
        self._listener = listener
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        with self._lock:
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Close the listener and every live relay; join the pumps."""
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass        # already closed by a failed accept
        with self._lock:
            relays = list(self._relays)
            threads = list(self._threads)
        for relay in relays:
            relay.close()
        for thread in threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- accept / pump machinery ---------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return          # listener closed: shutting down
            try:
                upstream = socket.create_connection(self.upstream,
                                                    timeout=10.0)
            except OSError:
                client.close()
                continue
            relay = _Relay(client, upstream)
            forward = threading.Thread(target=self._pump_requests,
                                       args=(relay,), daemon=True)
            backward = threading.Thread(target=self._pump_replies,
                                        args=(relay,), daemon=True)
            with self._lock:
                self._relays.append(relay)
                self._threads.extend((forward, backward))
            forward.start()
            backward.start()

    def _pump_replies(self, relay: _Relay) -> None:
        """Server→client: verbatim byte relay (no injected chaos)."""
        while True:
            try:
                data = relay.upstream.recv(1 << 16)
            except OSError:
                break
            if not data:
                break
            try:
                relay.client.sendall(data)
            except OSError:
                break
        relay.close()

    def _pump_requests(self, relay: _Relay) -> None:
        """Client→server: frame-aware forwarding with injected faults."""
        while True:
            header = _read_exact(relay.client, _LENGTH.size)
            if header is None:
                break
            (length,) = _LENGTH.unpack(header)
            payload = _read_exact(relay.client, length)
            if payload is None:
                break
            with self._lock:
                index = self._message_index
                self._message_index += 1
                fault = self.schedule.fault_for(index)
                if fault:
                    self.events.append(
                        FaultEvent(batch_index=index, fault=fault))
            try:
                if not self._inject(relay, fault, index, header, payload):
                    break
            except OSError:
                break
        relay.close()

    def _inject(self, relay: _Relay, fault: str, index: int,
                header: bytes, payload: bytes) -> bool:
        """Forward one frame under ``fault``; False ends the relay."""
        if fault == "disconnect":
            # applied server-side, reply lost: the retry-dedupe case
            relay.upstream.sendall(header + payload)
            relay.close()
            return False
        if fault == "truncate":
            # mid-message EOF server-side: *not* applied
            keep = max(1, len(payload) // 2)
            relay.upstream.sendall(header + payload[:keep])
            relay.close()
            return False
        if fault == "garbage":
            relay.upstream.sendall(self._garbage(index))
            relay.close()
            return False
        if fault == "delay":
            time.sleep(self.delay_s)
            relay.upstream.sendall(header + payload)
            return True
        if fault == "split":
            for byte in header:
                relay.upstream.sendall(bytes([byte]))
                time.sleep(0.001)
            for start in range(0, len(payload), 7):
                relay.upstream.sendall(payload[start:start + 7])
                time.sleep(0.001)
            return True
        relay.upstream.sendall(header + payload)
        return True

    def _garbage(self, index: int) -> bytes:
        """Seeded noise whose bogus length prefix is always oversized."""
        rng = np.random.default_rng(
            np.random.SeedSequence((self.schedule.seed, index)))
        noise = bytearray(rng.integers(0, 256, _GARBAGE_BYTES,
                                       dtype=np.uint8).tobytes())
        noise[0] |= 0x80        # declared length >= 2 GiB: refused, not read
        return bytes(noise)
