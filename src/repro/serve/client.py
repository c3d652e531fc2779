"""Client for the serve daemon: typed calls over the wire protocol.

:class:`ServeClient` wraps one TCP connection to a
:class:`~repro.serve.daemon.ServeDaemon` with methods mirroring the
protocol's message types — ``hello`` / ``send_frames`` / ``scorecard``
/ ``status`` / ``close_tenant`` / ``shutdown`` — decoding replies into
plain values (:class:`~repro.core.streaming.StreamScorecard` for
scorecards) and raising :class:`ServeError` when the daemon answers
``error``.  The ``connect`` constructor retries the TCP connect with a
deadline, which is how the CI smoke job and kill-resume tests wait for
a freshly spawned daemon to come up without racing it.

Fault tolerance (what the chaos proxy of :mod:`repro.serve.chaos`
exercises):

- every call runs under ``call_timeout``; a stalled daemon raises the
  typed :class:`ServeTimeoutError` instead of a bare ``socket.timeout``;
- with ``retries > 0``, *transient* failures — timeouts, severed
  connections, broken reply framing — trigger a bounded, seeded
  exponential backoff (the resilience layer's
  :class:`~repro.core.executor.RetryPolicy`), a reconnect, a
  re-``hello`` of the remembered tenant spec, and a re-send of the
  exact same message.  Frame chunks carry a monotonically increasing
  ``chunk`` index keyed to the tenant, and the daemon deduplicates
  re-sends, so a ``frames`` call severed *after* the server applied it
  is acknowledged as a duplicate rather than adapted twice.  Error
  *replies* (the daemon deliberately refusing) are never retried.
"""

from __future__ import annotations

import socket
import time
from dataclasses import asdict
from typing import Optional

import numpy as np

from repro.core.streaming import StreamScorecard
from repro.core.executor import RetryPolicy
from repro.serve import protocol
from repro.serve.checkpoint import encode_array
from repro.serve.manager import TenantSpec


class ServeError(RuntimeError):
    """The daemon refused a request (its ``error`` reply's reason)."""


class ServeTimeoutError(ServeError):
    """A call exceeded its deadline (``call_timeout``)."""


class ServeDisconnectedError(ServeError):
    """The connection died mid-call (EOF, reset, broken reply framing).

    Transient by definition: with ``retries > 0`` the client reconnects
    and re-sends; without retries it surfaces so the caller can.
    """


class ServeClient:
    """One connection to a serve daemon, one tenant at a time.

    ``retries``/``backoff_base``/``seed`` configure the bounded seeded
    retry described in the module docstring; ``retries=0`` (default)
    preserves fail-fast behavior.
    """

    def __init__(self, sock: socket.socket, *,
                 host: Optional[str] = None, port: Optional[int] = None,
                 call_timeout: float = 30.0, retries: int = 0,
                 backoff_base: float = 0.05, seed: int = 0) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self._sock = sock
        self._host = host
        self._port = port
        self.call_timeout = call_timeout
        self.retries = retries
        self._policy = RetryPolicy(max_retries=retries,
                                   backoff_base=backoff_base, seed=seed)
        self._spec: Optional[TenantSpec] = None
        self._next_chunk = 0
        #: wall time of the last completed call, retries included —
        #: what the load generator records as per-request latency
        self.last_rtt_s: Optional[float] = None

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 10.0,
                **kwargs) -> "ServeClient":
        """Connect, retrying until ``timeout`` (daemon may still be
        binding — the spawn-then-connect race every smoke test has).

        Keyword arguments are forwarded to the constructor
        (``call_timeout``, ``retries``, ``backoff_base``, ``seed``).
        """
        call_timeout = kwargs.get("call_timeout", 30.0)
        deadline = time.monotonic() + timeout
        while True:
            try:
                sock = socket.create_connection((host, port),
                                                timeout=call_timeout)
                return cls(sock, host=host, port=port, **kwargs)
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    # -- transport -----------------------------------------------------

    def _call_once(self, message: dict, expect: str,
                   timeout: float) -> dict:
        self._sock.settimeout(timeout if timeout > 0 else None)
        try:
            protocol.send_message(self._sock, message)
            reply = protocol.recv_message(self._sock)
        except socket.timeout:
            raise ServeTimeoutError(
                f"no {expect!r} reply within {timeout}s") from None
        except protocol.ProtocolError as error:
            raise ServeDisconnectedError(
                f"broken reply stream: {error}") from None
        except OSError as error:
            raise ServeDisconnectedError(
                f"connection failed mid-call: {error}") from None
        if reply is None:
            raise ServeDisconnectedError("daemon closed the connection")
        if reply.get("type") == "error":
            raise ServeError(reply.get("reason", "unspecified error"))
        if reply.get("type") != expect:
            raise ServeError(
                f"expected {expect!r} reply, got {reply.get('type')!r}")
        return reply

    def _reconnect(self, message: dict, timeout: float) -> None:
        if self._host is None or self._port is None:
            raise ServeDisconnectedError(
                "connection lost and no (host, port) to reconnect to")
        try:
            self._sock.close()
        except OSError:
            pass        # already torn down; reconnect proceeds anyway
        self._sock = socket.create_connection((self._host, self._port),
                                              timeout=timeout)
        if self._spec is not None \
                and message.get("type") not in ("hello", "close"):
            # connections are stateless beyond the handshake: re-attach
            # to the tenant before re-sending the interrupted call.
            # `close` is exempt — it names its tenant explicitly, and a
            # re-hello would re-open a fresh session for a tenant the
            # lost first attempt may already have closed
            self._call_once({"type": "hello",
                             "protocol": protocol.PROTOCOL_VERSION,
                             "spec": asdict(self._spec)},
                            expect="welcome", timeout=timeout)

    def _call(self, message: dict, expect: str, *,
              timeout: Optional[float] = None) -> dict:
        timeout = self.call_timeout if timeout is None else timeout
        key = (f"{self._spec.tenant if self._spec else ''}"
               f":{message.get('type')}:{message.get('chunk', '')}")
        last_error: Exception = ServeDisconnectedError("no attempt ran")
        started = time.monotonic()
        for attempt in range(1, self._policy.attempts + 1):
            if attempt > 1:
                time.sleep(self._policy.backoff_delay(key, attempt - 1))
                try:
                    self._reconnect(message, timeout)
                except (ServeTimeoutError, ServeDisconnectedError,
                        OSError) as error:
                    last_error = error
                    continue
            try:
                reply = self._call_once(message, expect, timeout)
                self.last_rtt_s = time.monotonic() - started
                return reply
            except (ServeTimeoutError, ServeDisconnectedError) as error:
                last_error = error
        raise last_error

    # -- protocol calls ------------------------------------------------

    def hello(self, spec: TenantSpec, *,
              timeout: Optional[float] = None) -> dict:
        """Open (or resume) a tenant; returns the ``welcome`` payload.

        The spec is remembered for transparent re-``hello`` after a
        reconnect, and the chunk numbering of :meth:`send_frames`
        continues from the daemon's last applied index.
        """
        self._spec = spec
        reply = self._call({"type": "hello",
                            "protocol": protocol.PROTOCOL_VERSION,
                            "spec": asdict(spec)}, expect="welcome",
                           timeout=timeout)
        self._next_chunk = int(reply.get("chunk", -1)) + 1
        return reply

    def send_frames(self, images: np.ndarray, labels: np.ndarray,
                    *, faults: int = 0, chunk: Optional[int] = None,
                    timeout: Optional[float] = None) -> dict:
        """Stream a chunk of frames; returns the ``ack`` payload.

        ``faults`` reports how many faults the sender injected into
        this chunk, so the daemon's scorecard can account for them.
        ``chunk`` defaults to the client's own monotonically increasing
        send index (seeded from the ``welcome`` reply), which is what
        makes a retried send idempotent server-side; pass it explicitly
        only to replay or test.
        """
        index = self._next_chunk if chunk is None else int(chunk)
        reply = self._call({"type": "frames",
                            "images": encode_array(np.asarray(images)),
                            "labels": encode_array(np.asarray(labels)),
                            "faults": int(faults),
                            "chunk": index},
                           expect="ack", timeout=timeout)
        if chunk is None:
            self._next_chunk = index + 1
        return reply

    def scorecard(self, *,
                  timeout: Optional[float] = None) -> StreamScorecard:
        """The tenant's current scorecard."""
        reply = self._call({"type": "scorecard"}, expect="scorecard",
                           timeout=timeout)
        return protocol.scorecard_from_dict(reply["scorecard"])

    def status(self, *, timeout: Optional[float] = None) -> dict:
        """The daemon's health document (allowed before ``hello``)."""
        return self._call({"type": "status"}, expect="status",
                          timeout=timeout)

    def close_tenant(self, *, restore: bool = False,
                     timeout: Optional[float] = None) -> StreamScorecard:
        """Finish the tenant's stream; returns its final scorecard.

        Safe to retry: the daemon records final scorecards, so a
        re-sent ``close`` whose first reply was lost returns the same
        scorecard instead of "unknown tenant".
        """
        message = {"type": "close", "restore": restore}
        if self._spec is not None:
            message["tenant"] = self._spec.tenant
        reply = self._call(message, expect="closed", timeout=timeout)
        return protocol.scorecard_from_dict(reply["scorecard"])

    def shutdown(self, *, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Ask the daemon to stop serving (acknowledged with ``bye``).

        ``drain=True`` (default) has the daemon checkpoint every tenant
        and compact its journal before the process exits.
        """
        self._call({"type": "shutdown", "drain": drain}, expect="bye",
                   timeout=timeout)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
