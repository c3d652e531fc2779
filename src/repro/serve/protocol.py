"""Length-prefixed JSON wire protocol of the serve daemon.

Every message is one JSON object (UTF-8) preceded by a 4-byte
big-endian byte length.  Length-prefix framing keeps the protocol
trivially parseable from any language while letting frame tensors ride
inside messages via the same base64 array encoding the checkpoints use
(:mod:`repro.serve.checkpoint`) — bit-exact, no separate binary channel.

Client -> server message types (all carry ``"type"``):

- ``hello``     — open/attach a tenant: ``tenant``, ``spec`` (the
  :class:`~repro.serve.manager.TenantSpec` fields), ``protocol``;
- ``frames``    — a chunk of stream frames: ``images``, ``labels``
  (encoded arrays) plus optional ``faults`` (how many faults the sender
  injected into the chunk — faults happen client-side, at the edge) and
  optional ``chunk`` (a monotonically increasing per-tenant send index:
  a re-send of an already-applied chunk is acknowledged without being
  re-applied, which is what makes client retry after a severed
  connection idempotent); the server coalesces the frames into
  adaptation batches;
- ``scorecard`` — request the tenant's current scorecard;
- ``status``    — request daemon health (administrative, allowed before
  ``hello``): per-tenant counters, journal stats, drain state;
- ``close``     — finish the tenant's stream: ``restore`` (bool) picks
  whether the tenant model reverts to its source state;
- ``shutdown``  — stop the whole daemon (administrative); optional
  ``drain`` (default true) checkpoints every tenant and compacts the
  journal before the process exits.

Server -> client:

- ``welcome``   — hello accepted: ``resumed``, ``batches_done``,
  ``chunk`` (the last applied send index, -1 when none — the client
  numbers its next ``frames`` from there);
- ``ack``       — frames ingested: ``accepted``, ``dropped`` (admission
  control), ``duplicate`` (an already-applied chunk was re-sent and
  skipped), ``batches_done``, and the live guard counters;
- ``scorecard`` — the serialized scorecard;
- ``status``    — the daemon health document;
- ``closed``    — stream finished, final ``scorecard`` attached;
- ``bye``       — shutdown acknowledged;
- ``error``     — request refused: ``reason`` (the connection stays up
  whenever the frame itself was well-formed; see the exception
  hierarchy below for when it cannot).
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import asdict
from typing import Optional

from repro.scenarios.metrics import StreamScorecard

#: protocol version a ``hello`` must declare
PROTOCOL_VERSION = 1

#: refuse messages larger than this (corrupt length prefix / abuse)
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ValueError):
    """A wire message that violates the framing or schema."""


class FrameTooLargeError(ProtocolError):
    """A declared frame length above the cap.

    Raised *before* any payload byte is read, so the payload is still
    on the wire: a receiver that wants to keep the connection up must
    read and discard the declared length first (the daemon's event loop
    skips it as it streams in).
    """

    def __init__(self, length: int, limit: int) -> None:
        super().__init__(
            f"declared message length {length} exceeds the "
            f"{limit}-byte limit")
        self.length = length
        self.limit = limit


class PayloadError(ProtocolError):
    """A complete, correctly-framed payload that is not a usable message.

    The frame was consumed exactly, so the connection's framing is
    intact and the receiver may keep serving it after an ``error``
    reply — unlike a bare :class:`ProtocolError`, which means the byte
    stream itself is broken (mid-message EOF, desynced framing).
    """


def send_message(sock: socket.socket, message: dict) -> None:
    """Frame and send one JSON message (length prefix + payload)."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at a boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError("connection closed mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket,
                 max_bytes: int = MAX_MESSAGE_BYTES) -> Optional[dict]:
    """Receive one framed message; ``None`` when the peer closed cleanly.

    ``max_bytes`` is the frame-size cap (tests shrink it to exercise
    the oversized-frame path without shipping 64 MB).  An oversized
    declared length raises :class:`FrameTooLargeError` before reading
    the payload; a framed-but-undecodable payload raises
    :class:`PayloadError` after consuming the frame exactly.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise FrameTooLargeError(length, max_bytes)
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise PayloadError(f"undecodable message payload: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise PayloadError("message must be a JSON object with a 'type'")
    return message


def scorecard_to_dict(card: StreamScorecard) -> dict:
    """A scorecard as a JSON-safe dict (all fields are JSON scalars)."""
    return asdict(card)


def scorecard_from_dict(payload: dict) -> StreamScorecard:
    """Inverse of :func:`scorecard_to_dict` (strict about fields)."""
    return StreamScorecard(**payload)
