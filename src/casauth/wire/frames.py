"""Length-prefixed frames carrying ``key: value`` messages.

A frame is a 4-byte big-endian payload length followed by a UTF-8 payload
of ``key: value`` lines; the first line is always ``msg: <TYPE>``. Both
servers and the client library speak exactly this.
"""

from __future__ import annotations

import socket
import struct
from typing import Mapping

from ..errors import ParseError, ProtocolError, TransportError
from ..lines import is_key, is_line, join_lines, key_values, nonnegative_int, split_lines

MAX_FRAME_BYTES = 16 * 1024 * 1024


def split_endpoint(endpoint: str) -> tuple[str, int]:
    """``host:port`` with a decimal port from 0 to 65535."""
    host, sep, port = endpoint.rpartition(":")
    try:
        if sep and (number := nonnegative_int(port)) <= 65535:
            return host, number
    except ValueError:
        pass
    raise ParseError(f"endpoint must be host:port, got {endpoint!r}")


def encode_message(fields: Mapping[str, str]) -> bytes:
    if "msg" not in fields or not fields["msg"]:
        raise ProtocolError("message needs a nonempty 'msg' field")
    lines = [f"msg: {fields['msg']}"]
    for key, value in fields.items():
        if key == "msg":
            continue
        if not is_key(key):
            raise ProtocolError(f"bad message key {key!r}")
        lines.append(f"{key}: {value}")
    if not all(map(is_line, lines)):
        raise ProtocolError("every message field must be one UTF-8 line")
    payload = join_lines(lines)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError("frame too large")
    return struct.pack(">I", len(payload)) + payload


def decode_payload(payload: bytes) -> dict[str, str]:
    try:
        fields = key_values(split_lines(payload))
    except ParseError as exc:
        raise ProtocolError(str(exc)) from None
    if not fields or next(iter(fields)) != "msg" or not fields["msg"]:
        raise ProtocolError("first line must be 'msg: <TYPE>'")
    return fields


def send_message(sock: socket.socket, fields: Mapping[str, str]) -> None:
    try:
        sock.sendall(encode_message(fields))
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from None


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read n bytes; None on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            raise TransportError("read timed out") from None
        except OSError as exc:
            raise TransportError(f"read failed: {exc}") from None
        if not chunk:
            if not chunks:
                return None
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(sock: socket.socket) -> dict[str, str] | None:
    """Read one message; None on orderly EOF between frames.

    Raises TransportError for connection problems (including oversized
    frames, which cannot be resynchronized) and ProtocolError for payloads
    that do not parse (the connection stays usable).
    """
    header = _read_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise TransportError(f"unacceptable frame length {length}")
    payload = _read_exact(sock, length)
    if payload is None:
        raise TransportError("connection closed mid-frame")
    return decode_payload(payload)


def serve_messages(sock: socket.socket, dispatch) -> None:
    """Server-side request/response loop over one authenticated connection.

    A payload that does not parse earns ERROR/parse and the loop continues;
    EOF and transport failures end it.
    """
    while True:
        try:
            message = read_message(sock)
        except ProtocolError:
            try:
                send_message(sock, {"msg": "ERROR", "reason": "parse"})
            except TransportError:
                return
            continue
        except TransportError:
            return
        if message is None:
            return
        try:
            send_message(sock, dispatch(message))
        except TransportError:
            return
