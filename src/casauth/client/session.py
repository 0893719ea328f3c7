"""Authenticated client sessions over the framed protocol."""

from __future__ import annotations

import socket
from typing import Any, Callable

from ..clocks import system_clock
from ..credential.certs import CertificateChain
from ..credential.verify import EnforcementContext, VerifiedSubject
from ..errors import TransportError
from ..wire.frames import read_message, send_message
from ..wire.handshake import client_handshake

CONNECT_TIMEOUT = 10.0


class ClientSession:
    """One connection: handshake first, then request/response pairs.

    A session is single-threaded (one request in flight); open one session
    per concurrent task instead of sharing.
    """

    def __init__(self, endpoint: tuple[str, int], chain: CertificateChain,
                 leaf_key: Any, trust_store, *,
                 clock: Callable[[], int] = system_clock):
        self._endpoint = endpoint
        self._chain = chain
        self._leaf_key = leaf_key
        self._trust_store = tuple(trust_store)
        self._clock = clock
        self._sock: socket.socket | None = None
        self.peer: VerifiedSubject | None = None

    def connect(self) -> "ClientSession":
        try:
            self._sock = socket.create_connection(self._endpoint, CONNECT_TIMEOUT)
            self._sock.settimeout(CONNECT_TIMEOUT)
        except OSError as exc:
            raise TransportError(f"cannot connect to {self._endpoint}: {exc}") from None
        try:
            self.peer = client_handshake(self._sock, self._chain, self._leaf_key,
                                         self._trust_store, self._clock(),
                                         EnforcementContext())
        except BaseException:
            self.close()
            raise
        return self

    def request(self, fields: dict[str, str]) -> dict[str, str]:
        if self._sock is None:
            raise TransportError("session not connected")
        send_message(self._sock, fields)
        reply = read_message(self._sock)
        if reply is None:
            raise TransportError("server closed the connection")
        return reply

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ClientSession":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
