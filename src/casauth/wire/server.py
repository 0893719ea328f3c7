"""The server core casd and cas-resourced share.

It owns the listening socket and the thread that serves it, gives every
accepted connection an idle timeout, logs handshakes that fail, and turns
a CasError raised while handling a message into the reply the protocol
defines for it. A subclass supplies ``_handle_connection(sock)``, which
runs the handshake (a CasError escaping it is logged as a rejected
handshake) and then serves messages through ``_reply``, and
``_dispatch(message, subject)``, which answers one authenticated message.
"""

from __future__ import annotations

import logging
import socketserver
import threading
from typing import Any, Callable

from ..credential.certs import CertificateChain
from ..credential.verify import EnforcementContext, VerifiedSubject
from ..errors import CasError, Refused
from ..policy.model import LANGUAGE

SESSION_TIMEOUT = 30.0


class AuthenticatedServer:
    """A threaded TCP server speaking the mutually authenticated protocol."""

    name: str  # the serving thread's name and the start-up log line's
    logger: logging.Logger
    # The ERROR reasons this server's protocol defines. A failure whose
    # reason is not among them is the server's own fault: ``internal``.
    error_reasons: frozenset[str]

    def __init__(self, chain: CertificateChain, leaf_key: Any,
                 listen: tuple[str, int], clock: Callable[[], int]):
        self._chain = chain
        self._leaf_key = leaf_key
        self._listen = listen
        self._clock = clock
        self._ctx = EnforcementContext(True, frozenset({LANGUAGE}))
        self._tcp: socketserver.ThreadingTCPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self._tcp is None:
            raise RuntimeError("server not started")
        return self._tcp.server_address[:2]

    # --- lifecycle -----------------------------------------------------------

    def start(self):
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):  # noqa: D102
                self.request.settimeout(SESSION_TIMEOUT)
                try:
                    outer._handle_connection(self.request)
                except CasError as exc:
                    outer.logger.info("handshake rejected: %s", exc)

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True

        self._tcp = tcp = Server(self._listen, Handler)
        self._thread = threading.Thread(
            target=lambda: tcp.serve_forever(poll_interval=0.05),
            name=self.name, daemon=True)
        self._thread.start()
        self.logger.info("%s listening on %s:%s", self.name, *self.address)
        return self

    def serve_forever(self) -> None:
        if self._tcp is None:
            self.start()
        assert self._thread is not None
        self._thread.join()

    def shutdown(self) -> None:
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
            self._tcp = None

    # --- message handling ------------------------------------------------------

    def _reply(self, message: dict[str, str],
               subject: VerifiedSubject) -> dict[str, str]:
        try:
            return self._dispatch(message, subject)
        except CasError as exc:
            self.logger.info("%s from %s failed: %s", message["msg"],
                             subject.identity, exc)
            return self.failure_reply(exc)

    @classmethod
    def failure_reply(cls, exc: CasError) -> dict[str, str]:
        """The reply for a request that failed with ``exc``."""
        if isinstance(exc, Refused):
            return {"msg": "DENIED", "reason": exc.reason}
        reason = exc.reason if exc.reason in cls.error_reasons else "internal"
        return {"msg": "ERROR", "reason": reason}
