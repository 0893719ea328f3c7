"""The server core casd and cas-resourced share.

It owns the listening socket and the thread that serves it, gives every
accepted connection an idle timeout, logs handshakes that fail, refuses
every message once the peer's credential has expired, answers a message
type the subclass has no handler for with BadRequest, and turns whatever
a handler raises into the reply the protocol defines for it. An exception
that is not a CasError is the server's own fault: it is logged with its
traceback and answered ``internal``, and the session stays open. A
subclass supplies ``handlers`` and ``_handle_connection(sock)``, which
runs the handshake (a CasError escaping it is logged as a rejected
handshake) and then serves messages through ``_reply``. Peers' chains are
verified against the ``trust_store`` the server is given.
"""

from __future__ import annotations

import logging
import socketserver
import threading
from typing import Any, Callable

from ..credential.certs import CertificateChain
from ..credential.verify import EnforcementContext, VerifiedSubject
from ..errors import BadRequest, CasError, Refused, TransportError
from ..policy.model import LANGUAGE

SESSION_TIMEOUT = 30.0


class AuthenticatedServer:
    """A threaded TCP server speaking the mutually authenticated protocol."""

    name: str  # the serving thread's name and the start-up log line's
    logger: logging.Logger
    # The ERROR reasons this server's protocol defines, ``expired`` among
    # them. A failure whose reason is not among them is the server's own
    # fault: ``internal``.
    error_reasons: frozenset[str]
    # Each message type answered, with the function taking (self, message, subject).
    handlers: dict[str, Callable[..., dict[str, str]]]

    def __init__(self, chain: CertificateChain, leaf_key: Any, trust_store,
                 listen: tuple[str, int], clock: Callable[[], int]):
        self._chain = chain
        self._leaf_key = leaf_key
        self._trust_store = tuple(trust_store)
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

        try:
            self._tcp = tcp = Server(self._listen, Handler)
        except OSError as exc:
            raise TransportError(
                f"cannot listen on {self._listen[0]}:{self._listen[1]}: {exc}") from None
        self._thread = threading.Thread(
            target=lambda: tcp.serve_forever(poll_interval=0.05),
            name=self.name, daemon=True)
        self._thread.start()
        self.logger.info("%s listening on %s:%s", self.name, *self.address)
        return self

    def serve_forever(self) -> None:
        """Serve until SIGINT, the signal that stops a server, interrupts the wait.

        Call ``start`` first.
        """
        try:
            self._thread.join()
        except KeyboardInterrupt:
            pass

    def shutdown(self) -> None:
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
            self._tcp = None

    # --- message handling ------------------------------------------------------

    def _reply(self, message: dict[str, str],
               subject: VerifiedSubject) -> dict[str, str]:
        kind = message["msg"]
        try:
            # Validity was checked at the handshake; a session may outlive it.
            subject.effective_validity.check(self._clock())
            handler = self.handlers.get(kind)
            if handler is None:
                raise BadRequest(f"no message type {kind!r}")
            return handler(self, message, subject)
        except CasError as exc:
            self.logger.info("%s from %s failed: %s", kind, subject.identity, exc)
            return self.failure_reply(exc)
        except Exception as exc:
            self.logger.exception("%s from %s failed", kind, subject.identity)
            return self.failure_reply(CasError(str(exc)))

    @classmethod
    def failure_reply(cls, exc: CasError) -> dict[str, str]:
        """The reply for a request that failed with ``exc``."""
        if isinstance(exc, Refused):
            return {"msg": "DENIED", "reason": exc.reason}
        reason = exc.reason if exc.reason in cls.error_reasons else "internal"
        return {"msg": "ERROR", "reason": reason}
