"""Reference file-resource server.

One post-handshake message type:

    FILE-OP  action: read|write|list  path: </object/name>
             [service: <type>]        [data: <hex>]

Replies: OK (``data`` for read, newline-joined names for list), DENIED
(always just ``reason: denied``; the grant table must not leak through
error detail), or ERROR with a machine reason. The handshake runs with
willingness to enforce restrictions, so capabilities verify here and
their policies bound what the bearer can do. Both policies are checked
against the canonical object name, the one storage opens, so dot
segments cannot reach past what they allow.
"""

from __future__ import annotations

import logging
import socket
from pathlib import Path
from typing import Any, Callable

from ..clocks import system_clock
from ..credential.certs import CertificateChain
from ..policy.engine import EvaluatorRegistry
from ..policy.model import Request
from ..wire.frames import serve_messages
from ..wire.handshake import server_handshake
from ..wire.server import AuthenticatedServer
from .authz import LocalGrantTable, ServiceRegistry, authorize
from .storage import VirtualRoot, canonical_name, handle_file_op


class ResourceServer(AuthenticatedServer):
    """Serves a virtual root under two-sided authorization."""

    name = "resourced"
    logger = logging.getLogger("casauth.resourced")
    error_reasons = frozenset({"not-found", "is-directory", "not-directory",
                               "path-escape", "io", "parse", "expired"})

    def __init__(self, table: LocalGrantTable, root: Path | str,
                 chain: CertificateChain, leaf_key: Any,
                 *, listen: tuple[str, int] = ("127.0.0.1", 0),
                 trust_store=None,
                 clock: Callable[[], int] = system_clock):
        super().__init__(chain, leaf_key, listen, clock)
        self._table = dict(table)
        self._root = VirtualRoot(Path(root))
        self._trust_store = tuple(trust_store or ())
        self._registry = ServiceRegistry()
        self._evaluators = EvaluatorRegistry()

    def set_grant_table(self, table: LocalGrantTable) -> None:
        """Swap the grant table (reference assignment, safe mid-session)."""
        self._table = dict(table)

    def _handle_connection(self, sock: socket.socket) -> None:
        subject = server_handshake(sock, self._chain, self._leaf_key,
                                   self._trust_store, self._ctx, self._clock())
        serve_messages(sock, lambda message: self._reply(message, subject))

    def _dispatch(self, message, subject) -> dict[str, str]:
        if message["msg"] != "FILE-OP":
            return {"msg": "ERROR", "reason": "bad-request"}
        try:
            action = message.get("action", "")
            path = message.get("path", "")
            service = message.get("service", "file")
            payload = bytes.fromhex(message["data"]) if "data" in message else None
            req = Request(service, action, canonical_name(path))
        except ValueError:
            return {"msg": "ERROR", "reason": "parse"}

        if not authorize(self._table, subject, self._registry, req,
                         self._evaluators).is_permit:
            self.logger.info("denied %s %s for %s", action, req.object, subject.identity)
            return {"msg": "DENIED", "reason": "denied"}
        # storage writes a temp file and renames it over the name, so
        # concurrent writes and reads of one name need no lock here
        result = handle_file_op(self._root, req, payload)

        reply = {"msg": "OK"}
        if action == "read":
            reply["data"] = result.hex()
        elif action == "list":
            reply["data"] = "\n".join(result).encode("utf-8").hex()
        return reply
