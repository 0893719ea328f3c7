"""The CAS server: authenticated admin and capability-request dispatch.

Post-handshake message types:

    ADMIN               verb: <verb>   args: <space-separated>
    REQUEST-CAPABILITY  want: all | policy: <hex of policy text>
                        session-pk: <hex>   lifetime: <seconds>

Replies are OK (grant adds ``id``), CAPABILITY (``chain``), DENIED
(``reason``: not-authorized, unknown-actor, denied, not-enrolled,
restricted-chain), or ERROR (``reason``: duplicate-name, unknown-name,
invariant, parse, bad-request, internal). All mutations and every
issuance run under one writer lock, and the snapshot is rewritten after
each mutation, so a crash can lose at most the command being applied.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import Any, Callable

from ..credential.certs import CertificateChain, encode_chain
from ..credential.verify import VerifiedSubject
from ..clocks import system_clock
from ..errors import ParseError, RestrictedAuthRefused
from ..policy.model import ALL
from ..policy.text import parse_policy
from ..wire.frames import serve_messages
from ..wire.handshake import server_handshake
from ..wire.server import AuthenticatedServer
from .admin import AdminCommand, apply_admin
from .db import CommunityDB, save_db
from .issuance import DEFAULT_MAX_LIFETIME, CapabilityIssuer


class CasServer(AuthenticatedServer):
    """Runs the community database behind the authenticated protocol."""

    name = "casd"
    logger = logging.getLogger("casauth.casd")
    error_reasons = frozenset({"duplicate-name", "unknown-name", "invariant", "parse"})

    def __init__(self, db: CommunityDB, chain: CertificateChain, leaf_key: Any,
                 *, listen: tuple[str, int] = ("127.0.0.1", 0),
                 bootstrap_admin: str | None = None,
                 max_lifetime: int = DEFAULT_MAX_LIFETIME,
                 db_path: str | None = None,
                 clock: Callable[[], int] = system_clock):
        super().__init__(chain, leaf_key, listen, clock)
        self._db = db
        self._bootstrap_admin = bootstrap_admin
        self._db_path = db_path
        self._issuer = CapabilityIssuer(chain, leaf_key, max_lifetime)
        self._write_lock = threading.Lock()

    @property
    def db(self) -> CommunityDB:
        return self._db

    def _handle_connection(self, sock: socket.socket) -> None:
        subject = server_handshake(sock, self._chain, self._leaf_key,
                                   self._db.trust_anchors, self._ctx, self._clock())
        serve_messages(sock, lambda message: self._reply(message, subject))

    def _dispatch(self, message: dict[str, str],
                  subject: VerifiedSubject) -> dict[str, str]:
        kind = message["msg"]
        try:
            if kind == "ADMIN":
                return self._handle_admin(message, subject)
            if kind == "REQUEST-CAPABILITY":
                return self._handle_capability(message, subject)
            return {"msg": "ERROR", "reason": "bad-request"}
        except (ValueError, TypeError) as exc:
            self.logger.info("%s from %s malformed: %s", kind, subject.identity, exc)
            return {"msg": "ERROR", "reason": "bad-request"}

    def _handle_admin(self, message: dict[str, str],
                      subject: VerifiedSubject) -> dict[str, str]:
        if subject.restrictions:
            # A capability must not be launderable into admin authority.
            raise RestrictedAuthRefused("admin requires an unrestricted credential")
        if "verb" not in message:
            raise ParseError("ADMIN needs a verb")
        cmd = AdminCommand(message["verb"], tuple(message.get("args", "").split()))
        with self._write_lock:
            granted_id = self._db.next_statement_id if cmd.verb == "grant" else None
            new_db = apply_admin(self._db, subject.identity, cmd, self._bootstrap_admin)
            if self._db_path is not None:
                save_db(new_db, self._db_path)
            self._db = new_db
        reply = {"msg": "OK"}
        if granted_id is not None:
            reply["id"] = str(granted_id)
        return reply

    def _handle_capability(self, message: dict[str, str],
                           subject: VerifiedSubject) -> dict[str, str]:
        if "policy" in message:
            requested = parse_policy(bytes.fromhex(message["policy"]))
        elif message.get("want") == "all":
            requested = ALL
        else:
            raise ParseError("REQUEST-CAPABILITY needs want: all or policy: <hex>")
        session_pk = bytes.fromhex(message.get("session-pk", ""))
        if not session_pk:
            raise ParseError("REQUEST-CAPABILITY needs session-pk")
        lifetime = int(message.get("lifetime", str(self._issuer.max_lifetime)), 10)
        with self._write_lock:
            capability = self._issuer.request_capability(
                self._db, subject, session_pk, requested, lifetime, self._clock())
        return {"msg": "CAPABILITY", "chain": encode_chain(capability).hex()}


def serve(db: CommunityDB, listen_endpoint: tuple[str, int],
          server_credential: tuple[CertificateChain, Any], config) -> CasServer:
    """Construct and start a server from loaded pieces; blocks forever."""
    chain, leaf_key = server_credential
    server = CasServer(db, chain, leaf_key, listen=listen_endpoint,
                       bootstrap_admin=config.bootstrap_admin,
                       max_lifetime=config.max_lifetime, db_path=config.db)
    server.start()
    server.serve_forever()
    return server
