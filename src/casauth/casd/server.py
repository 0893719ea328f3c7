"""The CAS server: authenticated admin and capability-request dispatch.

Post-handshake message types:

    ADMIN               verb: <verb>   args: <joined by single spaces>
    REQUEST-CAPABILITY  want: all | policy: <hex of policy text>
                        session-pk: <hex>   [lifetime: <seconds>]

An absent ``lifetime`` asks for the server's cap (``--max-lifetime``).

Replies are OK (grant adds ``id``), CAPABILITY (``chain``), DENIED
(``reason``: not-authorized, unknown-actor, denied, not-enrolled,
restricted-chain), or ERROR (``reason``: duplicate-name, unknown-name,
invariant, parse for a field that is missing or does not decode, expired,
bad-request for another message type, internal). Mutations run under
one writer lock, and the snapshot is rewritten after each mutation, so a
crash can lose at most the command being applied. Each mutation publishes
a new database by swapping one reference, so issuance reads the published
database without the lock: an issuance that read the old one is ordered
before the mutation.
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
from ..lines import field, hex_bytes, nonnegative_int
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
    error_reasons = frozenset({"duplicate-name", "unknown-name", "invariant", "parse",
                               "expired", "bad-request"})

    def __init__(self, db: CommunityDB, chain: CertificateChain, leaf_key: Any,
                 *, trust_store, db_path: str,
                 listen: tuple[str, int] = ("127.0.0.1", 0),
                 bootstrap_admin: str | None = None,
                 max_lifetime: int = DEFAULT_MAX_LIFETIME,
                 clock: Callable[[], int] = system_clock):
        super().__init__(chain, leaf_key, trust_store, listen, clock)
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
                                   self._trust_store, self._ctx, self._clock())
        serve_messages(sock, lambda message: self._reply(message, subject))

    def _handle_admin(self, message: dict[str, str],
                      subject: VerifiedSubject) -> dict[str, str]:
        if subject.restrictions:
            # A capability must not be launderable into admin authority.
            raise RestrictedAuthRefused("admin requires an unrestricted credential")
        # The client joins arguments with single spaces, so splitting on each
        # one gives back an identity's own runs of whitespace.
        args = message.get("args", "")
        cmd = AdminCommand(field(message, "verb", str), tuple(args.split(" ")) if args else ())
        with self._write_lock:
            granted_id = self._db.next_statement_id if cmd.verb == "grant" else None
            new_db = apply_admin(self._db, subject.identity, cmd, self._bootstrap_admin)
            save_db(new_db, self._db_path)
            self._db = new_db
        reply = {"msg": "OK"}
        if granted_id is not None:
            reply["id"] = str(granted_id)
        return reply

    def _handle_capability(self, message: dict[str, str],
                           subject: VerifiedSubject) -> dict[str, str]:
        if "policy" in message:
            requested = parse_policy(field(message, "policy", hex_bytes))
        elif message.get("want") == "all":
            requested = ALL
        else:
            raise ParseError("REQUEST-CAPABILITY needs want: all or policy: <hex>")
        session_pk = field(message, "session-pk", hex_bytes)
        if not session_pk:
            raise ParseError("REQUEST-CAPABILITY needs session-pk")
        lifetime = (field(message, "lifetime", nonnegative_int) if "lifetime" in message
                    else self._issuer.max_lifetime)
        capability = self._issuer.request_capability(
            self._db, subject, session_pk, requested, lifetime, self._clock())
        return {"msg": "CAPABILITY", "chain": encode_chain(capability).hex()}

    handlers = {"ADMIN": _handle_admin, "REQUEST-CAPABILITY": _handle_capability}


def serve(db: CommunityDB, listen_endpoint: tuple[str, int],
          server_credential: tuple[CertificateChain, Any], *, trust_store,
          db_path: str, bootstrap_admin: str | None = None,
          max_lifetime: int = DEFAULT_MAX_LIFETIME) -> CasServer:
    """Construct and start a server from loaded pieces; blocks until SIGINT."""
    chain, leaf_key = server_credential
    server = CasServer(db, chain, leaf_key, trust_store=trust_store,
                       listen=listen_endpoint, bootstrap_admin=bootstrap_admin,
                       max_lifetime=max_lifetime, db_path=db_path)
    server.start()
    server.serve_forever()
    return server
