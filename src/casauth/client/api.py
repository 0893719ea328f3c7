"""User-facing operations: get a capability, use it against resources.

Session key pairs are generated here, inside the client process; only the
public half ever goes on the wire, so neither the CAS server nor any
resource server can exercise the capability themselves.
"""

from __future__ import annotations

from typing import Any, Callable

from ..clocks import system_clock
from ..credential.certs import CertificateChain, decode_chain
from ..credential.keys import DEFAULT_SCHEME
from ..errors import REPLY_ERRORS, Denied, ProtocolError
from ..policy.model import ALL, PolicyDocument
from ..policy.text import serialize_policy
from .session import ClientSession


def expect_reply(reply: dict[str, str], expected: str) -> dict[str, str]:
    """Return a reply of the expected type; raise the error any other one names."""
    kind = reply["msg"]
    if kind == expected:
        return reply
    reason = reply.get("reason", "")
    if kind == "DENIED":
        raise REPLY_ERRORS.get(reason, Denied)(f"server denied: {reason}")
    if kind == "ERROR":
        raise REPLY_ERRORS.get(reason, ProtocolError)(f"server error: {reason}")
    raise ProtocolError(f"expected {expected}, got {kind}")


def capability_request_fields(want, session_pk: bytes, lifetime: int) -> dict[str, str]:
    fields = {"msg": "REQUEST-CAPABILITY"}
    if want is ALL:
        fields["want"] = "all"
    elif isinstance(want, PolicyDocument):
        fields["policy"] = serialize_policy(want).hex()
    else:
        raise TypeError("want must be a PolicyDocument or ALL")
    fields["session-pk"] = session_pk.hex()
    fields["lifetime"] = str(int(lifetime))
    return fields


def acquire_capability(cas_endpoint: tuple[str, int], user_chain: CertificateChain,
                       user_leaf_key: Any, want=ALL, lifetime: int = 43_200, *,
                       trust_store, clock: Callable[[], int] = system_clock):
    """Fetch a capability; returns (chain, session private key).

    A fresh session key pair is generated locally and its public half is
    what the returned chain binds; the private half never leaves this
    process.
    """
    session_pk, session_key = DEFAULT_SCHEME.generate()
    with ClientSession(cas_endpoint, user_chain, user_leaf_key, trust_store,
                       clock=clock) as session:
        reply = expect_reply(
            session.request(capability_request_fields(want, session_pk, lifetime)),
            "CAPABILITY")
    chain = decode_chain(bytes.fromhex(reply["chain"]))
    return chain, session_key


def file_op(resource_endpoint: tuple[str, int], capability_chain: CertificateChain,
            session_key: Any, action: str, path: str,
            payload: bytes | None = None, *, trust_store,
            clock: Callable[[], int] = system_clock):
    """Run one file operation; read returns bytes, list a name list.

    Each call opens its own connection, so one capability serves any
    number of operations and connections until it expires.
    """
    fields = {"msg": "FILE-OP", "action": action, "path": path}
    if payload is not None:
        fields["data"] = payload.hex()
    with ClientSession(resource_endpoint, capability_chain, session_key,
                       trust_store, clock=clock) as session:
        reply = expect_reply(session.request(fields), "OK")
    if action == "read":
        return bytes.fromhex(reply.get("data", ""))
    if action == "list":
        data = bytes.fromhex(reply.get("data", "")).decode("utf-8")
        return data.split("\n") if data else []
    return None


def admin_command(cas_endpoint: tuple[str, int], cred_chain: CertificateChain,
                  leaf_key: Any, verb: str, args, *, trust_store,
                  clock: Callable[[], int] = system_clock) -> dict[str, str]:
    """Send one ADMIN command; returns the OK reply fields."""
    fields = {"msg": "ADMIN", "verb": verb, "args": " ".join(args)}
    with ClientSession(cas_endpoint, cred_chain, leaf_key, trust_store,
                       clock=clock) as session:
        return expect_reply(session.request(fields), "OK")
