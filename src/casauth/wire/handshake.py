"""Mutual authentication handshake.

    client -> HELLO     chain=<hex of chain file>  nonce=<16-byte hex>
    server -> CHALLENGE chain, nonce, sig = sign(server leaf key,
                                                 client nonce || server nonce)
    client -> RESPONSE  sig = sign(client leaf key,
                                   server nonce || client nonce)

Each side verifies the other's chain against its own trust store and
checks proof of possession of the leaf key. Nonce order differs per
direction so one side's signature can never be replayed as the other's.
On failure the server sends a terminal ERROR frame (reason ``expired`` or
``auth``) and closes; nothing else is revealed.
"""

from __future__ import annotations

import os
import socket
from typing import Any

from ..credential.certs import CertificateChain, decode_chain, encode_chain
from ..credential.keys import DEFAULT_SCHEME
from ..credential.verify import EnforcementContext, VerifiedSubject, verify_chain
from ..errors import CasError, Expired, HandshakeError, ProtocolError
from .frames import read_message, send_message

NONCE_BYTES = 16


def _nonce() -> bytes:
    return os.urandom(NONCE_BYTES)


def _hex_bytes(fields: dict[str, str], key: str, expected_len: int | None = None) -> bytes:
    try:
        value = bytes.fromhex(fields[key])
    except (KeyError, ValueError):
        raise HandshakeError(f"missing or malformed field {key!r}") from None
    if expected_len is not None and len(value) != expected_len:
        raise HandshakeError(f"field {key!r} must be {expected_len} bytes")
    return value


def _expect(fields: dict[str, str] | None, msg_type: str) -> dict[str, str]:
    if fields is None:
        raise HandshakeError("connection closed during handshake")
    if fields["msg"] == "ERROR":
        reason = fields.get("reason", "")
        if reason == "expired":
            raise Expired("peer rejected the credential as expired")
        raise HandshakeError(f"peer refused handshake: {reason or 'auth'}")
    if fields["msg"] != msg_type:
        raise HandshakeError(f"expected {msg_type}, got {fields['msg']}")
    return fields


def server_handshake(sock: socket.socket, chain: CertificateChain, leaf_key: Any,
                     trust_store, ctx: EnforcementContext, now: int) -> VerifiedSubject:
    """Run the server side; returns the verified client subject.

    Raises the verification error (after sending the terminal ERROR frame)
    when the client does not authenticate.
    """
    try:
        hello = read_message(sock)
    except ProtocolError as exc:
        raise HandshakeError(str(exc)) from None
    if hello is None:
        raise HandshakeError("connection closed before HELLO")
    if hello["msg"] != "HELLO":
        raise HandshakeError(f"expected HELLO, got {hello['msg']}")
    client_nonce = _hex_bytes(hello, "nonce", NONCE_BYTES)
    try:
        client_chain = decode_chain(_hex_bytes(hello, "chain"))
        subject = verify_chain(client_chain, trust_store, now, ctx)
    except CasError as exc:
        reason = "expired" if isinstance(exc, Expired) else "auth"
        try:
            send_message(sock, {"msg": "ERROR", "reason": reason})
        except CasError:
            pass
        raise

    server_nonce = _nonce()
    send_message(sock, {
        "msg": "CHALLENGE",
        "chain": encode_chain(chain).hex(),
        "nonce": server_nonce.hex(),
        "sig": DEFAULT_SCHEME.sign(leaf_key, client_nonce + server_nonce).hex(),
    })

    try:
        response = read_message(sock)
    except ProtocolError as exc:
        raise HandshakeError(str(exc)) from None
    if response is None or response["msg"] != "RESPONSE":
        raise HandshakeError("expected RESPONSE")
    sig = _hex_bytes(response, "sig")
    if not DEFAULT_SCHEME.verify(subject.leaf_public_key,
                                 server_nonce + client_nonce, sig):
        raise HandshakeError("client failed proof of possession")
    return subject


def client_handshake(sock: socket.socket, chain: CertificateChain, leaf_key: Any,
                     trust_store, now: int,
                     ctx: EnforcementContext | None = None) -> VerifiedSubject:
    """Run the client side; returns the verified server subject."""
    if ctx is None:
        ctx = EnforcementContext()
    client_nonce = _nonce()
    send_message(sock, {
        "msg": "HELLO",
        "chain": encode_chain(chain).hex(),
        "nonce": client_nonce.hex(),
    })
    try:
        challenge = _expect(read_message(sock), "CHALLENGE")
    except ProtocolError as exc:
        raise HandshakeError(str(exc)) from None
    server_nonce = _hex_bytes(challenge, "nonce", NONCE_BYTES)
    try:
        server_chain = decode_chain(_hex_bytes(challenge, "chain"))
    except CasError as exc:
        raise HandshakeError(f"undecodable server chain: {exc}") from None
    peer = verify_chain(server_chain, trust_store, now, ctx)
    sig = _hex_bytes(challenge, "sig")
    if not DEFAULT_SCHEME.verify(peer.leaf_public_key, client_nonce + server_nonce, sig):
        raise HandshakeError("server failed proof of possession")
    send_message(sock, {
        "msg": "RESPONSE",
        "sig": DEFAULT_SCHEME.sign(leaf_key, server_nonce + client_nonce).hex(),
    })
    return peer
