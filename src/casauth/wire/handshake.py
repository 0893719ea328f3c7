"""Mutual authentication handshake.

    client -> HELLO     chain=<hex of chain file>  nonce=<16-byte hex>
    server -> CHALLENGE chain, nonce, sig = sign(server leaf key,
                                                 client nonce || server nonce)
    client -> RESPONSE  sig = sign(client leaf key,
                                   server nonce || client nonce)

Each side verifies the other's chain against its own trust store and
checks proof of possession of the leaf key. Nonce order differs per
direction so one side's signature can never be replayed as the other's.
The server answers a refused HELLO with a terminal ERROR frame (``expired``
or ``auth``) and a refused RESPONSE by closing, and reveals nothing more.
"""

from __future__ import annotations

import os
import socket
from typing import Any

from ..credential.certs import CertificateChain, decode_chain, encode_chain
from ..credential.keys import DEFAULT_SCHEME
from ..credential.verify import EnforcementContext, VerifiedSubject, verify_chain
from ..errors import CasError, Expired, HandshakeError, ProtocolError
from ..lines import field, hex_bytes
from .frames import read_message, send_message

NONCE_BYTES = 16


def _nonce() -> bytes:
    return os.urandom(NONCE_BYTES)


def _peer_nonce(fields: dict[str, str]) -> bytes:
    nonce = field(fields, "nonce", hex_bytes)
    if len(nonce) != NONCE_BYTES:
        raise HandshakeError(f"a nonce must be {NONCE_BYTES} bytes")
    return nonce


def _receive(sock: socket.socket, msg_type: str) -> dict[str, str]:
    """The peer's next frame, which must be a ``msg_type`` message.

    Anything else raises HandshakeError: end of stream, a frame that does
    not parse, another type, or the peer's ERROR (Expired for ``expired``).
    """
    try:
        fields = read_message(sock)
    except ProtocolError as exc:
        raise HandshakeError(str(exc)) from None
    if fields is None:
        raise HandshakeError(f"connection closed before {msg_type}")
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
    hello = _receive(sock, "HELLO")
    try:
        client_nonce = _peer_nonce(hello)
        client_chain = decode_chain(field(hello, "chain", hex_bytes))
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

    sig = field(_receive(sock, "RESPONSE"), "sig", hex_bytes)
    if not DEFAULT_SCHEME.verify(subject.leaf_public_key,
                                 server_nonce + client_nonce, sig):
        raise HandshakeError("client failed proof of possession")
    return subject


def client_handshake(sock: socket.socket, chain: CertificateChain, leaf_key: Any,
                     trust_store, now: int) -> VerifiedSubject:
    """Run the client side; returns the verified server subject.

    The client enforces no restrictions, so it refuses a restricted server chain.
    """
    client_nonce = _nonce()
    send_message(sock, {
        "msg": "HELLO",
        "chain": encode_chain(chain).hex(),
        "nonce": client_nonce.hex(),
    })
    challenge = _receive(sock, "CHALLENGE")
    try:
        server_nonce = _peer_nonce(challenge)
        server_chain = decode_chain(field(challenge, "chain", hex_bytes))
        sig = field(challenge, "sig", hex_bytes)
    except CasError as exc:
        raise HandshakeError(f"undecodable CHALLENGE: {exc}") from None
    peer = verify_chain(server_chain, trust_store, now, EnforcementContext())
    if not DEFAULT_SCHEME.verify(peer.leaf_public_key, client_nonce + server_nonce, sig):
        raise HandshakeError("server failed proof of possession")
    send_message(sock, {
        "msg": "RESPONSE",
        "sig": DEFAULT_SCHEME.sign(leaf_key, server_nonce + client_nonce).hex(),
    })
    return peer
