"""Credential files: a chain in canonical form plus its leaf private key.

    <certificate chain, chain-file format>
    private-key: <lowercase hex>

The same format serves long-term credentials (servers, users) and the
proxy file written by cas-proxy-init. Files are created owner-read/write
only since they hold key material.
"""

from __future__ import annotations

import os
from typing import Any

from .credential.certs import CertificateChain, decode_chain, encode_chain
from .credential.keys import DEFAULT_SCHEME
from .errors import IoError, ParseError

_KEY_PREFIX = "private-key: "


def save_credential(path, chain: CertificateChain, private_key: Any) -> None:
    key_line = _KEY_PREFIX + DEFAULT_SCHEME.private_bytes(private_key).hex() + "\n"
    data = encode_chain(chain) + key_line.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IoError(f"cannot write credential {path}: {exc}") from None


def load_credential(path):
    """Return (chain, private key handle)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read credential {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from None
    lines = text.split("\n")
    # last nonempty line carries the key; everything before it is the chain
    if len(lines) < 2 or not lines[-2].startswith(_KEY_PREFIX) or lines[-1]:
        raise ParseError("credential file must end with a private-key line")
    try:
        key_bytes = bytes.fromhex(lines[-2][len(_KEY_PREFIX):])
        private_key = DEFAULT_SCHEME.load_private(key_bytes)
    except ValueError as exc:
        raise ParseError(f"bad private key: {exc}") from None
    chain = decode_chain(("\n".join(lines[:-2]) + "\n").encode("utf-8"))
    return chain, private_key
