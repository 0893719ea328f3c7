"""Credential files: a chain in canonical form plus its leaf private key.

    <certificate chain, chain-file format>
    private-key: <lowercase hex>

The same format serves long-term credentials (servers, users) and the
proxy file written by cas-proxy-init. Files are created owner-read/write
only since they hold key material.
"""

from __future__ import annotations

from typing import Any

from .credential.certs import CertificateChain, certificates_from_lines, encode_chain
from .credential.keys import DEFAULT_SCHEME
from .errors import ParseError
from .lines import hex_bytes, join_lines, read_file, split_lines, write_file

_KEY_PREFIX = "private-key: "


def save_credential(path, chain: CertificateChain, private_key: Any) -> None:
    key_line = _KEY_PREFIX + DEFAULT_SCHEME.private_bytes(private_key).hex()
    write_file(path, encode_chain(chain) + join_lines([key_line]), "credential", 0o600)


def load_credential(path):
    """Return (chain, private key handle)."""
    lines = split_lines(read_file(path, "credential"))
    # the last line carries the key; everything before it is the chain
    if not lines[-1].startswith(_KEY_PREFIX):
        raise ParseError("credential file must end with a private-key line",
                         line=len(lines))
    try:
        key_bytes = hex_bytes(lines[-1][len(_KEY_PREFIX):])
        private_key = DEFAULT_SCHEME.load_private(key_bytes)
    except ValueError as exc:
        raise ParseError(f"bad private key: {exc}", line=len(lines)) from None
    chain = CertificateChain(tuple(certificates_from_lines(lines[:-1])))
    return chain, private_key
