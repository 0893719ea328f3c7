"""The signature scheme certificates are built on.

Ed25519 with raw 32-byte public keys, which keeps canonical encodings
small and makes signing deterministic (useful for reproducible fixtures).
Everything signs and verifies through ``DEFAULT_SCHEME``.
"""

from __future__ import annotations

import functools
import os

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)


@functools.lru_cache(maxsize=65536)
def _ed25519_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    # Verification is a pure function of its inputs, so results are safe to
    # memoize; bulk verification (many timestamps against one chain) hits
    # this cache hard.
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


class Ed25519Scheme:
    """Key generation, signing and verification over byte strings."""

    def generate(self, rng=None) -> tuple[bytes, Ed25519PrivateKey]:
        """Return (public key bytes, private key).

        ``rng`` may be a ``random.Random``; when given, key material is
        drawn from it so fixtures can be reproduced from a seed.
        """
        seed = rng.randbytes(32) if rng is not None else os.urandom(32)
        private = Ed25519PrivateKey.from_private_bytes(seed)
        return private.public_key().public_bytes_raw(), private

    def sign(self, private_key: Ed25519PrivateKey, message: bytes) -> bytes:
        return private_key.sign(message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return _ed25519_verify(bytes(public_key), bytes(message), bytes(signature))

    def private_bytes(self, private_key: Ed25519PrivateKey) -> bytes:
        """Serialize a private key (for credential files)."""
        return private_key.private_bytes_raw()

    def load_private(self, data: bytes) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(data)


DEFAULT_SCHEME = Ed25519Scheme()
