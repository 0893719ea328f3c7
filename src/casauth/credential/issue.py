"""Issuing certificates: trust anchors, identities, and delegated proxies.

Serial numbers are random 64-bit values, so issuing keeps no state: no
counter has to survive a restart or be shared between processes for
serials to stay unique per issuer (RFC 5280 section 4.1.2.2).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any

from ..errors import BadSignature, InvalidInterval, MalformedChain
from .certs import (
    Certificate,
    CertificateChain,
    RestrictionPolicy,
    ValidityInterval,
    certificate_body,
    KIND_IDENTITY,
    KIND_PROXY,
    KIND_TRUST_ANCHOR,
)
from .keys import DEFAULT_SCHEME


def _random_serial() -> int:
    """A positive serial of 64 random bits from the operating system."""
    return int.from_bytes(os.urandom(8), "big") or 1


def reset_serial_counters() -> None:
    """Does nothing: serials are random, so there is no counter to reset.

    Kept because the benchmark's input generator still imports and calls it.
    """


def _issue(kind: str, subject: str, issuer: str, subject_pk: bytes,
           validity: ValidityInterval, signer_key: Any,
           restriction: RestrictionPolicy | None = None,
           proxy_group: str | None = None) -> Certificate:
    """A certificate of ``kind`` with a random serial, signed by ``signer_key``."""
    if validity.is_empty:
        raise InvalidInterval(f"empty validity [{validity.not_before}, {validity.not_after}]")
    cert = Certificate(_random_serial(), subject, issuer, subject_pk, validity,
                       kind, restriction, proxy_group)
    return replace(cert, signature=DEFAULT_SCHEME.sign(signer_key, certificate_body(cert)))


def issue_identity(ca_name: str, ca_private_key: Any, subject_name: str,
                   subject_pk: bytes, validity: ValidityInterval) -> Certificate:
    """Issue a long-term identity certificate signed by the CA key."""
    return _issue(KIND_IDENTITY, subject_name, ca_name, subject_pk, validity,
                  ca_private_key)


def check_chain_structure(chain: CertificateChain) -> None:
    """Raise MalformedChain unless the chain's shape invariants hold.

    Shape only; signatures are checked separately so verification can
    distinguish MalformedChain from BadSignature.
    """
    certs = chain.certs
    head = certs[0]
    if head.kind != KIND_IDENTITY:
        raise MalformedChain(f"chain must start with an identity certificate, got {head.kind}")
    if head.restriction is not None or head.proxy_group is not None:
        raise MalformedChain("restriction and proxy group are proxy-only fields")
    for i, cert in enumerate(certs[1:], 1):
        if cert.kind != KIND_PROXY:
            raise MalformedChain(f"certificate {i} must be a proxy, got {cert.kind}")
        if cert.subject_name != head.subject_name:
            raise MalformedChain(f"proxy {i} does not carry the chain identity")
        if cert.issuer_name != cert.subject_name:
            raise MalformedChain(f"proxy {i} subject and issuer differ")


def check_chain_linkage(chain: CertificateChain) -> None:
    """Raise BadSignature unless each proxy is signed by its predecessor's key."""
    certs = chain.certs
    for i in range(1, len(certs)):
        signer_pk = certs[i - 1].subject_public_key
        if not DEFAULT_SCHEME.verify(signer_pk, certificate_body(certs[i]),
                                     certs[i].signature):
            raise BadSignature(f"proxy {i} signature does not verify under its predecessor")


def delegate(issuer_chain: CertificateChain, issuer_leaf_private_key: Any,
             subject_pk: bytes, validity: ValidityInterval,
             restriction: RestrictionPolicy | None = None,
             proxy_group: str | None = None) -> CertificateChain:
    """Extend a chain with one proxy certificate binding ``subject_pk``.

    The subject generates its own key pair and hands over only the public
    half; the proxy carries the grantor's identity, optionally narrowed by
    a critical restriction policy and labelled with a proxy group.
    """
    check_chain_structure(issuer_chain)
    try:
        check_chain_linkage(issuer_chain)
    except BadSignature as exc:
        raise MalformedChain(str(exc)) from None

    identity = issuer_chain.certs[0].subject_name
    proxy = _issue(KIND_PROXY, identity, identity, subject_pk, validity,
                   issuer_leaf_private_key, restriction, proxy_group)
    if not DEFAULT_SCHEME.verify(issuer_chain.leaf.subject_public_key,
                                 certificate_body(proxy), proxy.signature):
        raise ValueError("private key does not match the chain's leaf public key")
    return issuer_chain.extended(proxy)


@dataclass
class CertificateAuthority:
    """Convenience bundle: a root key pair plus its self-signed anchor."""

    name: str
    public_key: bytes
    private_key: Any
    certificate: Certificate

    @classmethod
    def create(cls, name: str, validity: ValidityInterval,
               rng=None) -> "CertificateAuthority":
        public_key, private_key = DEFAULT_SCHEME.generate(rng)
        anchor = _issue(KIND_TRUST_ANCHOR, name, name, public_key, validity,
                        private_key)
        return cls(name, public_key, private_key, anchor)

    def issue_identity(self, subject_name: str, subject_pk: bytes,
                       validity: ValidityInterval) -> Certificate:
        return issue_identity(self.name, self.private_key, subject_name,
                              subject_pk, validity)

    def issue_credential(self, subject_name: str, validity: ValidityInterval,
                         rng=None) -> tuple[CertificateChain, Any]:
        """Generate a key pair and issue an identity chain for it."""
        public_key, private_key = DEFAULT_SCHEME.generate(rng)
        cert = self.issue_identity(subject_name, public_key, validity)
        return CertificateChain((cert,)), private_key
