"""Issuing certificates: trust anchors, identities, and delegated proxies.

Serial numbers come from a per-issuer monotone counter starting at 1. The
counter is process-global and guarded by a lock; it is the only mutable
state in the credential layer.
"""

from __future__ import annotations

import threading
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

_serial_lock = threading.Lock()
_serials: dict[str, int] = {}


def next_serial(issuer_name: str) -> int:
    with _serial_lock:
        value = _serials.get(issuer_name, 0) + 1
        _serials[issuer_name] = value
        return value


def reset_serial_counters() -> None:
    """Forget all counters. Intended for test isolation only."""
    with _serial_lock:
        _serials.clear()


def _signed(cert: Certificate, signer_key: Any) -> Certificate:
    return replace(cert, signature=DEFAULT_SCHEME.sign(signer_key, certificate_body(cert)))


def make_trust_anchor(name: str, public_key: bytes, private_key: Any,
                      validity: ValidityInterval) -> Certificate:
    """Self-signed root certificate placed in trust stores."""
    if validity.is_empty:
        raise InvalidInterval(f"empty validity [{validity.not_before}, {validity.not_after}]")
    cert = Certificate(
        serial=next_serial(name),
        subject_name=name,
        issuer_name=name,
        subject_public_key=public_key,
        validity=validity,
        kind=KIND_TRUST_ANCHOR,
    )
    return _signed(cert, private_key)


def issue_identity(ca_name: str, ca_private_key: Any, subject_name: str,
                   subject_pk: bytes, validity: ValidityInterval) -> Certificate:
    """Issue a long-term identity certificate signed by the CA key."""
    if validity.is_empty:
        raise InvalidInterval(f"empty validity [{validity.not_before}, {validity.not_after}]")
    cert = Certificate(
        serial=next_serial(ca_name),
        subject_name=subject_name,
        issuer_name=ca_name,
        subject_public_key=subject_pk,
        validity=validity,
        kind=KIND_IDENTITY,
    )
    return _signed(cert, ca_private_key)


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
    if validity.is_empty:
        raise InvalidInterval(f"empty validity [{validity.not_before}, {validity.not_after}]")
    check_chain_structure(issuer_chain)
    try:
        check_chain_linkage(issuer_chain)
    except BadSignature as exc:
        raise MalformedChain(str(exc)) from None

    identity = issuer_chain.certs[0].subject_name
    proxy = Certificate(
        serial=next_serial(identity),
        subject_name=identity,
        issuer_name=identity,
        subject_public_key=subject_pk,
        validity=validity,
        kind=KIND_PROXY,
        restriction=restriction,
        proxy_group=proxy_group,
    )
    proxy = _signed(proxy, issuer_leaf_private_key)
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
        anchor = make_trust_anchor(name, public_key, private_key, validity)
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
