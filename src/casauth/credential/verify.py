"""Chain verification.

verify_chain is the single gate everything authenticates through: servers
run it on client chains during the handshake, clients run it on server
chains, and the file server runs it with willingness to enforce
restrictions before any authorization decision is made.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    EmptyIntersection,
    Expired,
    RestrictionRefused,
    UnknownPolicyLanguage,
    UntrustedRoot,
)
from .certs import (
    Certificate,
    CertificateChain,
    RestrictionPolicy,
    ValidityInterval,
    certificate_body,
)
from .issue import check_chain_linkage, check_chain_structure
from .keys import DEFAULT_SCHEME


@dataclass(frozen=True)
class EnforcementContext:
    """What the calling program is prepared to enforce.

    A verifier that has not declared willingness must reject restricted
    chains outright, and a willing verifier must reject languages it does
    not know; restrictions are critical.
    """

    willing_to_enforce: bool = False
    known_languages: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "known_languages", frozenset(self.known_languages))
        if not self.willing_to_enforce and self.known_languages:
            raise ValueError("known_languages must be empty when not willing to enforce")


@dataclass(frozen=True)
class VerifiedSubject:
    """Outcome of verifying a chain.

    ``identity`` is the subject of the long-term certificate; the bearer
    is whoever holds the private key matching ``leaf_public_key``.
    """

    identity: str
    leaf_public_key: bytes
    effective_validity: ValidityInterval
    restrictions: tuple[RestrictionPolicy, ...]
    proxy_group_path: tuple[str, ...]


def effective_validity(chain: CertificateChain) -> ValidityInterval:
    """Intersection of every certificate's validity interval."""
    interval = chain.certs[0].validity
    for cert in chain.certs[1:]:
        interval = interval.intersect(cert.validity)
    if interval.is_empty:
        raise EmptyIntersection(
            f"no instant satisfies all {len(chain.certs)} certificates")
    return interval


def _check_root_trust(head: Certificate, trust_store) -> None:
    body = certificate_body(head)
    for anchor in trust_store:
        if DEFAULT_SCHEME.verify(anchor.subject_public_key, body, head.signature):
            return
    raise UntrustedRoot(f"identity certificate of {head.subject_name!r} "
                        "is not signed by any trusted key")


def verify_chain(chain: CertificateChain, trust_store, now: int,
                 ctx: EnforcementContext) -> VerifiedSubject:
    """Verify a chain at time ``now`` against a set of trust anchors.

    Raises MalformedChain, UntrustedRoot, BadSignature, Expired,
    RestrictionRefused or UnknownPolicyLanguage; returns the verified
    subject on success.
    """
    trust_store = tuple(trust_store)
    if not trust_store:
        raise ValueError("trust store must be nonempty")

    check_chain_structure(chain)
    _check_root_trust(chain.certs[0], trust_store)
    check_chain_linkage(chain)

    try:
        validity = effective_validity(chain)
    except EmptyIntersection as exc:
        raise Expired(str(exc)) from None
    validity.check(now)

    restrictions = tuple(c.restriction for c in chain.certs if c.restriction is not None)
    if restrictions:
        if not ctx.willing_to_enforce:
            raise RestrictionRefused(
                "chain carries restrictions and the caller is unwilling to enforce them")
        for policy in restrictions:
            if policy.language_tag not in ctx.known_languages:
                raise UnknownPolicyLanguage(
                    f"cannot evaluate policy language {policy.language_tag!r}")

    return VerifiedSubject(
        identity=chain.certs[0].subject_name,
        leaf_public_key=chain.leaf.subject_public_key,
        effective_validity=validity,
        restrictions=restrictions,
        proxy_group_path=tuple(c.proxy_group for c in chain.certs
                               if c.proxy_group is not None),
    )


def same_principal(a: VerifiedSubject, b: VerifiedSubject) -> bool:
    """Issuer identity and proxy-group path must both match exactly."""
    return a.identity == b.identity and a.proxy_group_path == b.proxy_group_path
