"""Capability issuance: community policy delegated as restricted proxies."""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any

from ..credential.certs import CertificateChain, RestrictionPolicy, ValidityInterval
from ..credential.issue import delegate
from ..credential.verify import VerifiedSubject
from ..errors import Denied, NotEnrolled, RestrictedAuthRefused
from ..policy.model import ALL, LANGUAGE, PolicyDocument
from ..policy.text import serialize_policy
from .db import CommunityDB
from .rights import compute_user_rights, find_user, intersect_documents

DEFAULT_MAX_LIFETIME = 43_200  # seconds; capabilities live hours, not days

PROXY_GROUP_PREFIX = "cas-session-"


class SessionCounter:
    """Strictly increasing per server lifetime; one value per capability."""

    def __init__(self):
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            return next(self._counter)


@dataclass
class CapabilityIssuer:
    """The CAS server's issuing half: its credential plus session state."""

    chain: CertificateChain
    leaf_key: Any
    max_lifetime: int = DEFAULT_MAX_LIFETIME
    sessions: SessionCounter = field(default_factory=SessionCounter)

    def request_capability(self, db: CommunityDB, subject: VerifiedSubject,
                           user_session_pk: bytes, requested,
                           lifetime_seconds: int, now: int) -> CertificateChain:
        """Issue a capability for the authenticated subject.

        ``requested`` is a PolicyDocument or ALL. The grant is the
        intersection of the community's rights for the user with the
        request; an empty grant is a Denied error, and the lifetime is
        clamped to the configured maximum.
        """
        if subject.restrictions:
            raise RestrictedAuthRefused(
                "capabilities must be requested with an unrestricted credential")
        if find_user(db, subject.identity) is None:
            raise NotEnrolled(f"{subject.identity!r} is not an enrolled user")

        held = compute_user_rights(db, subject.identity)
        if requested is ALL:
            granted = held
        elif isinstance(requested, PolicyDocument):
            granted = intersect_documents(held, requested)
        else:
            raise TypeError("requested must be a PolicyDocument or ALL")
        if not granted.rights:
            raise Denied(f"community policy grants {subject.identity!r} "
                         "none of the requested rights")

        lifetime = min(int(lifetime_seconds), self.max_lifetime)
        if lifetime < 0:
            raise ValueError("lifetime must be nonnegative")
        restriction = RestrictionPolicy(LANGUAGE, serialize_policy(granted))
        proxy_group = f"{PROXY_GROUP_PREFIX}{self.sessions.next()}"
        return delegate(self.chain, self.leaf_key, user_session_pk,
                        ValidityInterval(now, now + lifetime),
                        restriction=restriction, proxy_group=proxy_group)
