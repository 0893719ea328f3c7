"""In-process deployment of CAs, CAS servers, and resource servers.

Everything listens on ephemeral loopback ports and shares one manual
clock, so scenario outcomes depend only on the script and the key seed.
The same server classes run standalone via the casd / cas-resourced
entry points; nothing here is test-only behavior.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..casd.db import CommunityDB
from ..casd.issuance import DEFAULT_MAX_LIFETIME
from ..casd.server import CasServer
from ..clocks import ManualClock
from ..credential.certs import CertificateChain, ValidityInterval
from ..credential.issue import CertificateAuthority
from ..errors import CasError
from ..policy.model import Action, ObjectPattern, PolicyDocument, Request, Right
from ..resourced.server import ResourceServer
from ..resourced.storage import VirtualRoot, handle_file_op
from ..wire.server import AuthenticatedServer

CLOCK_START = 1_000_000_000
CERT_VALIDITY = ValidityInterval(0, 4_000_000_000)
ADMIN_IDENTITY = "CN=admin"  # every spawned CAS's bootstrap administrator

Credential = tuple[CertificateChain, Any]


@dataclass
class Spawned:
    server: AuthenticatedServer
    ca_name: str


@dataclass
class Deployment:
    """Holds every entity a scenario spawns, plus shared clock and RNG."""

    seed: int = 0
    clock: ManualClock = field(default_factory=lambda: ManualClock(CLOCK_START))
    authorities: dict[str, CertificateAuthority] = field(default_factory=dict)
    cas_servers: dict[str, Spawned] = field(default_factory=dict)
    resources: dict[str, Spawned] = field(default_factory=dict)
    credentials: dict[tuple[str, str], Credential] = field(default_factory=dict)

    def __post_init__(self):
        self._rng = random.Random(self.seed)
        self._tmp = tempfile.TemporaryDirectory(prefix="cas-scenario-")

    # --- spawning -------------------------------------------------------------

    def spawn_ca(self, name: str) -> CertificateAuthority:
        if name in self.authorities:
            raise CasError(f"CA {name!r} already spawned")
        authority = CertificateAuthority.create(name, CERT_VALIDITY, rng=self._rng)
        self.authorities[name] = authority
        return authority

    def spawn_cas(self, name: str, ca_name: str, identity: str,
                  max_lifetime: int = DEFAULT_MAX_LIFETIME) -> Spawned:
        if name in self.cas_servers:
            raise CasError(f"CAS {name!r} already spawned")
        chain, leaf_key = self.user_credential(identity, ca_name)
        server = CasServer(
            CommunityDB(), chain, leaf_key, trust_store=self.trust_store_of(ca_name),
            bootstrap_admin=ADMIN_IDENTITY, max_lifetime=max_lifetime,
            db_path=str(Path(self._tmp.name) / f"{name}.db"),
            clock=self.clock).start()
        spawned = self.cas_servers[name] = Spawned(server, ca_name)
        return spawned

    def spawn_resource(self, name: str, ca_name: str, identity: str,
                       grants: dict[str, PolicyDocument],
                       files: dict[str, bytes]) -> Spawned:
        if name in self.resources:
            raise CasError(f"resource {name!r} already spawned")
        chain, leaf_key = self.user_credential(identity, ca_name)
        root = Path(self._tmp.name) / f"{name}-root"
        root.mkdir()
        vroot = VirtualRoot(root)
        for object_path, content in files.items():
            handle_file_op(vroot, Request("file", "write", object_path), content)
        server = ResourceServer(
            grants, root, chain, leaf_key, trust_store=self.trust_store_of(ca_name),
            clock=self.clock).start()
        spawned = self.resources[name] = Spawned(server, ca_name)
        return spawned

    # --- credentials --------------------------------------------------------------

    def user_credential(self, identity: str, ca_name: str) -> Credential:
        """The long-term credential ``ca_name`` issues ``identity``, issued once."""
        key = (identity, ca_name)
        if key not in self.credentials:
            self.credentials[key] = self.authorities[ca_name].issue_credential(
                identity, CERT_VALIDITY, rng=self._rng)
        return self.credentials[key]

    def trust_store_of(self, ca_name: str) -> frozenset:
        return frozenset({self.authorities[ca_name].certificate})

    # --- teardown --------------------------------------------------------------------

    def close(self) -> None:
        for spawned in self.cas_servers.values():
            spawned.server.shutdown()
        for spawned in self.resources.values():
            spawned.server.shutdown()
        self._tmp.cleanup()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_policy(spec_rights: list[tuple[str, list[str], list[str]]]) -> PolicyDocument:
    """Build a document from (service, actions, patterns) triples."""
    rights = [Right(tuple(ObjectPattern(p) for p in patterns),
                    tuple(Action(service, a) for a in actions))
              for service, actions, patterns in spec_rights]
    return PolicyDocument(rights=tuple(rights))
