"""Two-sided authorization at the resource.

A request goes through only when the local grant table authorizes it for
the grantor of the presented credential AND the credential's own
restriction stack authorizes it for the bearer. Unknown service types,
unknown actions, and identities without a grant-table row all fall to
deny; there is nothing to configure open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..credential.verify import VerifiedSubject
from ..policy.engine import EvaluatorRegistry, evaluate, evaluate_all
from ..policy.model import PolicyDocument, Request

FILE_ACTIONS = frozenset({"read", "write", "list"})


@dataclass(frozen=True)
class ServiceRegistry:
    """Service types this server implements, with their action sets."""

    services: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: {"file": FILE_ACTIONS})

    def allows(self, service_type: str, action_name: str) -> bool:
        return action_name in self.services.get(service_type, frozenset())


LocalGrantTable = Mapping[str, PolicyDocument]


def authorize(table: LocalGrantTable, subject: VerifiedSubject,
              registry: ServiceRegistry, req: Request,
              evaluators: EvaluatorRegistry) -> bool:
    """Local policy for the grantor AND capability policy for the bearer."""
    if not registry.allows(req.service_type, req.action_name):
        return False
    local = table.get(subject.identity)
    if local is None or not evaluate(local, req):
        return False
    return evaluate_all(subject.restrictions, evaluators, req)
