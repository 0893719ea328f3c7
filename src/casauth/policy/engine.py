"""Policy evaluation: default deny, additive rights, conjunctive stacks."""

from __future__ import annotations

from typing import Callable, Iterable

from ..credential.certs import RestrictionPolicy
from ..errors import ParseError, UnknownPolicyLanguage
from .model import LANGUAGE, ObjectPattern, PolicyDocument, Request
from .text import parse_policy

Evaluator = Callable[[bytes, Request], bool]


def match_object(pattern: ObjectPattern, obj: str) -> bool:
    p = pattern.pattern
    if p == "*":
        return True
    if p.endswith("/*"):
        stem = p[:-2]
        return obj == stem or obj.startswith(stem + "/")
    return p == obj


def grants(doc: PolicyDocument, service_type: str, action_name: str, name: str) -> bool:
    """True iff some right grants the action on a pattern matching ``name``.

    ``name`` is an object name or a pattern. Patterns are prefix-closed, so
    a held pattern matches everything a requested pattern matches exactly
    when it matches the requested pattern's own text as a name.
    """
    for right in doc.rights:
        if any(a.service_type == service_type and a.action_name == action_name
               for a in right.actions):
            if any(match_object(p, name) for p in right.objects):
                return True
    return False


def evaluate(doc: PolicyDocument, req: Request) -> bool:
    """Permit iff some right grants the action on a matching pattern."""
    return grants(doc, req.service_type, req.action_name, req.object)


def _evaluate_simple_body(body: bytes, req: Request) -> bool:
    # A restriction body that does not parse grants nothing.
    try:
        doc = parse_policy(body)
    except ParseError:
        return False
    return evaluate(doc, req)


class EvaluatorRegistry:
    """Maps policy-language tags to evaluator functions.

    cas-simple-v1 is always registered. Registering another language
    reaches ``evaluate_all`` in-process only: both servers'
    ``EnforcementContext`` knows cas-simple-v1 alone, so a chain in
    another language is refused at the handshake. The registry is meant
    to be built once and then only read, so no locking.
    """

    def __init__(self):
        self._evaluators: dict[str, Evaluator] = {LANGUAGE: _evaluate_simple_body}

    def register(self, language_tag: str, evaluator: Evaluator) -> None:
        self._evaluators[language_tag] = evaluator

    def languages(self) -> frozenset[str]:
        return frozenset(self._evaluators)

    def evaluate(self, language_tag: str, body: bytes, req: Request) -> bool:
        try:
            evaluator = self._evaluators[language_tag]
        except KeyError:
            raise UnknownPolicyLanguage(
                f"no evaluator registered for {language_tag!r}") from None
        return evaluator(body, req)


def evaluate_all(restrictions: Iterable[RestrictionPolicy],
                 registry: EvaluatorRegistry, req: Request) -> bool:
    """Conjunction over a restriction stack; an empty stack permits.

    Chain verification guarantees every language is registered; the
    UnknownPolicyLanguage raise here is defensive.
    """
    return all(registry.evaluate(policy.language_tag, policy.body, req)
               for policy in restrictions)
