"""Policy evaluation: default deny, additive rights, conjunctive stacks."""

from __future__ import annotations

from typing import Callable, Iterable

from ..credential.certs import RestrictionPolicy
from ..errors import ParseError, UnknownPolicyLanguage
from .model import LANGUAGE, Decision, ObjectPattern, PolicyDocument, Request
from .text import parse_policy

Evaluator = Callable[[bytes, Request], Decision]


def match_object(pattern: ObjectPattern, obj: str) -> bool:
    p = pattern.pattern
    if p == "*":
        return True
    if p.endswith("/*"):
        stem = p[:-2]
        return obj == stem or obj.startswith(stem + "/")
    return p == obj


def pattern_subsumes(general: ObjectPattern, specific: ObjectPattern) -> bool:
    """True iff every object matched by ``specific`` is matched by ``general``."""
    # Patterns are prefix-closed: ``general`` matches everything ``specific``
    # matches exactly when it matches ``specific``'s own text as a name.
    return match_object(general, specific.pattern)


def evaluate(doc: PolicyDocument, req: Request) -> Decision:
    """Permit iff some right grants the action on a matching pattern."""
    for right in doc.rights:
        if any(a.service_type == req.service_type and a.action_name == req.action_name
               for a in right.actions):
            if any(match_object(p, req.object) for p in right.objects):
                return Decision.PERMIT
    return Decision.DENY


def _evaluate_simple_body(body: bytes, req: Request) -> Decision:
    # A restriction body that does not parse grants nothing.
    try:
        doc = parse_policy(body)
    except ParseError:
        return Decision.DENY
    return evaluate(doc, req)


class EvaluatorRegistry:
    """Maps policy-language tags to evaluator functions.

    cas-simple-v1 is always registered; further languages can be plugged
    in at startup. The registry is meant to be built once and then only
    read, so no locking.
    """

    def __init__(self):
        self._evaluators: dict[str, Evaluator] = {LANGUAGE: _evaluate_simple_body}

    def register(self, language_tag: str, evaluator: Evaluator) -> None:
        self._evaluators[language_tag] = evaluator

    def languages(self) -> frozenset[str]:
        return frozenset(self._evaluators)

    def evaluate(self, language_tag: str, body: bytes, req: Request) -> Decision:
        try:
            evaluator = self._evaluators[language_tag]
        except KeyError:
            raise UnknownPolicyLanguage(
                f"no evaluator registered for {language_tag!r}") from None
        return evaluator(body, req)


def evaluate_all(restrictions: Iterable[RestrictionPolicy],
                 registry: EvaluatorRegistry, req: Request) -> Decision:
    """Conjunction over a restriction stack; an empty stack permits.

    Chain verification guarantees every language is registered; the
    UnknownPolicyLanguage raise here is defensive.
    """
    for policy in restrictions:
        if not registry.evaluate(policy.language_tag, policy.body, req).is_permit:
            return Decision.DENY
    return Decision.PERMIT
