"""Data model of the cas-simple-v1 policy language.

A document is a list of rights; each right grants a list of actions on a
list of object patterns. There are no negative rights and no priorities:
anything not granted is denied.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lines import is_line, is_token

LANGUAGE = "cas-simple-v1"


@dataclass(frozen=True)
class Action:
    """An action name qualified by the service type that defines it."""

    service_type: str
    action_name: str

    def __post_init__(self):
        for part, what in ((self.service_type, "service type"),
                           (self.action_name, "action name")):
            if not is_token(part) or ":" in part or part != part.lower():
                raise ValueError(f"{what} must be a lowercase ASCII token "
                                 f"without whitespace or colons: {part!r}")


@dataclass(frozen=True)
class ObjectPattern:
    """Exact object name, a path prefix ``X/*``, or the universal ``*``.

    ``X/*`` matches ``X`` itself and every descendant ``X/...``.
    """

    pattern: str

    def __post_init__(self):
        p = self.pattern
        if not is_token(p):
            raise ValueError(f"pattern must be a nonempty whitespace-free token: {p!r}")
        if "*" in p and p != "*" and not (p.endswith("/*") and p.count("*") == 1):
            raise ValueError(f"'*' may appear only as trailing '/*' or alone: {p!r}")


@dataclass(frozen=True)
class Right:
    objects: tuple[ObjectPattern, ...]
    actions: tuple[Action, ...]

    def __post_init__(self):
        if not self.objects or not self.actions:
            raise ValueError("a right needs at least one object and one action")


@dataclass(frozen=True)
class PolicyDocument:
    rights: tuple[Right, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rights", tuple(self.rights))


@dataclass(frozen=True)
class Request:
    """One concrete thing somebody wants to do: (service, action, object)."""

    service_type: str
    action_name: str
    object: str

    def __post_init__(self):
        if not self.service_type or not self.action_name or not self.object:
            raise ValueError("request fields must be nonempty")
        if "*" in self.object or not is_line(self.object):
            raise ValueError("request objects are concrete one-line names, no wildcards")


class _AllRights:
    """Sentinel for capability requests: grant everything the user holds."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALL"


ALL = _AllRights()
