"""Expected outcomes, computed without casauth's own policy code.

Rights are sets of (object pattern, service type, action) triples. Permit
or deny is always judged on the canonical object name (RFC 3986 section
5.2.4 dot-segment removal, the normalization the file store applies), so
a request whose raw name differs from its canonical one is expected to
behave exactly like the canonical request.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

Triple = tuple[str, str, str]


def canonical(name: str) -> str:
    """Dot-segment removal on an absolute object name."""
    parts: list[str] = []
    for segment in name.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if not parts:
                raise ValueError(f"{name!r} climbs out of the root")
            parts.pop()
        else:
            parts.append(segment)
    return "/" + "/".join(parts)


def matches(pattern: str, obj: str) -> bool:
    if pattern == "*":
        return True
    if pattern.endswith("/*"):
        stem = pattern[:-2]
        return obj == stem or obj.startswith(stem + "/")
    return pattern == obj


def permits(rights, service: str, action: str, obj: str) -> bool:
    return any(s == service and a == action and matches(p, obj) for p, s, a in rights)


def narrow(held, requested) -> frozenset:
    """Requested triples whose action is held on a pattern covering the requested one.

    A pattern covers another exactly when it matches it read as a name, so
    ``matches`` doubles as the subsumption test.
    """
    return frozenset((p, s, a) for p, s, a in requested
                     if any(hs == s and ha == a and matches(hp, p) for hp, hs, ha in held))


def parse_rights(text: bytes) -> frozenset:
    """Triples granted by a cas-simple-v1 document (``right:`` blocks of objects, then actions)."""
    lines = text.decode("utf-8").split("\n")
    if not lines or lines[0] != "lang: cas-simple-v1" or lines[-1] != "":
        raise ValueError("not a cas-simple-v1 document")
    triples = set()
    objects: list[str] = []
    actions: list[tuple[str, str]] = []

    def flush():
        triples.update((o, s, a) for o in objects for s, a in actions)
        objects.clear()
        actions.clear()

    for line in lines[1:-1]:
        if line == "right:":
            flush()
        elif line.startswith("object "):
            objects.append(line[len("object "):])
        elif line.startswith("action "):
            service, _, action = line[len("action "):].partition(":")
            actions.append((service, action))
        else:
            raise ValueError(f"unexpected policy line {line!r}")
    flush()
    return frozenset(triples)


@dataclass
class Tally:
    """Outcomes per operation kind: attempted, failed, and content errors."""

    attempted: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    failed: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    wrong_content: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    examples: list[str] = field(default_factory=list)

    def record(self, kind: str, expected: str, actual: str, content_ok: bool = True,
               detail: str = "") -> bool:
        """Count one operation; True when its outcome and content match the oracle."""
        self.attempted[kind] += 1
        ok = expected == actual and content_ok
        if not ok:
            self.failed[kind] += 1
            if expected == actual:
                self.wrong_content[kind] += 1
            if len(self.examples) < 8:
                self.examples.append(f"{kind}: expected {expected}, got {actual} {detail}".rstrip())
        return ok

    def merge(self, other: "Tally") -> None:
        for mine, theirs in ((self.attempted, other.attempted), (self.failed, other.failed),
                             (self.wrong_content, other.wrong_content)):
            for kind, n in theirs.items():
                mine[kind] += n
        self.examples.extend(other.examples[:8 - len(self.examples)])

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def content_errors(self) -> int:
        return sum(self.wrong_content.values())
