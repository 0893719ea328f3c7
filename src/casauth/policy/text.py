"""Canonical text form of cas-simple-v1 documents.

    lang: cas-simple-v1
    right:
    object /esg/data/*
    action file:read
    right:
    object /scratch
    action file:read
    action file:write

One header line, then one block per right: the right's objects first, then
its actions. The same bytes serve as restriction bodies inside proxy
certificates and as on-disk policy files. An empty document (header only)
grants nothing.
"""

from __future__ import annotations

from ..errors import ParseError, UnsupportedLanguage
from ..lines import join_lines, split_lines
from .model import LANGUAGE, Action, ObjectPattern, PolicyDocument, Right

_HEADER = f"lang: {LANGUAGE}"


def serialize_policy(doc: PolicyDocument) -> bytes:
    lines = [_HEADER]
    for right in doc.rights:
        lines.append("right:")
        lines.extend(f"object {p.pattern}" for p in right.objects)
        lines.extend(f"action {a.service_type}:{a.action_name}" for a in right.actions)
    return join_lines(lines)


def _parse_action(token: str, line_no: int) -> Action:
    service, sep, action = token.partition(":")
    if not sep:
        raise ParseError("action must be service:name", line=line_no)
    try:
        return Action(service, action)
    except ValueError as exc:
        raise ParseError(str(exc), line=line_no) from None


def parse_policy(data: bytes) -> PolicyDocument:
    """Parse policy text; total over byte strings (ParseError, never a crash)."""
    return policy_from_lines(split_lines(data), 1)


def policy_from_lines(lines: list[str], first_line: int) -> PolicyDocument:
    """Parse policy text already split into lines, numbered from ``first_line``."""
    if not lines:
        raise ParseError("empty document", line=first_line)
    if lines[0] != _HEADER:
        if lines[0].startswith("lang: "):
            raise UnsupportedLanguage(f"unsupported language {lines[0][6:]!r}",
                                      line=first_line)
        raise ParseError(f"expected {_HEADER!r} header", line=first_line)

    rights: list[Right] = []
    objects: list[ObjectPattern] = []
    actions: list[Action] = []
    in_right = False

    def finish(line_no: int) -> None:
        if not objects:
            raise ParseError("right block has no objects", line=line_no)
        if not actions:
            raise ParseError("right block has no actions", line=line_no)
        rights.append(Right(tuple(objects), tuple(actions)))
        objects.clear()
        actions.clear()

    for i, line in enumerate(lines[1:], first_line + 1):
        if line == "right:":
            if in_right:
                finish(i)
            in_right = True
        elif line.startswith("object "):
            if not in_right:
                raise ParseError("object line outside a right block", line=i)
            if actions:
                raise ParseError("objects must precede actions within a right", line=i)
            try:
                objects.append(ObjectPattern(line[len("object "):]))
            except ValueError as exc:
                raise ParseError(str(exc), line=i) from None
        elif line.startswith("action "):
            if not in_right:
                raise ParseError("action line outside a right block", line=i)
            actions.append(_parse_action(line[len("action "):], i))
        else:
            raise ParseError(f"unrecognized line {line!r}", line=i)
    if in_right:
        finish(first_line + len(lines) - 1)
    return PolicyDocument(rights=tuple(rights))
