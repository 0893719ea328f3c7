"""Deriving a user's effective rights and intersecting requested rights."""

from __future__ import annotations

from ..policy.engine import grants
from ..policy.model import Action, ObjectPattern, PolicyDocument, Right
from .db import (
    CommunityDB,
    GRANTEE_USER,
    OBJECT_PATTERN,
    OBJECT_RESOURCE,
    OBJECT_RGROUP,
)


def find_user(db: CommunityDB, identity: str) -> str | None:
    """Name of the enrolled user with this identity, if any."""
    for name, entry in db.users.items():
        if entry.enrolled and entry.identity == identity:
            return name
    return None


def _expand_objects(db: CommunityDB, kind: str, ref: str) -> list[str]:
    if kind == OBJECT_RESOURCE:
        return [db.resources[ref]]
    if kind == OBJECT_RGROUP:
        return [db.resources[m] for m in sorted(db.resource_groups[ref])]
    assert kind == OBJECT_PATTERN
    return [ref]


def compute_user_rights(db: CommunityDB, user_identity: str) -> PolicyDocument:
    """Union of every statement reaching the user, directly or via groups.

    Unknown or unenrolled identities get the empty (deny-all) document.
    Statement objects expand: a resource to its object string, a resource
    group to all member object strings, a literal pattern to itself.
    """
    name = find_user(db, user_identity)
    if name is None:
        return PolicyDocument()
    groups = {g for g, members in db.user_groups.items() if name in members}
    rights: list[Right] = []
    for stmt in db.statements:  # already in id order
        if stmt.grantee_kind == GRANTEE_USER:
            if stmt.grantee != name:
                continue
        elif stmt.grantee not in groups:
            continue
        objects = _expand_objects(db, stmt.object_kind, stmt.object_ref)
        if not objects:
            continue  # empty resource group grants nothing
        rights.append(Right(tuple(ObjectPattern(o) for o in objects),
                            (Action(stmt.service_type, stmt.action_name),)))
    return PolicyDocument(rights=tuple(rights))


def intersect_documents(held: PolicyDocument, requested: PolicyDocument) -> PolicyDocument:
    """Narrow ``requested`` to what ``held`` covers.

    A requested (pattern, action) pair survives when ``held`` grants the
    action on the requested pattern; partially overlapping patterns are
    narrowed to the requested side, never widened.
    """
    out: list[Right] = []
    for right in requested.rights:
        for obj in right.objects:
            actions = tuple(a for a in right.actions
                            if grants(held, a.service_type, a.action_name, obj.pattern))
            if actions:
                out.append(Right((obj,), actions))
    return PolicyDocument(rights=tuple(out))
