"""Community database: membership, groups, policy statements, snapshots.

The snapshot is a line-oriented text file with five fixed sections. Names
are listed sorted, and statements in ascending id order, the order
``CommunityDB.statements`` always keeps them in. So re-saving a snapshot
casd wrote is byte-identical; other input that loads (names out of order,
say) is re-saved in this form. Numbers take only the spelling ``str(n)``
writes, so ``01`` is refused. Statements out of id order are refused:

    [users]
    alice enrolled CN=alice
    [resources]
    esg-t42 /esg/data/t42.nc
    [user-groups]
    climate: alice bob
    [resource-groups]
    esg-sets: esg-t42
    [statements]
    next-id 4
    1 group:climate rgroup:esg-sets file read
    3 user:alice pattern:/scratch/* file write

User, resource and group names are printable ASCII tokens (``is_token``).
An identity is any nonempty line (``is_identity``), the rule certificate
subjects follow, so every enrolled identity is one a certificate can carry.
Statement grantees are ``user:<name>`` or ``group:<user group>``; objects
are ``resource:<name>``, ``rgroup:<resource group>``, or a literal
``pattern:<object pattern>``. The ``next-id`` line preserves the statement
counter across revocations. Trust anchors are not part of the snapshot:
casd takes them from its trust-store file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import InvariantViolation, ParseError
from ..lines import (is_identity, is_token, join_lines, nonnegative_int, read_file,
                     split_lines, write_file)
from ..policy.model import Action, ObjectPattern

GRANTEE_USER = "user"
GRANTEE_GROUP = "group"
OBJECT_RESOURCE = "resource"
OBJECT_RGROUP = "rgroup"
OBJECT_PATTERN = "pattern"

_SECTIONS = ("[users]", "[resources]", "[user-groups]", "[resource-groups]",
             "[statements]")


@dataclass
class UserEntry:
    identity: str
    enrolled: bool = True


@dataclass(frozen=True)
class PolicyStatement:
    id: int
    grantee_kind: str
    grantee: str
    object_kind: str
    object_ref: str
    service_type: str
    action_name: str


@dataclass
class CommunityDB:
    users: dict[str, UserEntry] = field(default_factory=dict)
    resources: dict[str, str] = field(default_factory=dict)
    user_groups: dict[str, set[str]] = field(default_factory=dict)
    resource_groups: dict[str, set[str]] = field(default_factory=dict)
    statements: list[PolicyStatement] = field(default_factory=list)  # by ascending id
    next_statement_id: int = 1

    def clone(self) -> "CommunityDB":
        # statements are frozen, so a shallow copy of their list suffices
        return CommunityDB(
            users={k: UserEntry(v.identity, v.enrolled) for k, v in self.users.items()},
            resources=dict(self.resources),
            user_groups={k: set(v) for k, v in self.user_groups.items()},
            resource_groups={k: set(v) for k, v in self.resource_groups.items()},
            statements=list(self.statements),
            next_statement_id=self.next_statement_id,
        )


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise InvariantViolation(message)


# Each rule below is checked by ``validate_db`` over a whole snapshot and by
# the admin verbs over just what they touch.

def check_name(kind: str, name: str) -> None:
    """Names of users, resources, and groups: single printable tokens.

    No ``*``: an admin request names its group as a concrete object.
    """
    if not is_token(name) or any(c in name for c in ":[]*"):
        raise InvariantViolation(f"bad {kind} name {name!r}")


def check_identity(name: str, identity: str) -> None:
    if not is_identity(identity):
        raise InvariantViolation(f"bad identity for user {name!r}")


# ``owner`` and ``key`` name what holds the pattern or action, for the error.

def check_pattern(pattern: str, owner: str, key) -> None:
    try:
        ObjectPattern(pattern)
    except ValueError as exc:
        raise InvariantViolation(f"{owner} {key!r}: {exc}") from None


def check_action(service: str, action: str, owner: str, key) -> None:
    try:
        Action(service, action)
    except ValueError as exc:
        raise InvariantViolation(f"{owner} {key!r}: {exc}") from None


def validate_db(db: CommunityDB) -> None:
    """Raise InvariantViolation if any referential invariant is broken."""
    identities_seen: set[str] = set()
    for name, entry in db.users.items():
        check_name("user", name)
        check_identity(name, entry.identity)
        if entry.enrolled:
            _check(entry.identity not in identities_seen,
                   f"identity {entry.identity!r} enrolled twice")
            identities_seen.add(entry.identity)
    for name, pattern in db.resources.items():
        check_name("resource", name)
        check_pattern(pattern, "resource", name)
    for group, members in db.user_groups.items():
        check_name("group", group)
        _check(group not in db.resource_groups,
               f"group name {group!r} used for both kinds")
        for member in members:
            _check(member in db.users, f"group {group!r} member {member!r} not a user")
            _check(db.users[member].enrolled,
                   f"group {group!r} member {member!r} is not enrolled")
    for group, members in db.resource_groups.items():
        check_name("group", group)
        for member in members:
            _check(member in db.resources,
                   f"resource group {group!r} member {member!r} not a resource")
    previous = 0
    for stmt in db.statements:
        _check(stmt.id > previous, f"statement id {stmt.id} not above {previous}")
        previous = stmt.id
        if stmt.grantee_kind == GRANTEE_USER:
            _check(stmt.grantee in db.users,
                   f"statement {stmt.id} grantee {stmt.grantee!r} not a user")
        elif stmt.grantee_kind == GRANTEE_GROUP:
            _check(stmt.grantee in db.user_groups,
                   f"statement {stmt.id} grantee {stmt.grantee!r} not a user group")
        else:
            raise InvariantViolation(f"statement {stmt.id}: bad grantee kind")
        if stmt.object_kind == OBJECT_RESOURCE:
            _check(stmt.object_ref in db.resources,
                   f"statement {stmt.id} object {stmt.object_ref!r} not a resource")
        elif stmt.object_kind == OBJECT_RGROUP:
            _check(stmt.object_ref in db.resource_groups,
                   f"statement {stmt.id} object {stmt.object_ref!r} not a resource group")
        elif stmt.object_kind == OBJECT_PATTERN:
            check_pattern(stmt.object_ref, "statement", stmt.id)
        else:
            raise InvariantViolation(f"statement {stmt.id}: bad object kind")
        check_action(stmt.service_type, stmt.action_name, "statement", stmt.id)
    _check(db.next_statement_id > previous,
           "next statement id must be positive and exceed every statement id")


# --- snapshot serialization --------------------------------------------------

def serialize_db(db: CommunityDB) -> bytes:
    lines = ["[users]"]
    for name in sorted(db.users):
        entry = db.users[name]
        flag = "enrolled" if entry.enrolled else "unenrolled"
        lines.append(f"{name} {flag} {entry.identity}")
    lines.append("[resources]")
    for name in sorted(db.resources):
        lines.append(f"{name} {db.resources[name]}")
    lines.append("[user-groups]")
    for group in sorted(db.user_groups):
        members = " ".join(sorted(db.user_groups[group]))
        lines.append(f"{group}:" + (f" {members}" if members else ""))
    lines.append("[resource-groups]")
    for group in sorted(db.resource_groups):
        members = " ".join(sorted(db.resource_groups[group]))
        lines.append(f"{group}:" + (f" {members}" if members else ""))
    lines.append("[statements]")
    lines.append(f"next-id {db.next_statement_id}")
    for stmt in db.statements:
        lines.append(f"{stmt.id} {stmt.grantee_kind}:{stmt.grantee} "
                     f"{stmt.object_kind}:{stmt.object_ref} "
                     f"{stmt.service_type} {stmt.action_name}")
    return join_lines(lines)


def parse_tagged(token: str, kinds: tuple[str, ...],
                 line_no: int | None = None) -> tuple[str, str]:
    kind, sep, value = token.partition(":")
    if not sep or kind not in kinds or not value:
        raise ParseError(f"expected one of {kinds} with ':<value>', got {token!r}",
                         line=line_no)
    return kind, value


def parse_db(data: bytes) -> CommunityDB:
    db = CommunityDB()
    section = None
    saw_next_id = False
    expected = list(_SECTIONS)
    for i, line in enumerate(split_lines(data), 1):
        if line in _SECTIONS:
            if not expected or line != expected[0]:
                raise ParseError(f"section {line} out of order", line=i)
            section = expected.pop(0)
            continue
        if section == "[users]":
            parts = line.split(" ", 2)
            if len(parts) != 3 or parts[1] not in ("enrolled", "unenrolled"):
                raise ParseError("expected '<name> enrolled|unenrolled <identity>'",
                                 line=i)
            name, flag, identity = parts
            if name in db.users:
                raise ParseError(f"duplicate user {name!r}", line=i)
            db.users[name] = UserEntry(identity, flag == "enrolled")
        elif section == "[resources]":
            parts = line.split(" ")
            if len(parts) != 2:
                raise ParseError("expected '<name> <pattern>'", line=i)
            if parts[0] in db.resources:
                raise ParseError(f"duplicate resource {parts[0]!r}", line=i)
            db.resources[parts[0]] = parts[1]
        elif section in ("[user-groups]", "[resource-groups]"):
            name, sep, rest = line.partition(":")
            if not sep:
                raise ParseError("expected '<group>: members...'", line=i)
            members = rest.split()
            target = db.user_groups if section == "[user-groups]" else db.resource_groups
            if name in target:
                raise ParseError(f"duplicate group {name!r}", line=i)
            target[name] = set(members)
        elif section == "[statements]":
            if line.startswith("next-id "):
                if saw_next_id:
                    raise ParseError("duplicate next-id", line=i)
                try:
                    db.next_statement_id = nonnegative_int(line[len("next-id "):])
                except ValueError:
                    raise ParseError("next-id is not a whole number", line=i) from None
                saw_next_id = True
                continue
            parts = line.split(" ")
            if len(parts) != 5:
                raise ParseError("expected '<id> <grantee> <object> <service> <action>'",
                                 line=i)
            try:
                stmt_id = nonnegative_int(parts[0])
            except ValueError:
                raise ParseError("statement id is not a whole number", line=i) from None
            gk, gv = parse_tagged(parts[1], (GRANTEE_USER, GRANTEE_GROUP), i)
            ok, ov = parse_tagged(parts[2], (OBJECT_RESOURCE, OBJECT_RGROUP,
                                             OBJECT_PATTERN), i)
            db.statements.append(PolicyStatement(stmt_id, gk, gv, ok, ov,
                                                 parts[3], parts[4]))
        else:
            raise ParseError(f"content before first section: {line!r}", line=i)
    if expected:
        raise ParseError(f"missing section {expected[0]}")
    if not saw_next_id:
        raise ParseError("missing next-id line in [statements]")
    validate_db(db)
    return db


def save_db(db: CommunityDB, path) -> None:
    """Write the snapshot durably and atomically, readable by its owner only."""
    write_file(path, serialize_db(db), "snapshot", 0o600)


def load_db(path) -> CommunityDB:
    return parse_db(read_file(path, "snapshot"))
