"""Delegated administration.

Admin rights are ordinary policy statements under the reserved service
type ``cas``: the action is the verb name and the object names what the
verb touches ("users", "resources", "statements", or a group name). That
lets a community grant, say, enroll-user without group-add, or group
editing limited to one project group, through the same policy engine that
governs everything else. A configured bootstrap identity bypasses the
check so a fresh server can be set up at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    DuplicateName,
    InvariantViolation,
    NotAuthorized,
    UnknownActor,
    UnknownName,
)
from ..lines import nonnegative_int
from ..policy.engine import evaluate
from ..policy.model import Request
from .db import (
    CommunityDB,
    GRANTEE_GROUP,
    GRANTEE_USER,
    OBJECT_PATTERN,
    OBJECT_RESOURCE,
    OBJECT_RGROUP,
    PolicyStatement,
    UserEntry,
    check_action,
    check_identity,
    check_name,
    check_pattern,
    parse_tagged,
    validate_db,  # noqa: F401 - not called; perfbench/wrappers.py still wraps it here
)
from .rights import compute_user_rights, find_user

ADMIN_SERVICE = "cas"

# verb -> (arguments, target): the target is the policy object an actor
# must hold the verb on, a fixed name or the index of the argument that
# names a group
_VERBS = {
    "enroll-user": (2, "users"),           # <name> <identity>, identity may contain spaces
    "unenroll-user": (1, "users"),         # <name>
    "enroll-resource": (2, "resources"),   # <name> <object pattern>
    "create-group": (2, 1),                # user|resource <name>
    "group-add": (2, 0),                   # <group> <member>
    "group-remove": (2, 0),                # <group> <member>
    "grant": (4, "statements"),            # user:N|group:N resource:N|rgroup:N|pattern:P <svc> <act>
    "revoke": (1, "statements"),           # <statement id>
}


@dataclass(frozen=True)
class AdminCommand:
    verb: str
    args: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


def admin_target(cmd: AdminCommand) -> str:
    """The policy object an actor must hold rights on for this command.

    Raises InvariantViolation for an unknown verb, a wrong argument count,
    or a target group name that no group could have.
    """
    if cmd.verb not in _VERBS:
        raise InvariantViolation(f"unknown admin verb {cmd.verb!r}")
    want, target = _VERBS[cmd.verb]
    # enroll-user's identity is its last argument and may contain spaces
    if len(cmd.args) < want or (len(cmd.args) > want and cmd.verb != "enroll-user"):
        raise InvariantViolation(f"{cmd.verb} takes {want} arguments")
    if isinstance(target, int):
        target = cmd.args[target]
        check_name("group", target)
    return target


def authorize_admin(db: CommunityDB, actor_identity: str, cmd: AdminCommand,
                    bootstrap_admin: str | None = None) -> bool:
    """Decide whether the actor may run the command.

    Raises UnknownActor for identities that are neither enrolled nor the
    configured bootstrap administrator.
    """
    target = admin_target(cmd)
    if bootstrap_admin is not None and actor_identity == bootstrap_admin:
        return True
    if find_user(db, actor_identity) is None:
        raise UnknownActor(f"identity {actor_identity!r} is not enrolled")
    return evaluate(compute_user_rights(db, actor_identity),
                    Request(ADMIN_SERVICE, cmd.verb, target))


def _require_new_group_name(db: CommunityDB, name: str) -> None:
    if name in db.user_groups or name in db.resource_groups:
        raise DuplicateName(f"group {name!r} already exists")


def _mutate(db: CommunityDB, cmd: AdminCommand) -> None:
    """Apply the command after checking every rule it could break.

    This is the only check on the write path: given a valid database, a
    command that returns leaves one that ``validate_db`` accepts.
    """
    verb, args = cmd.verb, cmd.args

    if verb == "enroll-user":
        name, identity = args[0], " ".join(args[1:])
        check_name("user", name)
        entry = db.users.get(name)
        if entry is not None and entry.enrolled:
            raise DuplicateName(f"user {name!r} already enrolled")
        other = find_user(db, identity)
        if other is not None:
            raise DuplicateName(f"identity {identity!r} already enrolled as {other!r}")
        check_identity(name, identity)
        db.users[name] = UserEntry(identity, True)

    elif verb == "unenroll-user":
        entry = db.users.get(args[0])
        if entry is None:
            raise UnknownName(f"no user {args[0]!r}")
        entry.enrolled = False
        for members in db.user_groups.values():
            members.discard(args[0])

    elif verb == "enroll-resource":
        name, pattern = args
        check_name("resource", name)
        if name in db.resources:
            raise DuplicateName(f"resource {name!r} already enrolled")
        check_pattern(pattern, "resource", name)
        db.resources[name] = pattern

    elif verb == "create-group":
        kind, name = args
        if kind not in ("user", "resource"):
            raise InvariantViolation("group kind must be 'user' or 'resource'")
        check_name("group", name)
        _require_new_group_name(db, name)
        (db.user_groups if kind == "user" else db.resource_groups)[name] = set()

    elif verb in ("group-add", "group-remove"):
        group, member = args
        if group in db.user_groups:
            members, known = db.user_groups[group], db.users
            enrolled = member in known and known[member].enrolled
        elif group in db.resource_groups:
            members, enrolled = db.resource_groups[group], member in db.resources
        else:
            raise UnknownName(f"no group {group!r}")
        if verb == "group-add":
            if not enrolled:
                raise InvariantViolation(
                    f"{member!r} is not an enrolled member candidate for {group!r}")
            members.add(member)
        else:
            if member not in members:
                raise UnknownName(f"{member!r} not in group {group!r}")
            members.discard(member)

    elif verb == "grant":
        gk, gv = parse_tagged(args[0], (GRANTEE_USER, GRANTEE_GROUP))
        ok, ov = parse_tagged(args[1], (OBJECT_RESOURCE, OBJECT_RGROUP, OBJECT_PATTERN))
        if gk == GRANTEE_USER and gv not in db.users:
            raise UnknownName(f"no user {gv!r}")
        if gk == GRANTEE_GROUP and gv not in db.user_groups:
            raise UnknownName(f"no user group {gv!r}")
        if ok == OBJECT_RESOURCE and ov not in db.resources:
            raise UnknownName(f"no resource {ov!r}")
        if ok == OBJECT_RGROUP and ov not in db.resource_groups:
            raise UnknownName(f"no resource group {ov!r}")
        if ok == OBJECT_PATTERN:
            check_pattern(ov, "statement", db.next_statement_id)
        check_action(args[2], args[3], "statement", db.next_statement_id)
        # the new id exceeds every other, so appending keeps the id order
        db.statements.append(PolicyStatement(db.next_statement_id, gk, gv, ok, ov,
                                             args[2], args[3]))
        db.next_statement_id += 1

    elif verb == "revoke":
        try:
            stmt_id = nonnegative_int(args[0])
        except ValueError:
            raise InvariantViolation(f"revoke takes a statement id, got {args[0]!r}") from None
        for i, stmt in enumerate(db.statements):
            if stmt.id == stmt_id:
                del db.statements[i]
                return
        raise UnknownName(f"no statement {stmt_id}")


def apply_admin(db: CommunityDB, actor_identity: str, cmd: AdminCommand,
                bootstrap_admin: str | None = None) -> CommunityDB:
    """Authorize, then apply the command to a copy of the database.

    The input database is never mutated: a failed command leaves caller
    state untouched, which is what makes persistence atomic.
    """
    if not authorize_admin(db, actor_identity, cmd, bootstrap_admin):
        raise NotAuthorized(f"{actor_identity!r} may not {cmd.verb}")
    new_db = db.clone()
    _mutate(new_db, cmd)
    return new_db
