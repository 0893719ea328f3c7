"""Delegated administration: who may run which verb, and what it does."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casauth.casd.admin import AdminCommand, _mutate, apply_admin, authorize_admin
from casauth.casd.db import CommunityDB, parse_db, serialize_db, validate_db
from casauth.errors import (
    CasError,
    DuplicateName,
    InvariantViolation,
    NotAuthorized,
    UnknownActor,
    UnknownName,
)

from genutils import ACTIONS, PATTERNS, SERVICES, random_db

BOOTSTRAP = "CN=root-admin"


def cmd(verb, *args) -> AdminCommand:
    return AdminCommand(verb, tuple(args))


def bootstrap_apply(db, *commands):
    for c in commands:
        db = apply_admin(db, BOOTSTRAP, c, BOOTSTRAP)
    return db


@pytest.fixture
def db():
    return bootstrap_apply(
        CommunityDB(),
        cmd("enroll-user", "alice", "CN=alice"),
        cmd("enroll-user", "pi", "CN=pi"),
        cmd("enroll-user", "geo", "CN=geo"),
        cmd("create-group", "user", "proj-climate"),
        cmd("create-group", "user", "proj-ocean"),
        cmd("enroll-resource", "esg-data", "/esg/data/*"),
    )


def test_bootstrap_admin_passes_every_verb(db):
    for c in (cmd("enroll-user", "x", "CN=x"), cmd("create-group", "user", "g"),
              cmd("grant", "user:alice", "resource:esg-data", "file", "read")):
        assert authorize_admin(db, BOOTSTRAP, c, BOOTSTRAP)


def test_unknown_actor(db):
    with pytest.raises(UnknownActor):
        authorize_admin(db, "CN=stranger", cmd("enroll-user", "x", "CN=x"), BOOTSTRAP)


def test_enrollment_only_admin_cannot_edit_groups(db):
    # geographically distributed admins: may enroll users, nothing else
    db = bootstrap_apply(
        db, cmd("grant", "user:geo", "pattern:users", "cas", "enroll-user"))
    assert authorize_admin(db, "CN=geo", cmd("enroll-user", "x", "CN=x"),
                           BOOTSTRAP)
    assert not authorize_admin(db, "CN=geo", cmd("group-add", "proj-climate", "alice"),
                               BOOTSTRAP)
    with pytest.raises(NotAuthorized):
        apply_admin(db, "CN=geo", cmd("group-add", "proj-climate", "alice"), BOOTSTRAP)


def test_pi_can_edit_only_their_project_group(db):
    db = bootstrap_apply(
        db,
        cmd("grant", "user:pi", "pattern:proj-climate", "cas", "group-add"),
        cmd("grant", "user:pi", "pattern:proj-climate", "cas", "group-remove"),
    )
    assert authorize_admin(db, "CN=pi", cmd("group-add", "proj-climate", "alice"),
                           BOOTSTRAP)
    assert authorize_admin(db, "CN=pi", cmd("group-remove", "proj-climate", "alice"),
                           BOOTSTRAP)
    assert not authorize_admin(db, "CN=pi", cmd("group-add", "proj-ocean", "alice"),
                               BOOTSTRAP)
    assert not authorize_admin(db, "CN=pi", cmd("enroll-user", "x", "CN=x"),
                               BOOTSTRAP)


def test_wildcard_grant_covers_all_groups(db):
    db = bootstrap_apply(db, cmd("grant", "user:pi", "pattern:*", "cas", "group-add"))
    assert authorize_admin(db, "CN=pi", cmd("group-add", "proj-ocean", "alice"),
                           BOOTSTRAP)


@pytest.mark.parametrize("command", [cmd("create-group", "user", "proj*"),
                                     cmd("group-add", "proj*", "alice")],
                         ids=["create-group", "group-add"])
@pytest.mark.parametrize("actor", [BOOTSTRAP, "CN=pi"], ids=["bootstrap", "delegated"])
def test_bad_group_name_is_refused_alike_for_every_actor(db, actor, command):
    db = bootstrap_apply(db,
                         cmd("grant", "user:pi", "pattern:*", "cas", "create-group"),
                         cmd("grant", "user:pi", "pattern:*", "cas", "group-add"))
    with pytest.raises(InvariantViolation, match="bad group name 'proj\\*'"):
        apply_admin(db, actor, command, BOOTSTRAP)


def test_enroll_then_group_add(db):
    db = bootstrap_apply(db, cmd("group-add", "proj-climate", "alice"))
    assert "alice" in db.user_groups["proj-climate"]


def test_group_add_unenrolled_member_rejected(db):
    with pytest.raises(InvariantViolation):
        bootstrap_apply(db, cmd("group-add", "proj-climate", "mallory"))


def test_unenroll_removes_group_memberships(db):
    db = bootstrap_apply(db, cmd("group-add", "proj-climate", "alice"),
                         cmd("unenroll-user", "alice"))
    assert not db.users["alice"].enrolled
    assert "alice" not in db.user_groups["proj-climate"]
    # the user row survives so statements stay referentially valid
    assert "alice" in db.users


def test_duplicate_enrollment_rejected(db):
    with pytest.raises(DuplicateName):
        bootstrap_apply(db, cmd("enroll-user", "alice", "CN=alice2"))
    with pytest.raises(DuplicateName):
        bootstrap_apply(db, cmd("enroll-user", "alice2", "CN=alice"))


def test_reenrollment_after_unenroll(db):
    db = bootstrap_apply(db, cmd("unenroll-user", "alice"),
                         cmd("enroll-user", "alice", "CN=alice"))
    assert db.users["alice"].enrolled


def test_group_names_unique_across_kinds(db):
    with pytest.raises(DuplicateName):
        bootstrap_apply(db, cmd("create-group", "resource", "proj-climate"))


def test_group_name_with_wildcard_refused(db):
    # no delegated admin could name such a group in an admin request
    with pytest.raises(InvariantViolation):
        bootstrap_apply(db, cmd("create-group", "user", "proj*"))
    snapshot = serialize_db(db).replace(b"[user-groups]\n",
                                        b"[user-groups]\nproj*:\n")
    with pytest.raises(InvariantViolation):
        parse_db(snapshot)


def test_grant_and_revoke(db):
    db = bootstrap_apply(
        db, cmd("grant", "user:alice", "resource:esg-data", "file", "read"))
    granted = [s for s in db.statements if s.grantee == "alice"]
    assert len(granted) == 1
    db = bootstrap_apply(db, cmd("revoke", str(granted[0].id)))
    assert all(s.grantee != "alice" for s in db.statements)
    with pytest.raises(UnknownName):
        bootstrap_apply(db, cmd("revoke", str(granted[0].id)))


@pytest.mark.parametrize("number", ["+1", "1_0", "\u0661", "01", "007"])
def test_revoke_takes_a_plain_decimal_id(db, number):
    db = bootstrap_apply(db, *[cmd("grant", "user:alice", "resource:esg-data",
                                   "file", "read")] * 10)
    with pytest.raises(InvariantViolation, match="statement id"):
        bootstrap_apply(db, cmd("revoke", number))


def test_grant_to_unknown_referents_rejected(db):
    with pytest.raises(UnknownName):
        bootstrap_apply(db, cmd("grant", "user:ghost", "resource:esg-data",
                                "file", "read"))
    with pytest.raises(UnknownName):
        bootstrap_apply(db, cmd("grant", "user:alice", "resource:ghost",
                                "file", "read"))


def test_failed_command_leaves_db_unchanged(db):
    before = serialize_db(db)
    with pytest.raises(UnknownName):
        apply_admin(db, BOOTSTRAP, cmd("revoke", "999"), BOOTSTRAP)
    with pytest.raises(InvariantViolation):
        apply_admin(db, BOOTSTRAP, cmd("group-add", "proj-climate", "mallory"),
                    BOOTSTRAP)
    assert serialize_db(db) == before


def test_unknown_verb_rejected(db):
    with pytest.raises(InvariantViolation):
        authorize_admin(db, BOOTSTRAP, cmd("drop-table"), BOOTSTRAP)


def test_arity_validated(db):
    with pytest.raises(InvariantViolation):
        authorize_admin(db, BOOTSTRAP, cmd("group-add", "proj-climate"), BOOTSTRAP)


def test_spaced_identity_enrollment(db):
    db = bootstrap_apply(db, cmd("enroll-user", "ann", "CN=Ann", "Example"))
    assert db.users["ann"].identity == "CN=Ann Example"


def test_enrollment_refuses_an_identity_no_certificate_can_carry(db):
    with pytest.raises(InvariantViolation):
        bootstrap_apply(db, cmd("enroll-user", "ann", "CN=b\rc"))


# --- the write path checks each command once ---------------------------------------

def checked_whole(db, c):
    """The write path as it was: mutate a copy, then validate all of it."""
    authorize_admin(db, BOOTSTRAP, c, BOOTSTRAP)
    new_db = db.clone()
    _mutate(new_db, c)
    validate_db(new_db)
    return new_db


def outcome(apply, *args):
    try:
        return apply(*args)
    except CasError as exc:
        return type(exc)


# random_db names users user0.., resources res0.., groups ugroup0.. and rgroup0..
_USERS = tuple(f"user{i}" for i in range(5))
_RESOURCES = tuple(f"res{i}" for i in range(4))
_GROUPS = ("ugroup0", "ugroup1", "ugroup2", "rgroup0", "rgroup1")
_BAD_NAMES = ("", "two words", "a:b", "[x]", "caf\u00e9", "a*",
              "a\x00b", "a\x1bb", "a\x7fb")
_BAD_TERMS = ("", "File", "x:y", "two words")


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_enrollment_refuses_every_bad_name(db, name):
    with pytest.raises(InvariantViolation):
        bootstrap_apply(db, cmd("enroll-user", name, "CN=new"))


def _commands(users, resources, groups, identities, patterns, grantees, objects,
              services, actions, ids):
    pick = st.sampled_from
    return st.one_of(
        st.builds(lambda n, i: cmd("enroll-user", n, *i), pick(users), pick(identities)),
        st.builds(lambda n: cmd("unenroll-user", n), pick(users)),
        st.builds(lambda n, p: cmd("enroll-resource", n, p), pick(resources),
                  pick(patterns)),
        st.builds(lambda k, g: cmd("create-group", k, g), pick(("user", "resource")),
                  pick(groups)),
        st.builds(lambda v, g, m: cmd(v, g, m), pick(("group-add", "group-remove")),
                  pick(groups), pick(users + resources)),
        st.builds(lambda g, o, s, a: cmd("grant", g, o, s, a), pick(grantees),
                  pick(objects), pick(services), pick(actions)),
        st.builds(lambda i: cmd("revoke", i), pick(ids)),
    )


# Commands built mostly from well-formed parts (a third of the enrollments
# carry an empty or multi-line identity), and commands built mostly from
# malformed ones: bad names, bad patterns and actions, unknown references,
# re-enrollment, non-integer statement ids, and unknown verbs or arities.
commands = st.one_of(
    _commands(
        users=_USERS + ("fresh0", "fresh1"), resources=_RESOURCES + ("fresh-res",),
        groups=_GROUPS + ("fresh-group",),
        identities=(("CN=fresh0",), ("CN=fresh1",), ("CN=Ann", "Example"), ("CN=user0",),
                    ("",), ("CN=a\nb",)),
        patterns=PATTERNS,
        grantees=tuple(f"user:{u}" for u in _USERS) + ("group:ugroup0", "group:ugroup1"),
        objects=(tuple(f"resource:{r}" for r in _RESOURCES) + ("rgroup:rgroup0",)
                 + tuple(f"pattern:{p}" for p in PATTERNS)),
        services=SERVICES, actions=ACTIONS, ids=tuple(str(i) for i in range(1, 11))),
    _commands(
        users=_BAD_NAMES + ("ghost", "user0"), resources=_BAD_NAMES + ("res0",),
        groups=_BAD_NAMES + ("ghost", "rgroup0"),
        identities=(("",), ("CN=a\nb",), (), ("CN=user1",)),
        patterns=("", "a b", "/a*/b", "/**"),
        grantees=("user:ghost", "group:rgroup0", "group:ghost", "user", "user:",
                  "owner:user0", "user:user0"),
        objects=("resource:ghost", "rgroup:ugroup0", "pattern:a b", "pattern:/**", "res0",
                 "pattern:", "resource:res0"),
        services=_BAD_TERMS + ("file",), actions=_BAD_TERMS + ("read",),
        ids=("0", "-1", "x", "", "99")),
    st.sampled_from((cmd("drop-table"), cmd("revoke"), cmd("grant", "user:user0"),
                     cmd("create-group", "other", "fresh-group"))),
)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(commands, max_size=8))
def test_apply_admin_agrees_with_whole_database_validation(rng, sequence):
    db = random_db(rng)
    for c in sequence:
        got = outcome(apply_admin, db, BOOTSTRAP, c, BOOTSTRAP)
        assert got == outcome(checked_whole, db, c), c
        if isinstance(got, CommunityDB):
            db = got
