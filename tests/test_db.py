"""Community database snapshots: round trips, canonical form, validation."""

import dataclasses
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casauth.casd.db import (
    CommunityDB,
    PolicyStatement,
    UserEntry,
    check_identity,
    load_db,
    parse_db,
    save_db,
    serialize_db,
    validate_db,
)
from casauth.credential.certs import KIND_IDENTITY, Certificate, ValidityInterval
from casauth.errors import CasError, InvariantViolation, IoError, ParseError
from casauth.harness.runtime import make_policy
from casauth.policy.model import Request
from casauth.resourced.grants import parse_grant_table, serialize_grant_table
from casauth.resourced.storage import VirtualRoot, handle_file_op

from genutils import random_db


def populated_db() -> CommunityDB:
    db = CommunityDB()
    db.users["alice"] = UserEntry("CN=alice")
    db.users["bob"] = UserEntry("CN=bob", enrolled=False)
    db.resources["esg-data"] = "/esg/data/*"
    db.user_groups["climate"] = {"alice"}
    db.user_groups["ocean"] = set()
    db.resource_groups["esg-sets"] = {"esg-data"}
    db.statements.append(PolicyStatement(1, "group", "climate", "rgroup",
                                         "esg-sets", "file", "read"))
    db.statements.append(PolicyStatement(4, "user", "alice", "pattern",
                                         "/scratch/*", "file", "write"))
    db.next_statement_id = 5
    return db


def test_snapshot_round_trip(tmp_path):
    db = populated_db()
    path = tmp_path / "community.db"
    save_db(db, path)
    assert load_db(path) == db


def test_snapshot_double_round_trip_byte_identical():
    rng = random.Random(21)
    for _ in range(100):
        db = random_db(rng)
        once = serialize_db(db)
        assert serialize_db(parse_db(once)) == once


def test_identity_may_contain_spaces(tmp_path):
    db = CommunityDB()
    db.users["ann"] = UserEntry("CN=Ann Example, O=ESG")
    path = tmp_path / "db"
    save_db(db, path)
    assert load_db(path).users["ann"].identity == "CN=Ann Example, O=ESG"


def test_identity_no_certificate_can_carry_is_refused_on_load():
    data = (b"[users]\nann enrolled CN=a\rb\n[resources]\n[user-groups]\n"
            b"[resource-groups]\n[statements]\nnext-id 1\n")
    with pytest.raises(InvariantViolation):
        parse_db(data)


def test_group_member_not_a_user_rejected_on_load():
    text = ("[users]\n"
            "[resources]\n"
            "[user-groups]\n"
            "climate: ghost\n"
            "[resource-groups]\n"
            "[statements]\n"
            "next-id 1\n")
    with pytest.raises(InvariantViolation):
        parse_db(text.encode())


def test_group_member_must_be_enrolled():
    db = populated_db()
    db.user_groups["climate"].add("bob")  # bob is unenrolled
    with pytest.raises(InvariantViolation):
        validate_db(db)


def test_statement_references_validated():
    db = populated_db()
    db.statements.append(PolicyStatement(3, "user", "ghost", "pattern",
                                         "/x/*", "file", "read"))
    with pytest.raises(InvariantViolation):
        validate_db(db)


def test_ghost_grantee_with_ascending_id_rejected():
    db = populated_db()
    db.statements.append(PolicyStatement(5, "user", "ghost", "pattern",
                                         "/x/*", "file", "read"))
    db.next_statement_id = 6
    with pytest.raises(InvariantViolation, match="ghost"):
        validate_db(db)


def test_statements_out_of_id_order_rejected_on_load():
    head = ("[users]\n"
            "alice enrolled CN=alice\n"
            "[resources]\n"
            "[user-groups]\n"
            "[resource-groups]\n"
            "[statements]\n"
            "next-id 5\n")
    first = "1 user:alice pattern:/a/* file read\n"
    second = "4 user:alice pattern:/b/* file read\n"
    in_order = (head + first + second).encode()
    assert serialize_db(parse_db(in_order)) == in_order
    with pytest.raises(InvariantViolation, match="statement id 1"):
        parse_db((head + second + first).encode())


def test_duplicate_statement_ids_rejected():
    db = populated_db()
    db.statements.append(PolicyStatement(1, "user", "alice", "pattern",
                                         "/x/*", "file", "read"))
    with pytest.raises(InvariantViolation):
        validate_db(db)


def test_next_id_must_exceed_existing():
    db = populated_db()
    db.next_statement_id = 4
    with pytest.raises(InvariantViolation):
        validate_db(db)


def _add_statement(grantee, obj, service="file", action="read"):
    def add(db):
        (gk, gv), (ok, ov) = grantee.split(":", 1), obj.split(":", 1)
        db.statements.append(PolicyStatement(5, gk, gv, ok, ov, service, action))
        db.next_statement_id = 6
    return add


# One broken database per rule, with the exact text of its refusal.
_BROKEN = {
    "user name": (lambda db: db.users.update({"a b": UserEntry("CN=ab")}),
                  "bad user name 'a b'"),
    "identity": (lambda db: db.users.update({"ann": UserEntry("CN=a\rb")}),
                 "bad identity for user 'ann'"),
    "identity twice": (lambda db: db.users.update({"ann": UserEntry("CN=alice")}),
                       "identity 'CN=alice' enrolled twice"),
    "resource name": (lambda db: db.resources.update({"x*": "/x"}),
                      "bad resource name 'x*'"),
    "resource pattern": (lambda db: db.resources.update({"x": "/**"}),
                         "resource 'x': '*' may appear only as trailing '/*' or alone: '/**'"),
    "group name": (lambda db: db.user_groups.update({"a:b": set()}),
                   "bad group name 'a:b'"),
    "both kinds": (lambda db: db.resource_groups.update({"climate": set()}),
                   "group name 'climate' used for both kinds"),
    "member not a user": (lambda db: db.user_groups["ocean"].add("ghost"),
                          "group 'ocean' member 'ghost' not a user"),
    "member not enrolled": (lambda db: db.user_groups["ocean"].add("bob"),
                            "group 'ocean' member 'bob' is not enrolled"),
    "resource group member": (lambda db: db.resource_groups["esg-sets"].add("ghost"),
                              "resource group 'esg-sets' member 'ghost' not a resource"),
    "statement order": (lambda db: db.statements.reverse(),
                        "statement id 1 not above 4"),
    "user grantee": (_add_statement("user:ghost", "pattern:/x/*"),
                     "statement 5 grantee 'ghost' not a user"),
    "group grantee": (_add_statement("group:ghost", "pattern:/x/*"),
                      "statement 5 grantee 'ghost' not a user group"),
    "grantee kind": (_add_statement("owner:alice", "pattern:/x/*"),
                     "statement 5: bad grantee kind"),
    "resource object": (_add_statement("user:alice", "resource:ghost"),
                        "statement 5 object 'ghost' not a resource"),
    "rgroup object": (_add_statement("user:alice", "rgroup:ghost"),
                      "statement 5 object 'ghost' not a resource group"),
    "object pattern": (_add_statement("user:alice", "pattern:/**"),
                       "statement 5: '*' may appear only as trailing '/*' or alone: '/**'"),
    "object kind": (_add_statement("user:alice", "file:/x"),
                    "statement 5: bad object kind"),
    "action": (_add_statement("user:alice", "pattern:/x/*", "file", "Read"),
               "statement 5: action name must be a lowercase ASCII token without whitespace"
               " or colons: 'Read'"),
    "next-id": (lambda db: setattr(db, "next_statement_id", 4),
                "next statement id must be positive and exceed every statement id"),
}


@pytest.mark.parametrize("rule", sorted(_BROKEN))
def test_each_rule_reports_its_exact_violation(rule):
    break_db, message = _BROKEN[rule]
    db = populated_db()
    validate_db(db)
    break_db(db)
    with pytest.raises(InvariantViolation) as info:
        validate_db(db)
    assert str(info.value) == message


def test_an_action_is_checked_at_its_first_statement():
    db = populated_db()
    for sid in (5, 6):
        db.statements.append(PolicyStatement(sid, "user", "alice", "pattern", "/x/*",
                                             "file", "Read"))
    db.next_statement_id = 7
    with pytest.raises(InvariantViolation, match="^statement 5: "):
        validate_db(db)


def test_loaded_names_are_shared_and_records_frozen():
    rng = random.Random(27)
    for _ in range(50):
        db = parse_db(serialize_db(random_db(rng)))
        users = {name: name for name in db.users}
        resources = {name: name for name in db.resources}
        for members in db.user_groups.values():
            assert all(member is users[member] for member in members)
        for members in db.resource_groups.values():
            assert all(member is resources[member] for member in members)
        for field_name in ("grantee_kind", "object_kind", "service_type", "action_name"):
            values = [getattr(stmt, field_name) for stmt in db.statements]
            assert len({id(v) for v in values}) == len(set(values))
    entry, stmt = db.users["user0"], PolicyStatement(1, "user", "user0", "pattern",
                                                     "/x/*", "file", "read")
    for record, field_name in ((entry, "enrolled"), (stmt, "grantee")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field_name, None)


@pytest.mark.parametrize("number", ["+1", "1_0", "\u0661", "01", "007"],
                         ids=["plus", "underscore", "arabic-indic", "leading-zero",
                              "leading-zeros"])
@pytest.mark.parametrize("statements", ["next-id {}\n",
                                        "next-id 20\n{} user:alice pattern:/a/* file read\n"],
                         ids=["next-id", "statement-id"])
def test_number_that_is_not_plain_decimal_refused(statements, number):
    text = ("[users]\n"
            "alice enrolled CN=alice\n"
            "[resources]\n"
            "[user-groups]\n"
            "[resource-groups]\n"
            "[statements]\n" + statements.format(number))
    with pytest.raises(ParseError, match="whole number"):
        parse_db(text.encode())


def test_parse_reports_line_numbers():
    text = ("[users]\n"
            "alice enrolled CN=alice\n"
            "broken-line\n")
    with pytest.raises(ParseError) as info:
        parse_db(text.encode())
    assert info.value.line == 3


def test_sections_required_in_order():
    with pytest.raises(ParseError):
        parse_db(b"[resources]\n[users]\n[user-groups]\n[resource-groups]\n"
                 b"[statements]\nnext-id 1\n")


def test_load_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_db(tmp_path / "absent")


def save_snapshot(path):
    save_db(populated_db(), path)
    assert load_db(path) == populated_db()


def write_object(path):
    handle_file_op(VirtualRoot(path.parent), Request("file", "write", "/" + path.name),
                   b"object")
    assert path.read_bytes() == b"object"


# Every file casauth replaces goes through one writer, resource objects too.
@pytest.mark.parametrize("write", [save_snapshot, write_object],
                         ids=["save_db", "storage"])
def test_save_flushes_the_snapshot_to_disk_before_the_rename(tmp_path, monkeypatch,
                                                            write):
    path = tmp_path / "community.db"
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    write(path)
    # The temp file is synced, then becomes the file (a rename keeps the
    # inode), then the directory holding the new name is synced.
    inode = path.stat().st_ino
    assert events == [("fsync", inode), ("replace", inode),
                      ("fsync", tmp_path.stat().st_ino)]


# --- properties of the snapshot text ----------------------------------------------

# Identities are free text apart from line breaks: spaces, colons, brackets.
IDENTITIES = st.text(st.characters(blacklist_characters="\n\r",
                                   blacklist_categories=("Cs",)),
                     min_size=1, max_size=12)


@st.composite
def snapshots(draw) -> bytes:
    db = random_db(draw(st.randoms(use_true_random=False)))
    identities = draw(st.lists(IDENTITIES, unique=True, min_size=len(db.users),
                               max_size=len(db.users)))
    for (name, entry), identity in zip(list(db.users.items()), identities):
        db.users[name] = UserEntry(identity, entry.enrolled)
    return serialize_db(db)


@settings(max_examples=200)
@given(snapshots())
def test_snapshot_text_round_trips(data):
    assert serialize_db(parse_db(data)) == data


def _casd_accepts(identity: str) -> bool:
    try:
        check_identity("ann", identity)
    except InvariantViolation:
        return False
    return True


def _grant_table_accepts(identity: str) -> bool:
    table = {identity: make_policy([("file", ["read"], ["/esg/*"])])}
    try:
        return parse_grant_table(serialize_grant_table(table)) == table
    except (CasError, UnicodeEncodeError):
        return False


def _certificate_accepts(identity: str) -> bool:
    try:
        Certificate(1, identity, "CA", b"key", ValidityInterval(0, 1), KIND_IDENTITY)
    except ValueError:
        return False
    return True


@settings(max_examples=300)
@example("")
@example("CN=a\rb")
@example("CN=a\nb")
@example("CN=\udcff")
@given(st.text(st.characters(blacklist_categories=()) | st.sampled_from("\n\r \t\x00"),
               max_size=6))
def test_casd_grant_tables_and_certificates_accept_the_same_identities(identity):
    casd = _casd_accepts(identity)
    assert _grant_table_accepts(identity) == casd
    assert _certificate_accepts(identity) == casd


_SNAPSHOT_LINES = (
    "[users]", "[resources]", "[user-groups]", "[resource-groups]",
    "[statements]", "next-id 3", "alice enrolled CN=alice",
    "bob unenrolled CN=bob", "data /esg/*", "climate: alice", "sets: data",
    "1 user:alice resource:data file read",
    "2 group:climate rgroup:sets file write",
    "3 user:bob pattern:/x/* file read",
)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_SNAPSHOT_LINES)
                | st.text(alphabet="[]: -/*0123456789abdeilnorstux", max_size=14),
                max_size=16),
       st.booleans())
def test_snapshot_parse_is_total_near_valid(lines, final_linefeed):
    text = "\n".join(lines) + ("\n" if final_linefeed else "")
    try:
        parse_db(text.encode())
    except CasError:
        pass
