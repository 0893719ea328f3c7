"""Community database snapshots: round trips, canonical form, validation."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casauth.casd.db import (
    CommunityDB,
    PolicyStatement,
    UserEntry,
    load_db,
    parse_db,
    save_db,
    serialize_db,
    validate_db,
)
from casauth.errors import CasError, InvariantViolation, IoError, ParseError

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


def test_save_flushes_the_snapshot_to_disk_before_the_rename(tmp_path, monkeypatch):
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
    save_db(populated_db(), path)
    # The temp file is synced, then becomes the snapshot (a rename keeps the inode).
    inode = path.stat().st_ino
    assert events == [("fsync", inode), ("replace", inode)]
    assert load_db(path) == populated_db()


def test_trust_anchors_reattached_on_load(tmp_path, ca):
    anchors = frozenset({ca.certificate})
    db = populated_db()
    db.trust_anchors = anchors
    path = tmp_path / "db"
    save_db(db, path)
    assert load_db(path, anchors) == db
    assert load_db(path).trust_anchors == frozenset()


# --- properties of the snapshot text ----------------------------------------------

# Identities are free text apart from the linefeed: spaces, colons, brackets.
IDENTITIES = st.text(st.characters(blacklist_characters="\n",
                                   blacklist_categories=("Cs",)),
                     min_size=1, max_size=12)


@st.composite
def snapshots(draw) -> bytes:
    db = random_db(draw(st.randoms(use_true_random=False)))
    identities = draw(st.lists(IDENTITIES, unique=True, min_size=len(db.users),
                               max_size=len(db.users)))
    for entry, identity in zip(db.users.values(), identities):
        entry.identity = identity
    return serialize_db(db)


@settings(max_examples=200)
@given(snapshots())
def test_snapshot_text_round_trips(data):
    assert serialize_db(parse_db(data)) == data


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
