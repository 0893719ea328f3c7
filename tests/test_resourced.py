"""Two-sided enforcement at the resource, and the virtual filesystem."""

import os
import random
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casauth.credential.certs import RestrictionPolicy, ValidityInterval
from casauth.credential.verify import VerifiedSubject
from casauth.errors import (
    CasError,
    IsDirectory,
    NotDirectory,
    NotFound,
    ParseError,
    PathEscape,
)
from casauth.lines import TEMP_PREFIX
from casauth.policy.engine import EvaluatorRegistry
from casauth.policy.model import (
    Action,
    ObjectPattern,
    PolicyDocument,
    Request,
    Right,
)
from casauth.policy.text import serialize_policy
from casauth.resourced.authz import ServiceRegistry, authorize
from casauth.resourced.grants import (
    load_grant_table,
    parse_grant_table,
    save_grant_table,
    serialize_grant_table,
)
from casauth.resourced.server import ResourceServer
from casauth.resourced.storage import VirtualRoot, canonical_name, handle_file_op

from genutils import ACTIONS, OBJECTS, random_document
from oracles import oracle_evaluate, oracle_stack

REGISTRY = ServiceRegistry()
EVALUATORS = EvaluatorRegistry()
VALID = ValidityInterval(0, 10**9)


def subject_with(restrictions, identity="cas.esg") -> VerifiedSubject:
    stack = tuple(RestrictionPolicy("cas-simple-v1", serialize_policy(d))
                  for d in restrictions)
    return VerifiedSubject(identity, b"\x01" * 32, VALID, stack, ("cas-session-1",))


def doc(*rights) -> PolicyDocument:
    return PolicyDocument(rights=tuple(
        Right(tuple(ObjectPattern(p) for p in patterns),
              tuple(Action("file", a) for a in actions))
        for patterns, actions in rights))


def permits(table, subject, req) -> bool:
    return authorize(table, subject, REGISTRY, req, EVALUATORS)


def test_intersection_example_from_the_esg_setting():
    table = {"cas.esg": doc((["/esg/*"], ["read", "write"]))}
    capability = doc((["/esg/data/*"], ["read"]))
    subject = subject_with([capability])
    assert permits(table, subject, Request("file", "read", "/esg/data/t42.nc"))
    # bearer side lacks write even though the grantor holds it
    assert not permits(table, subject, Request("file", "write", "/esg/data/t42.nc"))
    # grantor side lacks /other even if the capability claims it
    wide = subject_with([doc((["/other/*"], ["read"]))])
    assert not permits(table, wide, Request("file", "read", "/other/x"))


def test_missing_grant_row_denies_everything():
    subject = subject_with([doc((["*"], ["read", "write", "list"]))],
                           identity="cas.rogue")
    table = {"cas.esg": doc((["*"], ["read"]))}
    for action in ACTIONS:
        for obj in OBJECTS:
            assert not permits(table, subject, Request("file", action, obj))


def test_unknown_service_type_and_action_denied():
    table = {"cas.esg": doc((["*"], ["read"]))}
    subject = subject_with([])
    assert not permits(table, subject, Request("tape", "read", "/esg/x"))
    assert not authorize(table, subject, REGISTRY,
                         Request("file", "chmod", "/esg/x"), EVALUATORS)


def test_unrestricted_user_chain_with_direct_grant():
    # CAS-less access: local policy enforced locally
    table = {"CN=alice": doc((["/home/alice/*"], ["read", "write"]))}
    subject = subject_with([], identity="CN=alice")
    assert permits(table, subject, Request("file", "read", "/home/alice/notes"))
    assert not permits(table, subject, Request("file", "read", "/esg/x"))


def test_two_sided_intersection_against_oracle():
    rng = random.Random(51)
    for _ in range(400):
        local_doc = random_document(rng, services=("file",))
        stack = [random_document(rng, services=("file",))
                 for _ in range(rng.randint(0, 4))]
        table = {"cas.esg": local_doc}
        subject = subject_with(stack)
        action = rng.choice(ACTIONS)
        obj = rng.choice(OBJECTS)
        req = Request("file", action, obj)
        expected = oracle_evaluate(local_doc, req) and oracle_stack(stack, req)
        assert permits(table, subject, req) == expected


def test_monotone_in_local_grants():
    rng = random.Random(52)
    for _ in range(200):
        local_doc = random_document(rng, services=("file",))
        extra = random_document(rng, services=("file",), max_rights=1)
        widened = PolicyDocument(rights=local_doc.rights + extra.rights)
        stack = [random_document(rng, services=("file",))]
        subject = subject_with(stack)
        req = Request("file", rng.choice(ACTIONS), rng.choice(OBJECTS))
        if permits({"cas.esg": local_doc}, subject, req):
            assert permits({"cas.esg": widened}, subject, req)


# --- virtual root -----------------------------------------------------------------

def test_write_then_read_round_trip(tmp_path):
    root = VirtualRoot(tmp_path)
    payload = b"temperature grid \x00\x01"
    handle_file_op(root, Request("file", "write", "/esg/data/new.nc"), payload)
    assert handle_file_op(root, Request("file", "read", "/esg/data/new.nc")) == payload


def test_read_missing_is_not_found(tmp_path):
    with pytest.raises(NotFound):
        handle_file_op(VirtualRoot(tmp_path), Request("file", "read", "/absent"))


def test_list_sorted_and_type_errors(tmp_path):
    root = VirtualRoot(tmp_path)
    handle_file_op(root, Request("file", "write", "/d/b"), b"1")
    handle_file_op(root, Request("file", "write", "/d/a"), b"2")
    assert handle_file_op(root, Request("file", "list", "/d")) == ["a", "b"]
    with pytest.raises(NotDirectory):
        handle_file_op(root, Request("file", "list", "/d/a"))
    with pytest.raises(IsDirectory):
        handle_file_op(root, Request("file", "read", "/d"))
    with pytest.raises(IsDirectory):
        handle_file_op(root, Request("file", "write", "/d"), b"3")
    assert stat.S_IMODE((tmp_path / "d" / "a").stat().st_mode) == 0o600


def test_no_temp_file_is_reachable(tmp_path, monkeypatch):
    root = VirtualRoot(tmp_path)
    handle_file_op(root, Request("file", "write", "/d/a"), b"committed")
    seen = []
    replace = os.replace

    def look_then_replace(src, dst):
        # The temp file is whole and not yet renamed over /d/b.
        for name in handle_file_op(root, Request("file", "list", "/d")):
            read = Request("file", "read", "/d/" + name)
            seen.append((name, handle_file_op(root, read)))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", look_then_replace)
    handle_file_op(root, Request("file", "write", "/d/b"), b"pending")
    assert seen == [("a", b"committed")]
    assert handle_file_op(root, Request("file", "list", "/d")) == ["a", "b"]
    with pytest.raises(PathEscape):
        canonical_name("/d/" + TEMP_PREFIX + "x")


@pytest.mark.parametrize("action, name, error", [
    ("read", "/f/x", NotDirectory),
    ("write", "/f/x", NotDirectory),
    ("list", "/f/x", NotDirectory),
    ("read", "/absent", NotFound),
    ("read", "/", IsDirectory),
    ("write", "/", IsDirectory),
    ("read", "/a\x00b", PathEscape),
    ("write", "/a\x00b", PathEscape),
    ("list", "/a\x00b", PathEscape),
])
def test_storage_maps_os_errors_and_opens_nothing_outside_the_root(
        tmp_path, monkeypatch, action, name, error):
    root = tmp_path / "root"
    root.mkdir()
    (root / "f").write_bytes(b"a file")
    opened = []
    real_open = os.open

    def spy(path, *args, **kwargs):
        opened.append(Path(os.path.abspath(path)))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    with pytest.raises(error):
        handle_file_op(VirtualRoot(root), Request("file", action, name), b"x")
    assert all(path.is_relative_to(root) for path in opened), opened


def test_traversal_rejected_before_filesystem_access(tmp_path):
    root = VirtualRoot(tmp_path / "missing-root")  # would fail if touched
    for attack in ("/esg/../../etc", "/..", "/a/../../x", "/../etc/passwd"):
        with pytest.raises(PathEscape):
            root.resolve(attack)
    with pytest.raises(PathEscape):
        root.resolve("relative/name")


def test_normalized_paths_stay_inside_root(tmp_path):
    root = VirtualRoot(tmp_path)
    resolved = root.resolve("/a/./b//c/../d")
    assert resolved == Path(tmp_path) / "a" / "b" / "d"
    assert Path(tmp_path) in resolved.parents


def test_dotdot_inside_root_is_fine(tmp_path):
    root = VirtualRoot(tmp_path)
    handle_file_op(root, Request("file", "write", "/a/b/../c"), b"x")
    assert (tmp_path / "a" / "c").read_bytes() == b"x"


# --- the resource decides on the canonical name ------------------------------------

# The grantor holds /esg and /secret; the capability narrows it to /esg.
ESG_TABLE = {"cas.esg": doc((["/esg/*", "/secret/*"], ["read", "list"]))}
ESG_ONLY = subject_with([doc((["/esg/*"], ["read", "list"]))])


@pytest.fixture(scope="module")
def esg_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("root")
    for name, data in (("esg/a", b"ESG"), ("secret/b", b"SECRET")):
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_bytes(data)
    return ResourceServer(ESG_TABLE, root, None, None, trust_store=(), clock=lambda: 1000)


def file_reply(server, action, path):
    return server._reply({"msg": "FILE-OP", "action": action, "path": path}, ESG_ONLY)


def test_dot_segments_cannot_reach_past_the_capability(esg_server):
    assert file_reply(esg_server, "read", "/esg/../secret/b") == \
        {"msg": "DENIED", "reason": "denied"}
    assert file_reply(esg_server, "read", "/esg//x/.././a") == \
        {"msg": "OK", "data": b"ESG".hex()}


@settings(max_examples=300)
@given(st.lists(st.sampled_from(["esg", "secret", "a", "b", ".", "..", ""]), max_size=6),
       st.booleans(), st.sampled_from(["read", "list"]))
def test_decision_on_raw_name_is_decision_on_canonical_name(esg_server, segments,
                                                            trailing, action):
    raw = "/" + "/".join(segments) + ("/" if trailing else "")
    reply = file_reply(esg_server, action, raw)
    try:
        name = canonical_name(raw)
    except PathEscape:
        assert reply == {"msg": "ERROR", "reason": "path-escape"}
        return
    assert reply == file_reply(esg_server, action, name)
    if reply["msg"] == "OK":
        # Only names both policies match are ever served.
        assert name == "/esg" or name.startswith("/esg/")


# --- grant table files ---------------------------------------------------------------

def test_grant_table_round_trip(tmp_path):
    table = {
        "cas.esg": doc((["/esg/*"], ["read", "write"])),
        "CN=alice": doc((["/home/alice/*"], ["read"])),
    }
    path = tmp_path / "grants"
    save_grant_table(path, table)
    assert load_grant_table(path) == table
    data = serialize_grant_table(table)
    assert serialize_grant_table(parse_grant_table(data)) == data


def test_grant_table_rejects_duplicates():
    block = (b"grantor: x\nlang: cas-simple-v1\n----\n"
             b"grantor: x\nlang: cas-simple-v1\n")
    with pytest.raises(Exception):
        parse_grant_table(block)


def test_grant_table_error_names_the_line_of_the_file():
    data = (b"grantor: a\n"
            b"lang: cas-simple-v1\n"
            b"right:\n"
            b"object /a/*\n"
            b"action file:read\n"
            b"----\n"
            b"grantor: b\n"
            b"lang: cas-simple-v1\n"
            b"right:\n"
            b"object /b/*\n"
            b"action fileread\n")
    with pytest.raises(ParseError) as info:
        parse_grant_table(data)
    assert info.value.line == 11


def test_grant_table_refuses_a_grantor_no_certificate_can_carry():
    with pytest.raises(ParseError):
        parse_grant_table(b"grantor: CN=a\rb\nlang: cas-simple-v1\n")


GRANTORS = st.text(st.characters(blacklist_characters="\n\r",
                                 blacklist_categories=("Cs",)),
                   min_size=1, max_size=12)


@st.composite
def grant_tables(draw) -> bytes:
    rng = draw(st.randoms(use_true_random=False))
    grantors = draw(st.lists(GRANTORS, unique=True, max_size=4))
    return serialize_grant_table({g: random_document(rng) for g in grantors})


@settings(max_examples=200)
@given(grant_tables())
def test_grant_table_text_round_trips(data):
    assert serialize_grant_table(parse_grant_table(data)) == data


_GRANT_LINES = ("grantor: cas.esg", "grantor: CN=alice", "grantor: ",
                "lang: cas-simple-v1", "lang: other", "right:",
                "object /esg/*", "object *", "action file:read",
                "action file:write", "----")


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_GRANT_LINES)
                | st.text(alphabet="grantor: lang-simple-v1\nright:objecta ct*/-",
                          max_size=20),
                max_size=14),
       st.booleans())
def test_grant_table_parse_is_total_near_valid(lines, final_linefeed):
    text = "\n".join(lines) + ("\n" if final_linefeed else "")
    try:
        parse_grant_table(text.encode())
    except CasError:
        pass
