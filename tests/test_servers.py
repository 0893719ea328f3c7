"""End-to-end: CAS server and resource server over loopback sockets."""

import itertools
import os
import socket
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casauth.casd.server as casd_server
import casauth.client.api as client_api
import casauth.credential.keys as keys
import casauth.policy.engine as policy_engine
import casauth.resourced.authz as resourced_authz
import casauth.resourced.server as resourced_server
import casauth.wire.frames as wire_frames
import casauth.wire.handshake as wire_handshake
from casauth.casd.db import CommunityDB, load_db
from casauth.casd.issuance import DEFAULT_MAX_LIFETIME
from casauth.casd.server import CasServer
from casauth.client.api import (
    acquire_capability,
    admin_command,
    capability_request_fields,
    expect_reply,
    file_op,
)
from casauth.client.session import ClientSession
from casauth.clocks import ManualClock
from casauth.credential.certs import ValidityInterval, encode_chain
from casauth.credential.issue import CertificateAuthority, reset_serial_counters
from casauth.credential.keys import DEFAULT_SCHEME
from casauth.credential.verify import EnforcementContext, verify_chain
from casauth.errors import (
    REPLY_ERRORS,
    Denied,
    DuplicateName,
    Expired,
    IoError,
    NotAuthorized,
    NotEnrolled,
    NotFound,
    ParseError,
    ProtocolError,
    Refused,
    RestrictedAuthRefused,
    TransportError,
    UnknownName,
)
from casauth.policy.model import ALL, Request
from casauth.policy.engine import evaluate
from casauth.policy.text import parse_policy, serialize_policy
from casauth.resourced.server import ResourceServer
from casauth.harness.runtime import make_policy
from casauth.lines import TEMP_PREFIX
from casauth.wire.frames import encode_message, read_message, send_message
from casauth.wire.handshake import client_handshake

from genutils import spaced_hex

WIDE = ValidityInterval(0, 4_000_000_000)
BOOTSTRAP = "CN=admin"


@pytest.fixture
def world(rng, tmp_path):
    """One CA, one CAS with a populated community, one file server."""
    clock = ManualClock(1_000_000_000)
    ca = CertificateAuthority.create("WorldCA", WIDE, rng=rng)
    store = frozenset({ca.certificate})

    cas_chain, cas_key = ca.issue_credential("cas.esg", WIDE, rng=rng)
    db_path = tmp_path / "community.db"
    cas = CasServer(CommunityDB(), cas_chain, cas_key, trust_store=store,
                    bootstrap_admin=BOOTSTRAP, db_path=str(db_path),
                    clock=clock).start()

    res_chain, res_key = ca.issue_credential("ftp.esg", WIDE, rng=rng)
    root = tmp_path / "root"
    root.mkdir()
    (root / "esg" / "data").mkdir(parents=True)
    (root / "esg" / "data" / "t42.nc").write_bytes(b"temperature-grid")
    table = {"cas.esg": make_policy([("file", ["read", "write", "list"],
                                      ["/esg/*"])])}
    resource = ResourceServer(table, root, res_chain, res_key,
                              trust_store=store, clock=clock).start()

    admin_cred = ca.issue_credential(BOOTSTRAP, WIDE, rng=rng)
    alice_cred = ca.issue_credential("CN=alice", WIDE, rng=rng)

    def admin(verb, *args, cred=admin_cred):
        return admin_command(cas.address, cred[0], cred[1], verb, args,
                             trust_store=store, clock=clock)

    admin("enroll-user", "alice", "CN=alice")
    admin("enroll-resource", "esg-data", "/esg/data/*")
    admin("grant", "user:alice", "resource:esg-data", "file", "read")

    world = {
        "ca": ca, "store": store, "clock": clock, "cas": cas,
        "resource": resource, "admin": admin, "alice": alice_cred,
        "db_path": db_path, "root": root,
    }
    yield world
    cas.shutdown()
    resource.shutdown()


def acquire(world, cred=None, want=ALL, lifetime=3600):
    chain, key = cred or world["alice"]
    return acquire_capability(world["cas"].address, chain, key, want, lifetime,
                              trust_store=world["store"], clock=world["clock"])


def test_acquire_and_read_end_to_end(world):
    capability, session_key = acquire(world)
    subject = verify_chain(capability, world["store"], world["clock"](),
                           EnforcementContext(True, frozenset({"cas-simple-v1"})))
    assert subject.identity == "cas.esg"
    assert subject.restrictions
    data = file_op(world["resource"].address, capability, session_key,
                   "read", "/esg/data/t42.nc",
                   trust_store=world["store"], clock=world["clock"])
    assert data == b"temperature-grid"


def test_capability_reusable_across_connections(world):
    capability, session_key = acquire(world)
    for _ in range(2):
        data = file_op(world["resource"].address, capability, session_key,
                       "read", "/esg/data/t42.nc",
                       trust_store=world["store"], clock=world["clock"])
        assert data == b"temperature-grid"


def test_write_denied_by_capability_side(world):
    capability, session_key = acquire(world)
    with pytest.raises(Denied):
        file_op(world["resource"].address, capability, session_key,
                "write", "/esg/data/t42.nc", b"x",
                trust_store=world["store"], clock=world["clock"])


def test_expired_capability_fails_at_handshake(world):
    capability, session_key = acquire(world, lifetime=100)
    world["clock"].advance(500)
    with pytest.raises(Expired):
        file_op(world["resource"].address, capability, session_key,
                "read", "/esg/data/t42.nc",
                trust_store=world["store"], clock=world["clock"])


def test_unenrolled_user_denied_new_capability_but_old_one_works(world):
    capability, session_key = acquire(world)
    world["admin"]("unenroll-user", "alice")
    with pytest.raises(NotEnrolled):
        acquire(world)
    data = file_op(world["resource"].address, capability, session_key,
                   "read", "/esg/data/t42.nc",
                   trust_store=world["store"], clock=world["clock"])
    assert data == b"temperature-grid"


def test_read_of_missing_file_is_not_found_not_denied(world):
    capability, session_key = acquire(world)
    with pytest.raises(NotFound):
        file_op(world["resource"].address, capability, session_key,
                "read", "/esg/data/absent.nc",
                trust_store=world["store"], clock=world["clock"])


def test_capability_cannot_request_capability(world):
    capability, session_key = acquire(world)
    with pytest.raises(RestrictedAuthRefused):
        acquire(world, cred=(capability, session_key))


def test_capability_cannot_run_admin(world):
    capability, session_key = acquire(world)
    with pytest.raises(RestrictedAuthRefused):
        admin_command(world["cas"].address, capability, session_key,
                      "enroll-user", ("eve", "CN=eve"),
                      trust_store=world["store"], clock=world["clock"])


def test_non_admin_user_denied_admin(world):
    with pytest.raises(NotAuthorized):
        world["admin"]("enroll-user", "eve", "CN=eve", cred=world["alice"])


def test_mutations_persisted_after_each_command(world):
    db = load_db(world["db_path"])
    assert "alice" in db.users
    assert any(s.grantee == "alice" for s in db.statements)
    world["admin"]("enroll-user", "bob", "CN=bob")
    db = load_db(world["db_path"])
    assert "bob" in db.users


def test_direct_local_grant_without_cas(world, rng):
    # CAS-less access: alice's own identity has a row in the grant table
    ca = world["ca"]
    table_server = world["resource"]
    table_server._table["CN=alice"] = make_policy(
        [("file", ["read"], ["/esg/data/*"])])
    chain, key = world["alice"]
    data = file_op(table_server.address, chain, key, "read", "/esg/data/t42.nc",
                   trust_store=world["store"], clock=world["clock"])
    assert data == b"temperature-grid"


def test_want_narrower_than_held(world):
    want = make_policy([("file", ["read"], ["/esg/data/t42.nc"])])
    capability, session_key = acquire(world, want=want)
    doc = parse_policy(capability.leaf.restriction.body)
    assert evaluate(doc, Request("file", "read", "/esg/data/t42.nc"))
    assert not evaluate(doc, Request("file", "read", "/esg/data/other"))


def test_session_private_key_never_sent(world, rng):
    session_pk, session_key = DEFAULT_SCHEME.generate(rng)
    fields = capability_request_fields(ALL, session_pk, 3600)
    frame = encode_message(fields)
    assert session_pk.hex().encode() in frame
    assert DEFAULT_SCHEME.private_bytes(session_key).hex().encode() not in frame
    # and the capability chain the CAS returns carries only the public half
    capability, key = acquire(world)
    assert DEFAULT_SCHEME.private_bytes(key).hex().encode() \
        not in encode_chain(capability)


def test_malformed_frame_gets_error_parse(world):
    with socket.create_connection(world["cas"].address, 5) as sock:
        sock.settimeout(5)
        chain, key = world["alice"]
        client_handshake(sock, chain, key, world["store"], world["clock"]())
        payload = b"not a message\n"
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        reply = read_message(sock)
        assert reply == {"msg": "ERROR", "reason": "parse"}
        # connection still usable afterwards
        send_message(sock, {"msg": "ADMIN", "verb": "enroll-user",
                            "args": "x CN=x"})
        assert read_message(sock)["msg"] == "DENIED"


def test_failed_handshake_means_no_state_change(world, rng):
    other = CertificateAuthority.create("MalloryCA", WIDE, rng=rng)
    mallory = other.issue_credential("CN=mallory", WIDE, rng=rng)
    before = load_db(world["db_path"])
    with pytest.raises(Exception):
        admin_command(world["cas"].address, mallory[0], mallory[1],
                      "enroll-user", ("m", "CN=m"),
                      trust_store=world["store"], clock=world["clock"])
    assert load_db(world["db_path"]) == before


def test_unknown_message_type_is_bad_request(world):
    with socket.create_connection(world["cas"].address, 5) as sock:
        sock.settimeout(5)
        chain, key = world["alice"]
        client_handshake(sock, chain, key, world["store"], world["clock"]())
        send_message(sock, {"msg": "NONSENSE"})
        assert read_message(sock) == {"msg": "ERROR", "reason": "bad-request"}


def test_write_visible_through_read(world):
    world["admin"]("grant", "user:alice", "pattern:/esg/data/*", "file", "write")
    world["admin"]("grant", "user:alice", "pattern:/esg/data", "file", "list")
    capability, session_key = acquire(world)
    file_op(world["resource"].address, capability, session_key,
            "write", "/esg/data/new.nc", b"fresh-bytes",
            trust_store=world["store"], clock=world["clock"])
    data = file_op(world["resource"].address, capability, session_key,
                   "read", "/esg/data/new.nc",
                   trust_store=world["store"], clock=world["clock"])
    assert data == b"fresh-bytes"
    listing = file_op(world["resource"].address, capability, session_key,
                      "list", "/esg/data",
                      trust_store=world["store"], clock=world["clock"])
    assert listing == ["new.nc", "t42.nc"]


def test_write_without_data_is_error_parse(world):
    world["admin"]("grant", "user:alice", "pattern:/esg/data/*", "file", "write")
    capability, session_key = acquire(world)
    request = {"msg": "FILE-OP", "action": "write", "path": "/esg/data/new.nc"}
    with ClientSession(world["resource"].address, capability, session_key,
                       world["store"], clock=world["clock"]) as session:
        assert session.request(request) == {"msg": "ERROR", "reason": "parse"}
    assert not (world["root"] / "esg" / "data" / "new.nc").exists()


def test_transport_error_when_cas_offline(world):
    address = world["cas"].address
    world["cas"].shutdown()
    chain, key = world["alice"]
    with pytest.raises(TransportError):
        acquire_capability(address, chain, key, ALL, 3600,
                           trust_store=world["store"], clock=world["clock"])


def test_concurrent_admin_mutations_all_land(world):
    import threading

    errors = []

    def enroll(i):
        try:
            world["admin"]("enroll-user", f"user{i}", f"CN=user{i}")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=enroll, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    db = load_db(world["db_path"])
    assert all(f"user{i}" in db.users for i in range(8))


def test_concurrent_writes_never_interleave(world):
    import threading

    world["admin"]("grant", "user:alice", "pattern:/esg/data/*", "file", "write")
    capability, session_key = acquire(world)
    payload_a = b"A" * 4096
    payload_b = b"B" * 4096
    failures = []

    def writer(payload):
        try:
            for _ in range(10):
                file_op(world["resource"].address, capability, session_key,
                        "write", "/esg/data/contended", payload,
                        trust_store=world["store"], clock=world["clock"])
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)

    threads = [threading.Thread(target=writer, args=(p,))
               for p in (payload_a, payload_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    final = (world["root"] / "esg" / "data" / "contended").read_bytes()
    assert final in (payload_a, payload_b)


def test_concurrent_writes_and_reads_see_whole_payloads(world):
    import threading

    world["admin"]("grant", "user:alice", "pattern:/esg/data/*", "file", "write")
    capability, session_key = acquire(world)
    payloads = [bytes([65 + i]) * 65536 for i in range(4)]
    seen, failures = [], []

    def op(action, data=None):
        return file_op(world["resource"].address, capability, session_key,
                       action, "/esg/data/shared", data,
                       trust_store=world["store"], clock=world["clock"])

    def writer(payload):
        try:
            for _ in range(5):
                op("write", payload)
                seen.append(op("read"))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
        assert not t.is_alive()
    assert not failures
    assert len(seen) == 20 and all(data in payloads for data in seen)


# --- the error vocabulary on the wire ------------------------------------------

SERVER_REPLIES = [
    (server, cls) for server in (CasServer, ResourceServer)
    for cls in REPLY_ERRORS.values()
    if cls.reason in server.error_reasons
    or (server is CasServer and issubclass(cls, Refused))
]


@pytest.mark.parametrize(
    "server,cls", SERVER_REPLIES,
    ids=[f"{server.name}-{cls.reason}" for server, cls in SERVER_REPLIES])
def test_every_reply_reason_round_trips_to_its_class(server, cls):
    reply = server.failure_reply(cls("x"))
    with pytest.raises(cls) as raised:
        expect_reply(reply, "OK")
    assert type(raised.value) is cls


def test_server_vocabularies_are_covered_by_the_client():
    for server in (CasServer, ResourceServer):
        assert server.error_reasons <= set(REPLY_ERRORS)


def test_failure_outside_the_vocabulary_is_internal():
    # casd's own snapshot write failing is not an error the protocol names.
    assert CasServer.failure_reply(IoError("disk full")) == \
        {"msg": "ERROR", "reason": "internal"}
    with pytest.raises(ProtocolError):
        expect_reply({"msg": "ERROR", "reason": "internal"}, "OK")


def test_enroll_existing_user_is_duplicate_name(world):
    with pytest.raises(DuplicateName):
        world["admin"]("enroll-user", "alice", "CN=alice")


@pytest.mark.parametrize("identity", ["CN=Ann  Example", "CN=Ann\tExample", " CN=Ann"])
def test_enrolled_identity_keeps_its_whitespace(world, rng, identity):
    cred = world["ca"].issue_credential(identity, WIDE, rng=rng)
    world["admin"]("enroll-user", "ann", identity)
    assert load_db(world["db_path"]).users["ann"].identity == identity
    world["admin"]("grant", "user:ann", "resource:esg-data", "file", "read")
    acquire(world, cred=cred)  # DENIED not-enrolled if the identity changed


def test_capability_without_lifetime_gets_the_server_cap(world):
    chain, key = world["alice"]
    session_pk, _ = DEFAULT_SCHEME.generate()
    assert "lifetime" not in capability_request_fields(ALL, session_pk)
    capability, _ = acquire_capability(world["cas"].address, chain, key, ALL,
                                       trust_store=world["store"], clock=world["clock"])
    validity = capability.leaf.validity
    assert validity.not_after - validity.not_before == DEFAULT_MAX_LIFETIME


def test_unenroll_unknown_user_is_unknown_name(world):
    with pytest.raises(UnknownName):
        world["admin"]("unenroll-user", "nobody")


def test_malformed_grant_tag_is_error_parse(world):
    before = world["db_path"].read_bytes()
    with pytest.raises(ParseError):
        world["admin"]("grant", "owner:alice", "resource:esg-data", "file", "read")
    assert world["db_path"].read_bytes() == before


# --- one request path for both servers ---------------------------------------------

def open_session(world, server):
    """A session on ``server`` as alice: her identity on casd, her capability elsewhere."""
    if server == "casd":
        chain, key = world["alice"]
        address = world["cas"].address
    else:
        chain, key = acquire(world)
        address = world["resource"].address
    return ClientSession(address, chain, key, world["store"], clock=world["clock"])


# One well-formed request per server and its reply. No request alice can send
# changes that reply: she is not an administrator, and her capability only reads.
WELL_FORMED = {
    "casd": ({"msg": "ADMIN", "verb": "enroll-user", "args": "x CN=x"},
             {"msg": "DENIED", "reason": "not-authorized"}),
    "resourced": ({"msg": "FILE-OP", "action": "read", "path": "/esg/data/t42.nc"},
                  {"msg": "OK", "data": b"temperature-grid".hex()}),
}

_LINE_TEXT = st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")
_KEYS = st.sampled_from(("verb", "args", "want", "policy", "session-pk", "lifetime",
                         "action", "path", "service", "data")) | st.text(
    st.characters(blacklist_categories=("Cs", "Zs", "Cc"), blacklist_characters=":"),
    min_size=1, max_size=8).filter(lambda key: key != "msg")
_VALUES = (st.text(_LINE_TEXT, max_size=30)
           | st.binary(max_size=40).map(bytes.hex)
           | st.sampled_from(("all", "read", "write", "list", "enroll-user", "-5",
                              "/esg/data/t42.nc", "/esg/../..", "ff" * 32,
                              serialize_policy(make_policy(
                                  [("file", ["read"], ["/esg/*"])])).hex())))
_MESSAGES = st.builds(
    lambda kind, fields: {"msg": kind, **fields},
    st.sampled_from(("ADMIN", "REQUEST-CAPABILITY", "FILE-OP"))
    | st.text(_LINE_TEXT, min_size=1, max_size=12),
    st.dictionaries(_KEYS, _VALUES, max_size=5))


def in_vocabulary(reply):
    if reply["msg"] in ("OK", "CAPABILITY"):
        return True
    reason = reply.get("reason")
    return reply["msg"] in ("DENIED", "ERROR") and (
        reason in REPLY_ERRORS or reason == "internal")


@pytest.mark.parametrize("server", ["casd", "resourced"])
def test_every_answer_is_in_the_vocabulary_and_the_session_survives(world, server):
    follow_up, expected = WELL_FORMED[server]
    with open_session(world, server) as session:

        @settings(max_examples=200, deadline=None, database=None)
        @given(_MESSAGES)
        def answers(message):
            reply = session.request(message)
            assert in_vocabulary(reply), (message, reply)
            assert session.request(follow_up) == expected

        answers()


_PK_HEX = DEFAULT_SCHEME.generate()[0].hex()
_POLICY_HEX = serialize_policy(make_policy([("file", ["read"], ["/esg/data/*"])])).hex()


@pytest.mark.parametrize("fields", [
    {"session-pk": "zz"}, {"lifetime": "-5"}, {"lifetime": "soon"},
    {"policy": "not hex"}, {"session-pk": _PK_HEX.upper()},
    {"session-pk": spaced_hex(_PK_HEX)}, {"policy": _POLICY_HEX.upper()},
    {"policy": spaced_hex(_POLICY_HEX)}, {"lifetime": "007"},
], ids=["session-pk", "lifetime-negative", "lifetime-word", "policy",
        "session-pk-upper-case", "session-pk-spaced", "policy-upper-case",
        "policy-spaced", "lifetime-leading-zeros"])
def test_casd_field_that_does_not_decode_is_error_parse(world, fields):
    request = {"msg": "REQUEST-CAPABILITY", "want": "all",
               "session-pk": DEFAULT_SCHEME.generate()[0].hex(), **fields}
    with open_session(world, "casd") as session:
        assert session.request(request) == {"msg": "ERROR", "reason": "parse"}


@pytest.mark.parametrize("data", ["zz", "4A", "41 42"],
                         ids=["not-hex", "upper-case", "spaced"])
def test_resourced_data_that_does_not_decode_is_error_parse(world, data):
    request = {"msg": "FILE-OP", "action": "write", "path": "/esg/data/n", "data": data}
    with open_session(world, "resourced") as session:
        assert session.request(request) == {"msg": "ERROR", "reason": "parse"}


@pytest.mark.parametrize("server, module, attr", [
    ("casd", casd_server, "apply_admin"),
    ("resourced", resourced_server, "handle_file_op"),
], ids=["casd", "resourced"])
def test_handler_failure_is_error_internal_and_the_session_survives(
        world, monkeypatch, caplog, server, module, attr):
    original, failed = getattr(module, attr), []

    def fails_once(*args):
        if not failed:
            failed.append(True)
            raise RuntimeError("handler bug")
        return original(*args)

    monkeypatch.setattr(module, attr, fails_once)
    follow_up, expected = WELL_FORMED[server]
    with open_session(world, server) as session:
        assert session.request(follow_up) == {"msg": "ERROR", "reason": "internal"}
        assert session.request(follow_up) == expected
    assert "handler bug" in caplog.text


def test_nul_in_an_object_name_is_path_escape_and_logs_no_traceback(world, caplog):
    capability, session_key = acquire(world)
    with ClientSession(world["resource"].address, capability, session_key,
                       world["store"], clock=world["clock"]) as session:
        reply = session.request({"msg": "FILE-OP", "action": "read",
                                 "path": "/esg/data/a\x00b"})
        assert reply == {"msg": "ERROR", "reason": "path-escape"}
        assert session.request(WELL_FORMED["resourced"][0])["msg"] == "OK"
    assert not [record for record in caplog.records if record.exc_info]


def test_list_leaves_out_names_that_are_not_utf8(world):
    world["admin"]("grant", "user:alice", "pattern:/esg/mixed", "file", "list")
    mixed = world["root"] / "esg" / "mixed"
    mixed.mkdir()
    (mixed / "ok").write_bytes(b"")
    open(os.fsencode(mixed) + b"/bad\xff", "wb").close()
    capability, session_key = acquire(world)
    with ClientSession(world["resource"].address, capability, session_key,
                       world["store"], clock=world["clock"]) as session:
        reply = session.request({"msg": "FILE-OP", "action": "list", "path": "/esg/mixed"})
        assert reply == {"msg": "OK", "data": b"ok".hex()}
        assert session.request(WELL_FORMED["resourced"][0])["msg"] == "OK"


# Directory entries as bytes: names no frame can carry (line breaks, bytes that
# are not UTF-8), names the server refuses (a wildcard, the temp prefix), names
# a request can carry (a space, non-ASCII text), and any other short name.
_READABLE_NAMES = [b"with space", "caf\u00e9 \u00a1".encode()]
_SEEDED_NAMES = [b"a\nb", b"c\rd", b"st*r", b"bad\xff",
                 TEMP_PREFIX.encode() + b"0123456789abcdef", *_READABLE_NAMES]
_ENTRY_NAMES = (st.sampled_from(_SEEDED_NAMES)
                | st.binary(min_size=1, max_size=6).filter(
                    lambda name: b"/" not in name and b"\0" not in name
                    and name not in (b".", b"..")))


def test_list_shows_exactly_the_entries_a_read_reaches(world):
    world["admin"]("grant", "user:alice", "pattern:/esg/listed/*", "file", "read")
    world["admin"]("grant", "user:alice", "pattern:/esg/listed/*", "file", "list")
    capability, session_key = acquire(world)
    directories = itertools.count()
    with ClientSession(world["resource"].address, capability, session_key,
                       world["store"], clock=world["clock"]) as session:

        def file_op(action, path):
            try:
                return session.request({"msg": "FILE-OP", "action": action, "path": path})
            except ProtocolError:  # the client cannot send this path
                return None

        @settings(max_examples=40, deadline=None, database=None)
        @example(_SEEDED_NAMES)
        @given(st.lists(_ENTRY_NAMES, unique=True, max_size=6))
        def listing(names):
            directory = f"/esg/listed/{next(directories)}"
            real = os.fsencode(world["root"]) + directory.encode()
            os.makedirs(real)
            for name in names:
                with open(real + b"/" + name, "wb") as fh:
                    fh.write(b"bytes of " + name)
            reached = []
            for name in names:
                reply = file_op("read", f"{directory}/{os.fsdecode(name)}")
                if reply is not None and reply["msg"] == "OK":
                    assert bytes.fromhex(reply["data"]) == b"bytes of " + name
                    reached.append(os.fsdecode(name))
                elif name in _READABLE_NAMES:
                    pytest.fail(f"{name!r} does not read: {reply}")
            reply = file_op("list", directory)
            assert reply["msg"] == "OK", reply
            data = bytes.fromhex(reply["data"])
            assert (data.decode().split("\n") if data else []) == sorted(reached)

        listing()


@pytest.mark.parametrize("call, reply", [
    ("acquire", {"msg": "CAPABILITY"}),
    ("acquire", {"msg": "CAPABILITY", "chain": "zz"}),
    ("read", {"msg": "OK"}),
    ("read", {"msg": "OK", "data": "zz"}),
    ("list", {"msg": "OK", "data": "zz"}),
    ("list", {"msg": "OK", "data": "ff"}),
], ids=["chain-missing", "chain-not-hex", "data-missing", "data-not-hex",
        "list-not-hex", "list-not-utf8"])
def test_reply_field_that_does_not_decode_is_parse_error(monkeypatch, call, reply):
    monkeypatch.setattr(ClientSession, "connect", lambda self: self)
    monkeypatch.setattr(ClientSession, "request", lambda self, fields: reply)
    with pytest.raises(ParseError):
        if call == "acquire":
            acquire_capability(("127.0.0.1", 1), None, None, trust_store=())
        else:
            file_op(("127.0.0.1", 1), None, None, call, "/x", trust_store=())


# --- the call sites the benchmark's tracer wraps ---------------------------------

def test_benchmark_observation_points_are_called(world, monkeypatch):
    calls = {}

    def count(owner, attr):
        original = getattr(owner, attr)
        key = f"{owner.__name__}.{attr}"
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    for module in (casd_server, resourced_server):
        count(module, "server_handshake")
        count(module, "serve_messages")
    count(keys.Ed25519Scheme, "generate")

    capability, session_key = acquire(world)
    file_op(world["resource"].address, capability, session_key,
            "read", "/esg/data/t42.nc",
            trust_store=world["store"], clock=world["clock"])
    assert all(calls.values()), calls


def test_codec_observation_points_are_called(world, monkeypatch):
    # The module globals through which the benchmark times chain decoding,
    # chain verification, framing, policy parsing and the resource's two
    # policy checks.
    calls = {}

    def count(owner, attr):
        original = getattr(owner, attr)
        key = f"{owner.__name__}.{attr}"
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    count(wire_handshake, "decode_chain")
    count(wire_handshake, "verify_chain")
    count(wire_frames, "encode_message")
    count(client_api, "decode_chain")
    count(policy_engine, "parse_policy")
    count(resourced_authz, "evaluate_all")
    count(resourced_server, "authorize")

    capability, session_key = acquire(world)
    assert capability.leaf.restriction is not None
    file_op(world["resource"].address, capability, session_key,
            "read", "/esg/data/t42.nc",
            trust_store=world["store"], clock=world["clock"])
    assert all(calls.values()), calls


# --- validity inside an open session, and a restart ---------------------------------

def test_expired_capability_refused_inside_open_session(world):
    capability, session_key = acquire(world, lifetime=100)
    request = {"msg": "FILE-OP", "action": "read", "path": "/esg/data/t42.nc"}
    with ClientSession(world["resource"].address, capability, session_key,
                       world["store"], clock=world["clock"]) as session:
        assert expect_reply(session.request(request), "OK")
        world["clock"].advance(500)
        with pytest.raises(Expired):
            expect_reply(session.request(request), "OK")


def test_expired_credential_refused_inside_open_casd_session(world, rng):
    now = world["clock"]()
    chain, key = world["ca"].issue_credential(
        "CN=alice", ValidityInterval(now, now + 100), rng=rng)
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    request = capability_request_fields(ALL, session_pk, 60)
    with ClientSession(world["cas"].address, chain, key, world["store"],
                       clock=world["clock"]) as session:
        assert expect_reply(session.request(request), "CAPABILITY")
        world["clock"].advance(500)
        with pytest.raises(Expired):
            expect_reply(session.request(request), "CAPABILITY")


def test_restarted_casd_issues_new_serial_and_proxy_group(world):
    before, _ = acquire(world)
    old = world["cas"]
    old.shutdown()
    reset_serial_counters()  # what a new process would start from
    cas = CasServer(load_db(world["db_path"]), old._chain, old._leaf_key,
                    trust_store=world["store"], db_path=str(world["db_path"]),
                    clock=world["clock"]).start()
    try:
        chain, key = world["alice"]
        after, _ = acquire_capability(cas.address, chain, key, ALL, 3600,
                                      trust_store=world["store"], clock=world["clock"])
    finally:
        cas.shutdown()
    assert after.leaf.serial != before.leaf.serial
    assert after.leaf.proxy_group != before.leaf.proxy_group
