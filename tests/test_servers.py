"""End-to-end: CAS server and resource server over loopback sockets."""

import socket
import struct

import pytest

import casauth.casd.server as casd_server
import casauth.client.api as client_api
import casauth.credential.keys as keys
import casauth.policy.engine as policy_engine
import casauth.resourced.server as resourced_server
import casauth.wire.frames as wire_frames
import casauth.wire.handshake as wire_handshake
from casauth.casd.db import CommunityDB, load_db
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
from casauth.policy.text import parse_policy
from casauth.resourced.server import ResourceServer
from casauth.harness.runtime import make_policy
from casauth.wire.frames import encode_message, read_message, send_message
from casauth.wire.handshake import client_handshake

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
    cas = CasServer(CommunityDB(trust_anchors=store), cas_chain, cas_key,
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
    db = load_db(world["db_path"], world["store"])
    assert "alice" in db.users
    assert any(s.grantee == "alice" for s in db.statements)
    world["admin"]("enroll-user", "bob", "CN=bob")
    db = load_db(world["db_path"], world["store"])
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
    assert evaluate(doc, Request("file", "read", "/esg/data/t42.nc")).is_permit
    assert not evaluate(doc, Request("file", "read", "/esg/data/other")).is_permit


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
    before = load_db(world["db_path"], world["store"])
    with pytest.raises(Exception):
        admin_command(world["cas"].address, mallory[0], mallory[1],
                      "enroll-user", ("m", "CN=m"),
                      trust_store=world["store"], clock=world["clock"])
    assert load_db(world["db_path"], world["store"]) == before


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
    db = load_db(world["db_path"], world["store"])
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


def test_unenroll_unknown_user_is_unknown_name(world):
    with pytest.raises(UnknownName):
        world["admin"]("unenroll-user", "nobody")


def test_malformed_grant_tag_is_error_parse(world):
    before = world["db_path"].read_bytes()
    with pytest.raises(ParseError):
        world["admin"]("grant", "owner:alice", "resource:esg-data", "file", "read")
    assert world["db_path"].read_bytes() == before


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
    # chain verification, framing and policy parsing.
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
    cas = CasServer(load_db(world["db_path"], world["store"]), old._chain,
                    old._leaf_key, db_path=str(world["db_path"]),
                    clock=world["clock"]).start()
    try:
        chain, key = world["alice"]
        after, _ = acquire_capability(cas.address, chain, key, ALL, 3600,
                                      trust_store=world["store"], clock=world["clock"])
    finally:
        cas.shutdown()
    assert after.leaf.serial != before.leaf.serial
    assert after.leaf.proxy_group != before.leaf.proxy_group
