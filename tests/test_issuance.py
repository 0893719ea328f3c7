"""Capability issuance: intersection, sessions, clamping, no amplification."""

import random
import re
import threading

import pytest

from casauth.casd.db import CommunityDB, PolicyStatement, UserEntry
from casauth.casd.issuance import PROXY_GROUP_PREFIX, CapabilityIssuer
from casauth.casd.rights import compute_user_rights
from casauth.credential.certs import ValidityInterval
from casauth.credential.keys import DEFAULT_SCHEME
from casauth.credential.verify import EnforcementContext, same_principal, verify_chain
from casauth.errors import Denied, NotEnrolled, RestrictedAuthRefused
from casauth.policy.engine import evaluate
from casauth.policy.model import (
    ALL,
    Action,
    ObjectPattern,
    PolicyDocument,
    Request,
    Right,
)
from casauth.policy.text import parse_policy

from genutils import ACTIONS, OBJECTS, SERVICES, random_db, random_document
from oracles import oracle_user_rights_permit

WIDE = ValidityInterval(0, 4_000_000_000)
WILLING = EnforcementContext(True, frozenset({"cas-simple-v1"}))
NOW = 1_000_000


@pytest.fixture
def issuer(ca, rng):
    chain, key = ca.issue_credential("cas.esg", WIDE, rng=rng)
    return CapabilityIssuer(chain, key)


@pytest.fixture
def alice_db():
    db = CommunityDB()
    db.users["alice"] = UserEntry("CN=alice")
    db.users["bob"] = UserEntry("CN=bob")
    db.statements.append(PolicyStatement(1, "user", "alice", "pattern",
                                         "/esg/data/*", "file", "read"))
    db.next_statement_id = 2
    return db


def subject_for(ca, rng, identity="CN=alice"):
    chain, key = ca.issue_credential(identity, WIDE, rng=rng)
    return verify_chain(chain, {ca.certificate}, NOW, EnforcementContext()), key


def restriction_doc(capability) -> PolicyDocument:
    return parse_policy(capability.leaf.restriction.body)


def test_capability_passes_through_held_rights(ca, rng, issuer, alice_db):
    subject, _ = subject_for(ca, rng)
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    capability = issuer.request_capability(alice_db, subject, session_pk, ALL,
                                           3600, NOW)
    assert len(capability.certs) == 2
    assert capability.leaf.subject_public_key == session_pk
    doc = restriction_doc(capability)
    assert evaluate(doc, Request("file", "read", "/esg/data/x"))
    assert not evaluate(doc, Request("file", "write", "/esg/data/x"))
    # the chain itself verifies as a restricted credential of the CAS identity
    verified = verify_chain(capability, {ca.certificate}, NOW + 100, WILLING)
    assert verified.identity == "cas.esg"
    assert verified.restrictions


def test_no_rights_means_denied(ca, rng, issuer, alice_db):
    subject, _ = subject_for(ca, rng, "CN=bob")
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    with pytest.raises(Denied):
        issuer.request_capability(alice_db, subject, session_pk, ALL, 3600, NOW)


def test_unenrolled_user_not_enrolled(ca, rng, issuer, alice_db):
    subject, _ = subject_for(ca, rng, "CN=mallory")
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    with pytest.raises(NotEnrolled):
        issuer.request_capability(alice_db, subject, session_pk, ALL, 3600, NOW)


def test_restricted_chain_refused(ca, rng, issuer, alice_db):
    subject, key = subject_for(ca, rng)
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    capability = issuer.request_capability(alice_db, subject, session_pk, ALL,
                                           3600, NOW)
    restricted = verify_chain(capability, {ca.certificate}, NOW, WILLING)
    with pytest.raises(RestrictedAuthRefused):
        issuer.request_capability(alice_db, restricted, session_pk, ALL, 3600, NOW)


def test_sessions_get_distinct_proxy_groups(ca, rng, issuer, alice_db):
    subject, _ = subject_for(ca, rng)
    store = {ca.certificate}
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    first = issuer.request_capability(alice_db, subject, session_pk, ALL, 3600, NOW)
    second = issuer.request_capability(alice_db, subject, session_pk, ALL, 3600, NOW)
    # A second issuer with the same credential, as after a restart.
    other = CapabilityIssuer(issuer.chain, issuer.leaf_key)
    third = other.request_capability(alice_db, subject, session_pk, ALL, 3600, NOW)
    groups = [c.leaf.proxy_group for c in (first, second, third)]
    assert len(set(groups)) == 3
    for group in groups:
        assert group.startswith(PROXY_GROUP_PREFIX)
        assert re.fullmatch(r"[0-9a-f]{16}", group[len(PROXY_GROUP_PREFIX):])
    v_first = verify_chain(first, store, NOW, WILLING)
    v_second = verify_chain(second, store, NOW, WILLING)
    assert not same_principal(v_first, v_second)
    assert same_principal(v_first, verify_chain(first, store, NOW, WILLING))


def test_lifetime_clamped_to_maximum(ca, rng, issuer, alice_db):
    subject, _ = subject_for(ca, rng)
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    capability = issuer.request_capability(alice_db, subject, session_pk, ALL,
                                           10**9, NOW)
    leaf = capability.leaf
    assert leaf.validity.not_after - leaf.validity.not_before == issuer.max_lifetime


def test_requested_narrower_than_held(ca, rng, issuer, alice_db):
    subject, _ = subject_for(ca, rng)
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    want = PolicyDocument(rights=(
        Right((ObjectPattern("/esg/data/t42.nc"),), (Action("file", "read"),)),))
    capability = issuer.request_capability(alice_db, subject, session_pk, want,
                                           3600, NOW)
    doc = restriction_doc(capability)
    assert evaluate(doc, Request("file", "read", "/esg/data/t42.nc"))
    assert not evaluate(doc, Request("file", "read", "/esg/data/other"))


def test_request_outside_held_rights_denied(ca, rng, issuer, alice_db):
    subject, _ = subject_for(ca, rng)
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    want = PolicyDocument(rights=(
        Right((ObjectPattern("/other/*"),), (Action("file", "read"),)),))
    with pytest.raises(Denied):
        issuer.request_capability(alice_db, subject, session_pk, want, 3600, NOW)


def test_no_rights_amplification_randomized(ca, rng, issuer):
    # whatever the capability permits, the community permitted at issuance
    local = random.Random(41)
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    issued = 0
    for _ in range(60):
        db = random_db(local)
        for identity in {e.identity for e in db.users.values()}:
            try:
                subject, _ = subject_for(ca, rng, identity)
            except Exception:  # pragma: no cover - identities are always valid
                continue
            requested = ALL if local.random() < 0.5 else random_document(local)
            try:
                capability = issuer.request_capability(db, subject, session_pk,
                                                       requested, 3600, NOW)
            except (Denied, NotEnrolled):
                continue
            issued += 1
            doc = restriction_doc(capability)
            for service in SERVICES:
                for action in ACTIONS:
                    for obj in OBJECTS:
                        req = Request(service, action, obj)
                        if evaluate(doc, req):
                            assert oracle_user_rights_permit(db, identity, req), \
                                (identity, req)
    assert issued > 20  # the sweep actually exercised issuance


def test_capability_restriction_equals_held_rights_for_all(ca, rng, issuer, alice_db):
    subject, _ = subject_for(ca, rng)
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    capability = issuer.request_capability(alice_db, subject, session_pk, ALL,
                                           3600, NOW)
    held = compute_user_rights(alice_db, "CN=alice")
    assert restriction_doc(capability) == held


def test_concurrent_issuance_gives_distinct_serials_and_proxy_groups(
        ca, rng, issuer, alice_db):
    subject, _ = subject_for(ca, rng)
    session_pk, _ = DEFAULT_SCHEME.generate(rng)
    issued = []
    lock = threading.Lock()

    def worker():
        leaves = [issuer.request_capability(alice_db, subject, session_pk, ALL,
                                            3600, NOW).leaf for _ in range(250)]
        with lock:
            issued.extend(leaves)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert len(issued) == 1000
    assert len({leaf.serial for leaf in issued}) == 1000
    assert len({leaf.proxy_group for leaf in issued}) == 1000
