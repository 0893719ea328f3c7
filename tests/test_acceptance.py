"""Acceptance criteria for the whole stack.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in captured output). Tolerances and counts are pinned
here, not configurable.
"""

import contextlib
import random
import time

import pytest

from casauth.casd.db import CommunityDB, UserEntry
from casauth.casd.issuance import CapabilityIssuer
from casauth.credential.certs import (
    CertificateChain,
    RestrictionPolicy,
    ValidityInterval,
    decode_certificate,
    encode_certificate,
)
from casauth.credential.issue import CertificateAuthority, delegate
from casauth.credential.keys import DEFAULT_SCHEME
from casauth.credential.verify import (
    EnforcementContext,
    VerifiedSubject,
    same_principal,
    verify_chain,
)
from casauth.casd.db import parse_db, serialize_db
from casauth.errors import (
    Denied,
    Expired,
    NotEnrolled,
    RestrictionRefused,
    UnknownPolicyLanguage,
)
from casauth.harness.cli import bundled_script
from casauth.harness.scenario import parse_script, run_scenario
from casauth.harness.topology import TrustTopology, trust_edges
from casauth.policy.engine import EvaluatorRegistry, evaluate
from casauth.policy.model import ALL, Request
from casauth.policy.text import parse_policy, serialize_policy
from casauth.resourced.authz import ServiceRegistry, authorize

from genutils import (
    ACTIONS,
    OBJECTS,
    SERVICES,
    random_certificate,
    random_db,
    random_document,
    random_request,
)
from oracles import (
    oracle_chain_valid_at,
    oracle_evaluate,
    oracle_stack,
    oracle_user_rights_permit,
)

WIDE = ValidityInterval(0, 4_000_000_000)
WILLING = EnforcementContext(True, frozenset({"cas-simple-v1"}))
UNWILLING = EnforcementContext()


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}")


def universe_requests(services=SERVICES):
    return [Request(s, a, o) for s in services for a in ACTIONS for o in OBJECTS]


def test_criterion_1_intersection_oracle_equivalence():
    with criterion(1, "authorize equals two-sided brute-force intersection, "
                      "1000 random triples in under 10 s"):
        rng = random.Random(101)
        registry = ServiceRegistry({s: frozenset(ACTIONS) for s in SERVICES})
        evaluators = EvaluatorRegistry()
        started = time.monotonic()
        mismatches = 0
        for _ in range(1000):
            local = random_document(rng)
            stack = [random_document(rng) for _ in range(rng.randint(0, 4))]
            restrictions = tuple(
                RestrictionPolicy("cas-simple-v1", serialize_policy(d))
                for d in stack)
            subject = VerifiedSubject("cas.esg", b"\x01" * 32, WIDE,
                                      restrictions, ("cas-session-1",))
            req = random_request(rng)
            got = authorize({"cas.esg": local}, subject, registry, req,
                            evaluators)
            expected = oracle_evaluate(local, req) and oracle_stack(stack, req)
            mismatches += got != expected
        elapsed = time.monotonic() - started
        assert mismatches == 0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_validity_intersection_matches_membership():
    with criterion(2, "chain verification at t equals per-certificate interval "
                      "membership, 1000 chains x 100 timestamps"):
        rng = random.Random(102)
        ca = CertificateAuthority.create("AcceptCA2", WIDE, rng=rng)
        store = {ca.certificate}
        mismatches = 0
        for _ in range(1000):
            spans = []
            for _ in range(rng.randint(1, 5)):
                nb = rng.randint(0, 150)
                spans.append((nb, nb + rng.randint(0, 80)))
            pk, key = DEFAULT_SCHEME.generate(rng)
            chain = CertificateChain((ca.issue_identity(
                "subject", pk, ValidityInterval(*spans[0])),))
            for nb, na in spans[1:]:
                next_pk, next_key = DEFAULT_SCHEME.generate(rng)
                chain = delegate(chain, key, next_pk, ValidityInterval(nb, na))
                key = next_key
            for _ in range(100):
                t = rng.randint(-10, 260)
                try:
                    verify_chain(chain, store, t, UNWILLING)
                    verified = True
                except Expired:
                    verified = False
                mismatches += verified != oracle_chain_valid_at(spans, t)
        assert mismatches == 0


def test_criterion_3_critical_restriction_semantics(rng):
    with criterion(3, "restricted chains: refused when unwilling, refused for "
                      "unknown languages, verified when willing"):
        ca = CertificateAuthority.create("AcceptCA3", WIDE, rng=rng)
        store = {ca.certificate}
        pk, key = DEFAULT_SCHEME.generate(rng)
        identity = CertificateChain((ca.issue_identity("cas.esg", pk, WIDE),))
        cases = [
            ("cas-simple-v1", UNWILLING, RestrictionRefused),
            ("weird-v9", WILLING, UnknownPolicyLanguage),
            ("cas-simple-v1", WILLING, None),
        ]
        for language, ctx, expected_error in cases:
            session_pk, _ = DEFAULT_SCHEME.generate(rng)
            restricted = delegate(
                identity, key, session_pk, WIDE,
                restriction=RestrictionPolicy(language, b"lang: cas-simple-v1\n"))
            if expected_error is None:
                subject = verify_chain(restricted, store, 1000, ctx)
                assert subject.restrictions
            else:
                with pytest.raises(expected_error):
                    verify_chain(restricted, store, 1000, ctx)


def test_criterion_4_no_rights_amplification(rng):
    with criterion(4, "every issued capability only permits what community "
                      "policy permitted at issuance, exhaustively enumerated"):
        local = random.Random(104)
        ca = CertificateAuthority.create("AcceptCA4", WIDE, rng=rng)
        chain, key = ca.issue_credential("cas.esg", WIDE, rng=rng)
        issuer = CapabilityIssuer(chain, key)
        session_pk, _ = DEFAULT_SCHEME.generate(rng)
        requests = universe_requests()
        violations = 0
        issued = 0
        for _ in range(80):
            db = random_db(local, max_users=5, max_groups=3, max_statements=10)
            for entry in db.users.values():
                subject = VerifiedSubject(entry.identity, b"\x01" * 32, WIDE,
                                          (), ())
                for requested in (ALL, random_document(local)):
                    try:
                        capability = issuer.request_capability(
                            db, subject, session_pk, requested, 3600,
                            now=1_000_000)
                    except (Denied, NotEnrolled):
                        continue
                    issued += 1
                    granted = parse_policy(capability.leaf.restriction.body)
                    for req in requests:
                        if evaluate(granted, req):
                            violations += not oracle_user_rights_permit(
                                db, entry.identity, req)
        assert violations == 0
        assert issued >= 100, f"only {issued} capabilities issued by the sweep"


def test_criterion_5_esg_scenario():
    with criterion(5, "bundled esg scenario passes every assertion in under 5 s"):
        started = time.monotonic()
        report = run_scenario(parse_script(bundled_script("esg")), seed=5)
        elapsed = time.monotonic() - started
        assert report.ok, "\n".join(report.lines())
        assert len(report.assertions) == 4
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_6_revocation_semantics():
    with criterion(6, "revocation scenario: issuance stops at unenrollment, "
                      "outstanding capability honored until expiry"):
        report = run_scenario(parse_script(bundled_script("revocation")), seed=6)
        assert report.ok, "\n".join(report.lines())
        assert len(report.assertions) == 4


def test_criterion_7_compromised_cas_containment():
    with criterion(7, "rogue CAS scenario: ungranted community's capability "
                      "authorizes nothing"):
        report = run_scenario(parse_script(bundled_script("rogue-cas")), seed=7)
        assert report.ok, "\n".join(report.lines())
        assert len(report.assertions) == 2


def test_criterion_8_trust_edge_scaling():
    with criterion(8, "trust edges are CxP direct and C+P brokered for all "
                      "1..10; brokered strictly fewer for C,P >= 2 except a "
                      "tie at 2x2, and one more when C or P is 1"):
        for consumers in range(1, 11):
            for producers in range(1, 11):
                where = f"C={consumers}, P={producers}"
                direct = trust_edges(TrustTopology(consumers, producers))
                brokered = trust_edges(
                    TrustTopology(consumers, producers, brokered=True))
                assert direct == consumers * producers, where
                assert brokered == consumers + producers, where
                assert direct - brokered == (consumers - 1) * (producers - 1) - 1, (
                    f"{where}: direct {direct} minus brokered {brokered} is not "
                    "(C-1)(P-1)-1")
                if (consumers, producers) == (2, 2):
                    assert brokered == direct, (
                        f"{where}: brokered {brokered} does not tie direct "
                        f"{direct}")
                elif consumers >= 2 and producers >= 2:
                    assert brokered < direct, (
                        f"{where}: brokered {brokered} is not strictly fewer "
                        f"than direct {direct}")
                else:
                    assert brokered == direct + 1, (
                        f"{where}: brokered {brokered} is not direct {direct} "
                        "plus the server's own edge")


def test_criterion_9_canonical_encodings(tmp_path):
    with criterion(9, "certificate, policy, and snapshot encodings are "
                      "byte-stable over 100 random instances each"):
        rng = random.Random(109)
        for _ in range(100):
            cert = random_certificate(rng)
            once = encode_certificate(cert)
            assert encode_certificate(decode_certificate(once)) == once
        for _ in range(100):
            doc = random_document(rng)
            once = serialize_policy(doc)
            assert serialize_policy(parse_policy(once)) == once
        for _ in range(100):
            db = random_db(rng)
            once = serialize_db(db)
            assert serialize_db(parse_db(once)) == once


def test_criterion_10_proxy_group_sessions(rng):
    with criterion(10, "consecutive sessions are distinct principals; one "
                       "capability verifies to the same principal twice"):
        ca = CertificateAuthority.create("AcceptCA10", WIDE, rng=rng)
        store = {ca.certificate}
        chain, key = ca.issue_credential("cas.esg", WIDE, rng=rng)
        issuer = CapabilityIssuer(chain, key)
        db = CommunityDB()
        db.users["alice"] = UserEntry("CN=alice")
        from casauth.casd.db import PolicyStatement

        db.statements.append(PolicyStatement(1, "user", "alice", "pattern",
                                             "/esg/*", "file", "read"))
        db.next_statement_id = 2
        subject = VerifiedSubject("CN=alice", b"\x01" * 32, WIDE, (), ())
        session_pk, _ = DEFAULT_SCHEME.generate(rng)

        first = issuer.request_capability(db, subject, session_pk, ALL,
                                          3600, now=1_000_000)
        second = issuer.request_capability(db, subject, session_pk, ALL,
                                           3600, now=1_000_000)
        v_first = verify_chain(first, store, 1_000_100, WILLING)
        v_second = verify_chain(second, store, 1_000_100, WILLING)
        v_first_again = verify_chain(first, store, 1_000_200, WILLING)
        assert not same_principal(v_first, v_second)
        assert same_principal(v_first, v_first_again)
