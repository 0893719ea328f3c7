"""Policy language: matching, evaluation, text form, and their oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casauth.casd.admin import AdminCommand, authorize_admin
from casauth.casd.db import CommunityDB, PolicyStatement, UserEntry
from casauth.credential.certs import RestrictionPolicy, ValidityInterval
from casauth.credential.verify import VerifiedSubject
from casauth.errors import ParseError, UnknownPolicyLanguage, UnsupportedLanguage
from casauth.policy.engine import (
    EvaluatorRegistry,
    evaluate,
    evaluate_all,
    grants,
    match_object,
)
from casauth.policy.model import (
    Action,
    ObjectPattern,
    PolicyDocument,
    Request,
    Right,
)
from casauth.policy.text import parse_policy, serialize_policy
from casauth.resourced.authz import ServiceRegistry, authorize

from genutils import ACTIONS, OBJECTS, SERVICES, random_document, random_request
from oracles import compile_pattern, oracle_evaluate, oracle_stack


def permits(doc, req) -> bool:
    return evaluate(doc, req)


# --- object matching ---------------------------------------------------------

def test_match_examples():
    assert match_object(ObjectPattern("/esg/data/*"), "/esg/data/t42.nc")
    assert not match_object(ObjectPattern("/esg/data/*"), "/esg/other/a")
    assert match_object(ObjectPattern("/esg/data"), "/esg/data")
    assert not match_object(ObjectPattern("/esg/data"), "/esg/dataX")
    assert match_object(ObjectPattern("*"), "anything")
    assert match_object(ObjectPattern("/esg/data/*"), "/esg/data")


def test_match_against_exhaustive_oracle():
    # every string of length <= 12 over a 3-symbol alphabet, per pattern
    universe = [""]
    for n in range(1, 13):
        universe.extend("".join(p) for p in itertools.product("ab/", repeat=n))
    for raw in ("*", "a", "a/b", "a/*", "a/b/*", "/a/*"):
        pattern = ObjectPattern(raw)
        regex = compile_pattern(raw)
        for obj in universe:
            if not obj:
                continue
            assert match_object(pattern, obj) == bool(regex.fullmatch(obj)), (raw, obj)


def test_pattern_validation():
    for bad in ("", "a b", "*/a", "a*b", "a/*/b", "**"):
        with pytest.raises(ValueError):
            ObjectPattern(bad)
    for good in ("*", "/a", "a/*", "users", "/esg/data/*"):
        ObjectPattern(good)


def holds(pattern: str) -> PolicyDocument:
    return PolicyDocument(rights=(
        Right((ObjectPattern(pattern),), (Action("file", "read"),)),))


def test_subsumption():
    cases = [
        ("*", "/a/b", True),
        ("/a/*", "/a/b", True),
        ("/a/*", "/a", True),
        ("/a/*", "/a/*", True),
        ("/a/*", "/a/b/*", True),
        ("/a/*", "/ab", False),
        ("/a/b", "/a/b", True),
        ("/a/b", "/a/*", False),
        ("/a/*", "*", False),
    ]
    for general, specific, expected in cases:
        assert grants(holds(general), "file", "read", specific) == expected, \
            (general, specific)


def test_subsumption_means_match_containment():
    # whenever subsumes says yes, every matching object of the specific
    # pattern must match the general one, over a generated object universe
    universe = ["/a", "/a/b", "/a/b/c", "/ab", "/b", "/a/c"]
    patterns = [ObjectPattern(p) for p in ("*", "/a", "/a/*", "/a/b", "/a/b/*", "/ab")]
    for general in patterns:
        for specific in patterns:
            if grants(holds(general.pattern), "file", "read", specific.pattern):
                for obj in universe:
                    if match_object(specific, obj):
                        assert match_object(general, obj), (general, specific, obj)


# --- evaluation ------------------------------------------------------------------

def test_evaluate_examples():
    doc = PolicyDocument(rights=(
        Right((ObjectPattern("/esg/data/*"),), (Action("file", "read"),)),))
    assert permits(doc, Request("file", "read", "/esg/data/t42.nc"))
    assert not permits(doc, Request("file", "write", "/esg/data/t42.nc"))
    assert not permits(doc, Request("tape", "read", "/esg/data/t42.nc"))
    assert not permits(doc, Request("file", "read", "/other"))


def test_evaluate_against_oracle_1000_documents():
    rng = random.Random(11)
    for _ in range(1000):
        doc = random_document(rng)
        req = random_request(rng)
        assert permits(doc, req) == oracle_evaluate(doc, req), (doc, req)


def test_default_deny_empty_document():
    empty = PolicyDocument()
    for service in SERVICES:
        for action in ACTIONS:
            for obj in OBJECTS:
                assert not permits(empty, Request(service, action, obj))


def test_monotonicity_adding_rights_never_revokes():
    rng = random.Random(12)
    for _ in range(300):
        doc = random_document(rng)
        extra = random_document(rng, max_rights=1)
        widened = PolicyDocument(rights=doc.rights + extra.rights)
        req = random_request(rng)
        if permits(doc, req):
            assert permits(widened, req)


# --- conjunctive stacks --------------------------------------------------------------

def body_of(doc) -> RestrictionPolicy:
    return RestrictionPolicy("cas-simple-v1", serialize_policy(doc))


def test_empty_stack_permits():
    registry = EvaluatorRegistry()
    assert evaluate_all([], registry, Request("file", "read", "/x"))


def test_stack_is_conjunction():
    registry = EvaluatorRegistry()
    permit_all = PolicyDocument(rights=(
        Right((ObjectPattern("*"),), (Action("file", "read"),)),))
    deny_all = PolicyDocument()
    req = Request("file", "read", "/x")
    assert evaluate_all([body_of(permit_all)], registry, req)
    assert not evaluate_all([body_of(permit_all), body_of(deny_all)], registry,
                            req)


def test_random_stacks_match_conjunction_oracle():
    rng = random.Random(13)
    registry = EvaluatorRegistry()
    for _ in range(400):
        docs = [random_document(rng) for _ in range(rng.randint(0, 4))]
        req = random_request(rng)
        got = evaluate_all([body_of(d) for d in docs], registry, req)
        assert got == oracle_stack(docs, req), (docs, req)


def test_stack_order_independence():
    rng = random.Random(14)
    registry = EvaluatorRegistry()
    for _ in range(200):
        docs = [random_document(rng) for _ in range(rng.randint(2, 4))]
        req = random_request(rng)
        stack = [body_of(d) for d in docs]
        baseline = evaluate_all(stack, registry, req)
        for _ in range(3):
            rng.shuffle(stack)
            assert evaluate_all(stack, registry, req) == baseline


def test_unknown_language_is_defensive_error():
    registry = EvaluatorRegistry()
    with pytest.raises(UnknownPolicyLanguage):
        evaluate_all([RestrictionPolicy("ponder-v1", b"x")], registry,
                     Request("file", "read", "/x"))


def test_registry_always_knows_simple_language():
    registry = EvaluatorRegistry()
    assert "cas-simple-v1" in registry.languages()
    registry.register("allow-all-v1", lambda body, req: True)
    assert evaluate_all([RestrictionPolicy("allow-all-v1", b"")], registry,
                        Request("file", "read", "/x"))


def test_unparseable_body_grants_nothing():
    registry = EvaluatorRegistry()
    stack = [RestrictionPolicy("cas-simple-v1", b"\xff\xfe garbage")]
    assert not evaluate_all(stack, registry, Request("file", "read", "/x"))


# --- decisions are plain bools --------------------------------------------------------

READ_ALL = PolicyDocument(rights=(Right((ObjectPattern("*"),), (Action("file", "read"),)),))
READ_X = Request("file", "read", "/x")


def _authorize(doc) -> bool:
    subject = VerifiedSubject("cas.esg", b"\x01" * 32, ValidityInterval(0, 10**9),
                              (body_of(doc),), ())
    return authorize({"cas.esg": READ_ALL}, subject, ServiceRegistry(), READ_X,
                     EvaluatorRegistry())


def _authorize_admin(doc) -> bool:
    db = CommunityDB()
    db.users["ann"] = UserEntry("CN=ann")
    if doc.rights:
        db.statements.append(PolicyStatement(1, "user", "ann", "pattern", "users",
                                             "cas", "enroll-user"))
        db.next_statement_id = 2
    return authorize_admin(db, "CN=ann", AdminCommand("enroll-user", ("bob", "CN=bob")))


@pytest.mark.parametrize("decide", [
    lambda doc: evaluate(doc, READ_X),
    lambda doc: evaluate_all([body_of(doc)], EvaluatorRegistry(), READ_X),
    _authorize,
    _authorize_admin,
], ids=["evaluate", "evaluate_all", "authorize", "authorize_admin"])
def test_decisions_are_bools(decide):
    assert decide(READ_ALL) is True
    assert decide(PolicyDocument()) is False


# --- text form ------------------------------------------------------------------------

def test_serialize_parse_round_trip_200_documents():
    rng = random.Random(15)
    for _ in range(200):
        doc = random_document(rng)
        assert parse_policy(serialize_policy(doc)) == doc


def test_serialize_is_canonical():
    rng = random.Random(16)
    for _ in range(100):
        doc = random_document(rng)
        once = serialize_policy(doc)
        assert serialize_policy(parse_policy(once)) == once


def test_unsupported_language_header():
    with pytest.raises(UnsupportedLanguage):
        parse_policy(b"lang: ponder-v1\n")


def test_empty_document_denies_everything():
    doc = parse_policy(serialize_policy(PolicyDocument()))
    assert doc.rights == ()
    assert not permits(doc, Request("file", "read", "/esg/data/t42.nc"))


def test_parse_error_carries_line_number():
    text = b"lang: cas-simple-v1\nright:\nobject /a\nnonsense\n"
    with pytest.raises(ParseError) as info:
        parse_policy(text)
    assert info.value.line == 4


def test_right_needs_objects_and_actions():
    with pytest.raises(ParseError):
        parse_policy(b"lang: cas-simple-v1\nright:\naction file:read\n")
    with pytest.raises(ParseError):
        parse_policy(b"lang: cas-simple-v1\nright:\nobject /a\n")


@settings(max_examples=300)
@given(st.binary(max_size=200))
def test_parse_is_total(data):
    try:
        parse_policy(data)
    except ParseError:
        pass


@settings(max_examples=100)
@given(st.text(alphabet="lang: cas-simple-v1\nright:objecta ct*/", max_size=120))
def test_parse_is_total_near_valid(text):
    try:
        parse_policy(text.encode())
    except ParseError:
        pass


def test_requests_take_concrete_objects_only():
    with pytest.raises(ValueError):
        Request("file", "read", "/esg/data/*")
    with pytest.raises(ValueError):
        Request("file", "read", "*")
    with pytest.raises(ValueError):
        Request("file", "", "/x")
