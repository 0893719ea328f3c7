"""Effective user rights and requested-rights intersection."""

import random

from casauth.casd.db import CommunityDB, PolicyStatement, UserEntry
from casauth.casd.rights import compute_user_rights, intersect_documents
from casauth.policy.engine import evaluate
from casauth.policy.model import Action, ObjectPattern, PolicyDocument, Request, Right

from genutils import ACTIONS, OBJECTS, SERVICES, random_db, random_document
from oracles import oracle_evaluate, oracle_intersect, oracle_user_rights_permit


def permits(doc, req) -> bool:
    return evaluate(doc, req)


def universe():
    for service in SERVICES:
        for action in ACTIONS:
            for obj in OBJECTS:
                yield Request(service, action, obj)


def test_group_grant_expands_resource_group():
    db = CommunityDB()
    db.users["alice"] = UserEntry("CN=alice")
    db.user_groups["climate"] = {"alice"}
    db.resources["esg-data"] = "/esg/data/*"
    db.resource_groups["esg-sets"] = {"esg-data"}
    db.statements.append(PolicyStatement(1, "group", "climate", "rgroup",
                                         "esg-sets", "file", "read"))
    db.next_statement_id = 2
    doc = compute_user_rights(db, "CN=alice")
    assert permits(doc, Request("file", "read", "/esg/data/t42.nc"))
    assert not permits(doc, Request("file", "write", "/esg/data/t42.nc"))


def test_unknown_and_unenrolled_users_get_empty_document():
    db = CommunityDB()
    db.users["bob"] = UserEntry("CN=bob", enrolled=False)
    assert compute_user_rights(db, "CN=bob").rights == ()
    assert compute_user_rights(db, "CN=nobody").rights == ()


def test_direct_and_group_grants_union():
    db = CommunityDB()
    db.users["alice"] = UserEntry("CN=alice")
    db.user_groups["g"] = {"alice"}
    db.statements.append(PolicyStatement(1, "user", "alice", "pattern",
                                         "/a/*", "file", "read"))
    db.statements.append(PolicyStatement(2, "group", "g", "pattern",
                                         "/b/*", "file", "write"))
    db.next_statement_id = 3
    doc = compute_user_rights(db, "CN=alice")
    assert permits(doc, Request("file", "read", "/a/x"))
    assert permits(doc, Request("file", "write", "/b/x"))
    assert not permits(doc, Request("file", "write", "/a/x"))


def test_rights_match_exhaustive_statement_oracle():
    # randomized small databases against the independent expansion oracle
    rng = random.Random(31)
    for _ in range(150):
        db = random_db(rng)
        identities = [e.identity for e in db.users.values()] + ["CN=nobody"]
        for identity in identities:
            doc = compute_user_rights(db, identity)
            for req in universe():
                assert permits(doc, req) == oracle_user_rights_permit(db, identity, req), \
                    (identity, req, db)


# --- intersection ---------------------------------------------------------------

def intersect_reference(held, requested, req) -> bool:
    # requested narrowed by held must never exceed either side on concrete
    # requests drawn from patterns equal to held/requested decisions
    return oracle_evaluate(held, req) and oracle_evaluate(requested, req)


def test_intersection_examples():
    held = PolicyDocument(rights=(
        Right((ObjectPattern("/esg/*"),), (Action("file", "read"),
                                           Action("file", "write"))),))
    requested = PolicyDocument(rights=(
        Right((ObjectPattern("/esg/data/*"),), (Action("file", "read"),)),))
    narrowed = intersect_documents(held, requested)
    assert permits(narrowed, Request("file", "read", "/esg/data/t42.nc"))
    assert not permits(narrowed, Request("file", "write", "/esg/data/t42.nc"))
    assert not permits(narrowed, Request("file", "read", "/esg/doc"))


def test_intersection_never_widens_either_side():
    rng = random.Random(32)
    for _ in range(300):
        held = random_document(rng)
        requested = random_document(rng)
        narrowed = intersect_documents(held, requested)
        for req in universe():
            if permits(narrowed, req):
                assert oracle_evaluate(held, req)
                assert oracle_evaluate(requested, req)


def test_intersection_keeps_exactly_the_contained_pairs():
    # never drops a pair the held side covers, never keeps one it does not
    rng = random.Random(33)
    for _ in range(400):
        held = random_document(rng)
        requested = random_document(rng)
        narrowed = intersect_documents(held, requested)
        kept = {(p.pattern, a) for right in narrowed.rights
                for a in right.actions for p in right.objects}
        assert kept == oracle_intersect(held, requested), (held, requested)


def test_intersection_exact_when_requested_subsumed():
    # requests that stay under held patterns lose nothing
    held = PolicyDocument(rights=(
        Right((ObjectPattern("/esg/*"),), (Action("file", "read"),)),))
    requested = PolicyDocument(rights=(
        Right((ObjectPattern("/esg/data/*"), ObjectPattern("/esg/doc")),
              (Action("file", "read"),)),))
    narrowed = intersect_documents(held, requested)
    for req in universe():
        assert permits(narrowed, req) == intersect_reference(held, requested, req)


def test_intersection_drops_partial_overlap():
    # requested pattern sticking out of every held pattern is dropped whole:
    # narrowing keeps requested patterns only when subsumed
    held = PolicyDocument(rights=(
        Right((ObjectPattern("/esg/data/*"),), (Action("file", "read"),)),))
    requested = PolicyDocument(rights=(
        Right((ObjectPattern("/esg/*"),), (Action("file", "read"),)),))
    narrowed = intersect_documents(held, requested)
    assert narrowed.rights == ()
