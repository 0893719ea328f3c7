"""Random instance generators for property and acceptance tests.

All generators take an explicit random.Random so expected values can be
frozen by seed.
"""

from __future__ import annotations

import random

from casauth.casd.db import CommunityDB, PolicyStatement, UserEntry
from casauth.credential.certs import (
    Certificate,
    RestrictionPolicy,
    ValidityInterval,
)
from casauth.policy.model import Action, ObjectPattern, PolicyDocument, Request, Right

SERVICES = ("file", "tape")
ACTIONS = ("read", "write", "list")
OBJECTS = (
    "/esg/data/t42.nc",
    "/esg/data/sub/x",
    "/esg/doc",
    "/scratch/a",
    "/scratch/b/c",
    "/other",
)
PATTERNS = OBJECTS + (
    "/esg/data/*",
    "/esg/*",
    "/scratch/*",
    "/scratch/b/*",
    "/esg/data",
    "*",
)


def random_request(rng: random.Random, services=SERVICES) -> Request:
    return Request(rng.choice(services), rng.choice(ACTIONS), rng.choice(OBJECTS))


def random_document(rng: random.Random, services=SERVICES,
                    max_rights: int = 3) -> PolicyDocument:
    rights = []
    for _ in range(rng.randint(0, max_rights)):
        objects = tuple(ObjectPattern(p)
                        for p in rng.sample(PATTERNS, rng.randint(1, 3)))
        actions = tuple(Action(rng.choice(services), a)
                        for a in rng.sample(ACTIONS, rng.randint(1, 2)))
        rights.append(Right(objects, actions))
    return PolicyDocument(rights=tuple(rights))


def random_interval(rng: random.Random, lo: int = 0, hi: int = 200) -> ValidityInterval:
    start = rng.randint(lo, hi - 40)
    return ValidityInterval(start, start + rng.randint(0, 80))


_WORDS = ("alpha", "beta", "gamma", "delta", "iota", "kappa", "scratch", "esg")


def spaced_hex(text: str) -> str:
    """Hex text with a space between bytes, a spelling bytes.hex() never writes."""
    return " ".join(text[i:i + 2] for i in range(0, len(text), 2))


def random_name(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}-{rng.randrange(1000)}"


def random_certificate(rng: random.Random, signed: bool = True) -> Certificate:
    kind = rng.choice(("trust-anchor", "identity", "proxy"))
    name = random_name(rng)
    restriction = None
    proxy_group = None
    if kind == "proxy":
        if rng.random() < 0.6:
            restriction = RestrictionPolicy(
                rng.choice(("cas-simple-v1", "other-lang")),
                rng.randbytes(rng.randint(0, 40)))
        if rng.random() < 0.5:
            proxy_group = f"cas-session-{rng.randrange(100)}"
        issuer = name
    else:
        issuer = random_name(rng)
        if kind == "trust-anchor":
            issuer = name
    return Certificate(
        serial=rng.randint(0, 10**9),
        subject_name=name,
        issuer_name=issuer,
        subject_public_key=rng.randbytes(32),
        validity=random_interval(rng),
        kind=kind,
        restriction=restriction,
        proxy_group=proxy_group,
        signature=rng.randbytes(64) if signed else b"",
    )


def random_db(rng: random.Random, max_users: int = 5, max_groups: int = 3,
              max_statements: int = 10) -> CommunityDB:
    """A small valid community database."""
    db = CommunityDB()
    user_names = [f"user{i}" for i in range(rng.randint(1, max_users))]
    for name in user_names:
        db.users[name] = UserEntry(f"CN={name}", rng.random() < 0.85)
    resource_names = [f"res{i}" for i in range(rng.randint(1, 4))]
    for name in resource_names:
        db.resources[name] = rng.choice(PATTERNS)
    enrolled = [n for n in user_names if db.users[n].enrolled]
    for g in range(rng.randint(0, max_groups)):
        members = set(rng.sample(enrolled, rng.randint(0, len(enrolled))))
        db.user_groups[f"ugroup{g}"] = members
    for g in range(rng.randint(0, 2)):
        members = set(rng.sample(resource_names, rng.randint(0, len(resource_names))))
        db.resource_groups[f"rgroup{g}"] = members
    next_id = 1
    for _ in range(rng.randint(0, max_statements)):
        if db.user_groups and rng.random() < 0.4:
            grantee_kind, grantee = "group", rng.choice(sorted(db.user_groups))
        else:
            grantee_kind, grantee = "user", rng.choice(user_names)
        roll = rng.random()
        if roll < 0.4:
            object_kind, object_ref = "resource", rng.choice(resource_names)
        elif roll < 0.6 and db.resource_groups:
            object_kind, object_ref = "rgroup", rng.choice(sorted(db.resource_groups))
        else:
            object_kind, object_ref = "pattern", rng.choice(PATTERNS)
        db.statements.append(PolicyStatement(
            next_id, grantee_kind, grantee, object_kind, object_ref,
            rng.choice(SERVICES), rng.choice(ACTIONS)))
        next_id += 1
    db.next_statement_id = next_id
    return db
