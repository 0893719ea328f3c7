"""Isolated layer timings: single calls into one layer, no sockets.

These reproduce the Baseline rows of ROADMAP.md from committed code: chain
decoding, chain verification with a warm and a cold signature cache,
two-sided authorization, capability issuance at 1k/10k/50k members, and
one admin mutation (with its clone, validation and snapshot rewrite) at
1k/10k members. Each figure is the median of repeated calls.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import casauth.credential.keys as keys
from casauth.casd.admin import AdminCommand, apply_admin
from casauth.casd.db import save_db, serialize_db, validate_db
from casauth.casd.issuance import CapabilityIssuer
from casauth.credential.certs import (
    RestrictionPolicy,
    ValidityInterval,
    decode_chain,
    encode_chain,
)
from casauth.credential.issue import CertificateAuthority, delegate
from casauth.credential.verify import EnforcementContext, VerifiedSubject, verify_chain
from casauth.policy.engine import EvaluatorRegistry
from casauth.policy.model import ALL, LANGUAGE, Request
from casauth.policy.text import serialize_policy
from casauth.resourced.authz import ServiceRegistry, authorize

import gen


def _median_us(fn, repeat: int, before=None) -> float:
    samples = []
    for i in range(repeat):
        if before is not None:
            before()
        start = time.perf_counter_ns()
        fn(i)
        samples.append((time.perf_counter_ns() - start) / 1e3)
    return statistics.median(samples)


def _clear_verify_cache() -> None:
    clear = getattr(getattr(keys, "_ed25519_verify", None), "cache_clear", None)
    if clear is not None:
        clear()


def measure(directory: Path, seed: int) -> dict[str, float]:
    rng = random.Random(f"layers/{seed}")
    out: dict[str, float] = {}
    now = 2_000_000_000
    ca = CertificateAuthority.create(gen.CA_NAME, gen.VALIDITY, rng=rng)
    cas_chain, cas_key = ca.issue_credential(gen.CASD_IDENTITY, gen.VALIDITY, rng=rng)
    anchors = (ca.certificate,)
    ctx = EnforcementContext(True, frozenset({LANGUAGE}))

    # A capability like the churn workload's: 2 certificates, a 23-triple restriction.
    _db, _names, _membership, held = gen.community(gen.Shape(1_000, 100, 1), rng)
    rights = gen.document(sorted(held(0)))
    restriction = RestrictionPolicy(LANGUAGE, serialize_policy(rights))
    session_pk, _ = keys.DEFAULT_SCHEME.generate(rng)
    capability = delegate(cas_chain, cas_key, session_pk, ValidityInterval(0, 4_000_000_000),
                          restriction=restriction, proxy_group="cas-session-1")
    encoded = encode_chain(capability)
    out["credential.decode_chain_us"] = _median_us(lambda i: decode_chain(encoded), 300)
    verify_chain(capability, anchors, now, ctx)
    out["credential.verify_chain_warm_us"] = _median_us(
        lambda i: verify_chain(capability, anchors, now, ctx), 300)
    out["credential.verify_chain_cold_us"] = _median_us(
        lambda i: verify_chain(capability, anchors, now, ctx), 60, before=_clear_verify_cache)

    subject = verify_chain(capability, anchors, now, ctx)
    table = {gen.CASD_IDENTITY: gen.document((p, "file", a) for p in ("/home/*", "/proj/*")
                                             for a in ("read", "list"))}
    registry, evaluators = ServiceRegistry(), EvaluatorRegistry()
    target = sorted(p for p, _s, a in held(0) if a == "read")[0].replace("*", "f1")
    request = Request("file", "read", target)
    out["resourced.authorize_us"] = _median_us(
        lambda i: authorize(table, subject, registry, request, evaluators), 500)

    for users, groups, label in ((1_000, 100, "1k"), (10_000, 100, "10k"), (50_000, 500, "50k")):
        db, names, _membership, _held = gen.community(gen.Shape(users, groups, 1), rng)
        db.trust_anchors = frozenset(anchors)
        issuer = CapabilityIssuer(cas_chain, cas_key)
        members = [names[j] for j in rng.sample(range(users), 15)]

        def issue(i, db=db, issuer=issuer, members=members):
            subject = VerifiedSubject(f"CN={members[i]}", session_pk,
                                      ValidityInterval(0, 4_000_000_000), (), ())
            issuer.request_capability(db, subject, session_pk, ALL, 3600, now)
        out[f"casd.issue_{label}_ms"] = _median_us(issue, len(members)) / 1e3
        if users > 10_000:
            continue

        def enroll(i, db=db):
            apply_admin(db, "CN=root", AdminCommand("enroll-user", (f"z{i}", f"CN=z{i}")),
                        bootstrap_admin="CN=root")
        out[f"casd.apply_admin_{label}_ms"] = _median_us(enroll, 7) / 1e3
        if label == "10k":
            out["casd.clone_10k_ms"] = _median_us(lambda i: db.clone(), 7) / 1e3
            out["casd.validate_10k_ms"] = _median_us(lambda i: validate_db(db), 7) / 1e3
            snapshot = directory / "layers.db"
            out["casd.save_db_10k_ms"] = _median_us(lambda i: save_db(db, snapshot), 7) / 1e3
            out["casd.snapshot_10k_bytes"] = float(len(serialize_db(db)))
    return out
