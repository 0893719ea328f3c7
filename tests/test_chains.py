"""Issuing, delegating, and verifying certificate chains."""

import random
from dataclasses import replace

import pytest

from casauth.credential.certs import (
    CertificateChain,
    RestrictionPolicy,
    ValidityInterval,
    certificate_body,
    decode_chain,
    encode_chain,
)
from casauth.credential.issue import (
    CertificateAuthority,
    delegate,
    issue_identity,
)
from casauth.credential.keys import DEFAULT_SCHEME
from casauth.credential.verify import (
    EnforcementContext,
    effective_validity,
    same_principal,
    verify_chain,
)
from casauth.errors import (
    BadSignature,
    CasError,
    EmptyIntersection,
    Expired,
    InvalidInterval,
    MalformedChain,
    ParseError,
    RestrictionRefused,
    UnknownPolicyLanguage,
    UntrustedRoot,
)

from oracles import oracle_chain_valid_at

WIDE = ValidityInterval(0, 4_000_000_000)
WILLING = EnforcementContext(True, frozenset({"cas-simple-v1"}))
UNWILLING = EnforcementContext()


def make_user_chain(ca, rng, restrictions=(), groups=(), validities=None,
                    subject="cas.esg"):
    """identity + one proxy per restriction/group/validity slot."""
    count = max(len(restrictions), len(groups), 0)
    validities = validities or [WIDE] * (count + 1)
    scheme = DEFAULT_SCHEME
    pk, key = scheme.generate(rng)
    chain = CertificateChain((ca.issue_identity(subject, pk, validities[0]),))
    for i in range(count):
        next_pk, next_key = scheme.generate(rng)
        chain = delegate(
            chain, key, next_pk, validities[i + 1],
            restriction=restrictions[i] if i < len(restrictions) else None,
            proxy_group=groups[i] if i < len(groups) else None)
        key = next_key
    return chain, key


def test_issue_identity_signature_verifies(ca, rng):
    pk, _ = DEFAULT_SCHEME.generate(rng)
    cert = issue_identity("AlphaCA", ca.private_key, "cas.esg", pk,
                          ValidityInterval(1000, 2000))
    assert cert.kind == "identity"
    assert cert.issuer_name == "AlphaCA"
    assert DEFAULT_SCHEME.verify(ca.public_key, certificate_body(cert), cert.signature)


def test_issue_identity_rejects_inverted_interval(ca, rng):
    pk, _ = DEFAULT_SCHEME.generate(rng)
    with pytest.raises(InvalidInterval):
        issue_identity("AlphaCA", ca.private_key, "cas.esg", pk,
                       ValidityInterval(2000, 1000))


def test_serials_are_random_positive_and_distinct(rng):
    ca = CertificateAuthority.create("FreshCA", WIDE, rng=rng)
    pk, _ = DEFAULT_SCHEME.generate(rng)
    chain, key = ca.issue_credential("a", WIDE, rng=rng)
    certs = [ca.certificate, chain.certs[0],
             *(ca.issue_identity(f"s{i}", pk, WIDE) for i in range(20)),
             delegate(chain, key, pk, WIDE).leaf]
    serials = [c.serial for c in certs]
    assert len(set(serials)) == len(serials)
    assert all(0 < s < 2**64 for s in serials)
    # Two authorities made from the same seed still draw their own serials:
    # the seed fixes keys, never serials.
    again = CertificateAuthority.create("FreshCA", WIDE, rng=random.Random(7))
    twin = CertificateAuthority.create("FreshCA", WIDE, rng=random.Random(7))
    assert again.public_key == twin.public_key
    assert again.certificate.serial != twin.certificate.serial


def test_delegate_extends_chain(ca, rng):
    chain, key = make_user_chain(ca, rng)
    assert len(chain.certs) == 1
    pk2, _ = DEFAULT_SCHEME.generate(rng)
    longer = delegate(chain, key, pk2, WIDE)
    assert len(longer.certs) == 2
    assert longer.certs[1].kind == "proxy"
    assert longer.certs[1].subject_name == longer.certs[0].subject_name
    subject = verify_chain(longer, {ca.certificate}, 5000, UNWILLING)
    assert subject.identity == "cas.esg"
    assert subject.leaf_public_key == pk2


def test_delegate_twice_accumulates_restrictions_in_order(ca, rng):
    first = RestrictionPolicy("cas-simple-v1", b"lang: cas-simple-v1\n")
    second = RestrictionPolicy("cas-simple-v1", b"lang: cas-simple-v1\n")
    chain, _ = make_user_chain(ca, rng, restrictions=[first, second])
    assert len(chain.certs) == 3
    subject = verify_chain(chain, {ca.certificate}, 5000, WILLING)
    assert subject.restrictions == (first, second)


def test_restriction_is_critical(ca, rng):
    restriction = RestrictionPolicy("cas-simple-v1", b"lang: cas-simple-v1\n")
    chain, _ = make_user_chain(ca, rng, restrictions=[restriction])
    encoded = encode_chain(chain)
    assert encoded.count(b"\npolicy-critical: true\n") == 1
    assert decode_chain(encoded) == chain
    with pytest.raises(ParseError, match="canonical"):
        decode_chain(encoded.replace(b"policy-critical: true", b"policy-critical: false"))


def test_delegate_rejects_wrong_leaf_key(ca, rng):
    chain, key = make_user_chain(ca, rng)
    pk, _ = DEFAULT_SCHEME.generate(rng)
    two = delegate(chain, key, pk, WIDE)
    with pytest.raises(ValueError):
        delegate(two, key, pk, WIDE)  # key belongs to the identity, not the leaf


def test_delegate_rejects_malformed_issuer_chain(ca, rng):
    chain, key = make_user_chain(ca, rng)
    pk, _ = DEFAULT_SCHEME.generate(rng)
    # an identity certificate in a proxy slot breaks chain structure
    bad_structure = CertificateChain((chain.certs[0], chain.certs[0]))
    with pytest.raises(MalformedChain):
        delegate(bad_structure, key, pk, WIDE)
    # right structure, broken linkage: identity key swapped out from under the proxy
    two = delegate(chain, key, pk, WIDE)
    unlinked = CertificateChain(
        (replace(two.certs[0], subject_public_key=b"\x00" * 32), two.certs[1]))
    with pytest.raises(MalformedChain):
        delegate(unlinked, key, pk, WIDE)


# --- verify_chain error taxonomy ------------------------------------------------

def test_untrusted_root(ca, rng):
    other = CertificateAuthority.create("BetaCA", WIDE, rng=rng)
    chain, _ = make_user_chain(ca, rng)
    with pytest.raises(UntrustedRoot):
        verify_chain(chain, {other.certificate}, 5000, UNWILLING)


def test_unrestricted_chain_verifies_when_unwilling(ca, rng):
    chain, _ = make_user_chain(ca, rng, groups=["s1"])
    subject = verify_chain(chain, {ca.certificate}, 5000, UNWILLING)
    assert subject.proxy_group_path == ("s1",)


def test_restricted_chain_refused_when_unwilling(ca, rng):
    restriction = RestrictionPolicy("cas-simple-v1", b"lang: cas-simple-v1\n")
    chain, _ = make_user_chain(ca, rng, restrictions=[restriction])
    with pytest.raises(RestrictionRefused):
        verify_chain(chain, {ca.certificate}, 5000, UNWILLING)


def test_unknown_language_rejected_outright(ca, rng):
    restriction = RestrictionPolicy("weird-v9", b"anything")
    chain, _ = make_user_chain(ca, rng, restrictions=[restriction])
    with pytest.raises(UnknownPolicyLanguage):
        verify_chain(chain, {ca.certificate}, 5000, WILLING)


def test_restricted_chain_verifies_when_willing(ca, rng):
    restriction = RestrictionPolicy("cas-simple-v1", b"lang: cas-simple-v1\n")
    chain, _ = make_user_chain(ca, rng, restrictions=[restriction])
    subject = verify_chain(chain, {ca.certificate}, 5000, WILLING)
    assert subject.restrictions == (restriction,)


def test_expired_and_not_yet_valid(ca, rng):
    chain, _ = make_user_chain(ca, rng, validities=[ValidityInterval(100, 200)])
    assert verify_chain(chain, {ca.certificate}, 150, UNWILLING)
    for t in (99, 201):
        with pytest.raises(Expired):
            verify_chain(chain, {ca.certificate}, t, UNWILLING)


def test_proxy_signed_by_wrong_key_fails(ca, rng):
    chain, key = make_user_chain(ca, rng)
    pk, _ = DEFAULT_SCHEME.generate(rng)
    _, stranger_key = DEFAULT_SCHEME.generate(rng)
    good = delegate(chain, key, pk, WIDE)
    resigned = replace(
        good.certs[1],
        signature=DEFAULT_SCHEME.sign(stranger_key, certificate_body(good.certs[1])))
    bad = CertificateChain((good.certs[0], resigned))
    with pytest.raises((BadSignature, MalformedChain)):
        verify_chain(bad, {ca.certificate}, 5000, UNWILLING)


def test_single_byte_body_mutation_fails_bad_signature(ca, rng):
    chain, key = make_user_chain(ca, rng)
    pk, _ = DEFAULT_SCHEME.generate(rng)
    good = delegate(chain, key, pk, WIDE)
    # flip one byte inside the leaf body (its bound public key)
    tampered_pk = bytes([pk[0] ^ 1]) + pk[1:]
    bad = CertificateChain(
        (good.certs[0], replace(good.certs[1], subject_public_key=tampered_pk)))
    with pytest.raises(BadSignature):
        verify_chain(bad, {ca.certificate}, 5000, UNWILLING)


def test_any_encoded_byte_mutation_fails(ca, rng):
    # over the wire form: flip random bytes, verification never succeeds
    restriction = RestrictionPolicy("cas-simple-v1", b"lang: cas-simple-v1\n")
    chain, _ = make_user_chain(ca, rng, restrictions=[restriction], groups=["s1"])
    data = bytearray(encode_chain(chain))
    for _ in range(200):
        i = rng.randrange(len(data))
        flipped = bytes(data[:i]) + bytes([data[i] ^ (1 << rng.randrange(8))]) \
            + bytes(data[i + 1:])
        try:
            mutant = decode_chain(flipped)
        except CasError:
            continue
        with pytest.raises(CasError):
            verify_chain(mutant, {ca.certificate}, 5000, WILLING)


def test_chain_must_start_with_identity(ca, rng):
    chain, key = make_user_chain(ca, rng)
    pk, _ = DEFAULT_SCHEME.generate(rng)
    longer = delegate(chain, key, pk, WIDE)
    flipped = CertificateChain((longer.certs[1], longer.certs[0]))
    with pytest.raises(MalformedChain):
        verify_chain(flipped, {ca.certificate}, 5000, UNWILLING)
    anchor_first = CertificateChain((ca.certificate,))
    with pytest.raises(MalformedChain):
        verify_chain(anchor_first, {ca.certificate}, 5000, UNWILLING)


# --- effective validity against the membership oracle -----------------------------

def test_effective_validity_examples():
    a = ValidityInterval(0, 100)
    b = ValidityInterval(50, 150)
    chain_like = [(0, 100), (50, 150)]
    assert a.intersect(b) == ValidityInterval(50, 100)
    assert oracle_chain_valid_at(chain_like, 75)
    assert not oracle_chain_valid_at(chain_like, 40)


def test_random_interval_chains_match_membership_oracle():
    # 1000 random chains x 100 sampled timestamps against the point oracle
    local = random.Random(7)
    for _ in range(1000):
        count = local.randint(1, 5)
        intervals = []
        for _ in range(count):
            nb = local.randint(0, 150)
            intervals.append((nb, nb + local.randint(0, 80)))
        chain = CertificateChain(tuple(
            _plain_cert(i, nb, na) for i, (nb, na) in enumerate(intervals)))
        try:
            interval = effective_validity(chain)
            empty = False
        except EmptyIntersection:
            empty = True
        for _ in range(100):
            t = local.randint(-10, 260)
            expected = oracle_chain_valid_at(intervals, t)
            got = (not empty) and interval.contains(t)
            assert got == expected, (intervals, t)


def _plain_cert(index, nb, na):
    from casauth.credential.certs import Certificate

    return Certificate(
        serial=index + 1,
        subject_name="x",
        issuer_name="x",
        subject_public_key=b"\x01" * 32,
        validity=ValidityInterval(nb, na),
        kind="identity" if index == 0 else "proxy",
        signature=b"\x00",
    )


# --- same_principal ------------------------------------------------------------------

def test_same_principal_rules(ca, rng):
    store = {ca.certificate}
    one, _ = make_user_chain(ca, rng, groups=["s1"])
    one_again, _ = make_user_chain(ca, rng, groups=["s1"])
    two, _ = make_user_chain(ca, rng, groups=["s2"])
    other_identity, _ = make_user_chain(ca, rng, groups=["s1"], subject="cas.other")

    s_one = verify_chain(one, store, 5000, UNWILLING)
    s_one_again = verify_chain(one_again, store, 5000, UNWILLING)
    s_two = verify_chain(two, store, 5000, UNWILLING)
    s_other = verify_chain(other_identity, store, 5000, UNWILLING)

    assert same_principal(s_one, s_one)           # reflexive
    assert same_principal(s_one, s_one_again)
    assert same_principal(s_one_again, s_one)     # symmetric
    assert not same_principal(s_one, s_two)       # per-session groups differ
    assert not same_principal(s_one, s_other)     # identity mismatch dominates


def test_restrictions_one_entry_per_restricted_proxy(ca, rng):
    r1 = RestrictionPolicy("cas-simple-v1", b"lang: cas-simple-v1\nright:\nobject /a\naction file:read\n")
    r2 = RestrictionPolicy("cas-simple-v1", b"lang: cas-simple-v1\n")
    chain, key = make_user_chain(ca, rng, restrictions=[r1])
    pk, key2 = DEFAULT_SCHEME.generate(rng)
    chain = delegate(chain, key, pk, WIDE)  # unrestricted hop
    pk2, _ = DEFAULT_SCHEME.generate(rng)
    chain = delegate(chain, key2, pk2, WIDE, restriction=r2)
    subject = verify_chain(chain, {ca.certificate}, 5000, WILLING)
    assert subject.restrictions == (r1, r2)


def test_enforcement_context_invariant():
    with pytest.raises(ValueError):
        EnforcementContext(False, frozenset({"cas-simple-v1"}))
    assert EnforcementContext(True, frozenset()).willing_to_enforce
