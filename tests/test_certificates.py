"""Canonical certificate encoding: round trips, strictness, field errors."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casauth.credential.certs import (
    CertificateChain,
    ValidityInterval,
    decode_certificate,
    decode_chain,
    encode_certificate,
    encode_chain,
)
from casauth.errors import DuplicateField, MissingField, ParseError

from genutils import random_certificate


def test_round_trip_structural_equality(rng):
    for _ in range(100):
        cert = random_certificate(rng)
        assert decode_certificate(encode_certificate(cert)) == cert


def test_double_round_trip_is_byte_identical(rng):
    # canonicality: encode(decode(encode(c))) == encode(c), 100 random certs
    for _ in range(100):
        cert = random_certificate(rng)
        once = encode_certificate(cert)
        again = encode_certificate(decode_certificate(once))
        assert once == again


def test_chain_file_round_trip(rng):
    certs = [random_certificate(rng) for _ in range(4)]
    chain = CertificateChain(tuple(certs))
    assert decode_chain(encode_chain(chain)) == chain


def test_chain_value_containing_separator_text(rng):
    # a subject ending in dashes must not be mistaken for the separator
    from dataclasses import replace

    cert = random_certificate(rng)
    weird = replace(random_certificate(rng), subject_name="AB----", issuer_name="AB----")
    chain = CertificateChain((cert, weird))
    assert decode_chain(encode_chain(chain)) == chain


def test_missing_field_detected(rng):
    data = encode_certificate(random_certificate(rng))
    lines = data.decode().split("\n")
    without_issuer = "\n".join(l for l in lines if not l.startswith("issuer: "))
    with pytest.raises(MissingField):
        decode_certificate(without_issuer.encode())


def test_duplicate_field_detected(rng):
    text = encode_certificate(random_certificate(rng)).decode()
    first_line_end = text.index("\n") + 1
    duplicated = text[:first_line_end] + text.split("\n")[0] + "\n" + text[first_line_end:]
    with pytest.raises(DuplicateField):
        decode_certificate(duplicated.encode())


def test_non_canonical_order_rejected(rng):
    data = encode_certificate(random_certificate(rng)).decode()
    lines = data.split("\n")[:-1]
    swapped = "\n".join([lines[1], lines[0]] + lines[2:]) + "\n"
    with pytest.raises(ParseError):
        decode_certificate(swapped.encode())


def test_uppercase_hex_rejected(rng):
    data = encode_certificate(random_certificate(rng)).decode()
    lines = data.split("\n")
    pk_line = next(i for i, l in enumerate(lines) if l.startswith("subject-pk: "))
    lines[pk_line] = lines[pk_line].upper().replace("SUBJECT-PK", "subject-pk")
    with pytest.raises(ParseError):
        decode_certificate("\n".join(lines).encode())


@pytest.mark.parametrize("group", ["a\x00b", "\u00e9"], ids=["nul", "non-ascii"])
def test_proxy_group_that_is_not_a_token_refused(rng, group):
    cert = random_certificate(rng)
    with pytest.raises(ValueError, match="proxy group"):
        dataclasses.replace(cert, kind="proxy", proxy_group=group)


def test_missing_final_newline_rejected(rng):
    data = encode_certificate(random_certificate(rng))
    with pytest.raises(ParseError):
        decode_certificate(data[:-1])


@settings(max_examples=200)
@given(st.binary(max_size=300))
def test_decode_is_total(data):
    # random bytes either decode or raise ParseError, never crash
    try:
        decode_certificate(data)
    except ParseError:
        pass


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_interval_intersection_membership(a, b, c, d):
    left = ValidityInterval(a, b)
    right = ValidityInterval(c, d)
    both = left.intersect(right)
    probe = random.Random(a ^ c).randint(-10**6, 10**6)
    assert both.contains(probe) == (left.contains(probe) and right.contains(probe))


def test_interval_intersection_examples():
    assert ValidityInterval(0, 100).intersect(ValidityInterval(50, 150)) == \
        ValidityInterval(50, 100)
    assert ValidityInterval(0, 100).intersect(ValidityInterval(0, 100)) == \
        ValidityInterval(0, 100)
