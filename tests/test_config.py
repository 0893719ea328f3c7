"""Endpoint flags and credential files."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casauth.credential.certs import ValidityInterval, encode_chain
from casauth.credential.issue import CertificateAuthority
from casauth.credential.keys import DEFAULT_SCHEME
from casauth.credfile import load_credential, save_credential
from casauth.errors import CasError, IoError, ParseError
from casauth.wire.frames import split_endpoint


def test_split_endpoint():
    assert split_endpoint("127.0.0.1:7512") == ("127.0.0.1", 7512)
    assert split_endpoint("::1:0") == ("::1", 0)
    assert split_endpoint("h:65535") == ("h", 65535)
    for bad in ("no-port", "h:", "h:notaport", "h:65536", "h:-1", "h:+1",
                "h: 1", "h:\u0661", "h:080"):
        with pytest.raises(ParseError):
            split_endpoint(bad)


def test_credential_file_round_trip(tmp_path, ca, rng):
    chain, key = ca.issue_credential("CN=alice", ValidityInterval(0, 10**9),
                                     rng=rng)
    # a key written over a readable file must not stay readable
    readable = tmp_path / "readable.cred"
    readable.write_bytes(b"old\n")
    readable.chmod(0o644)
    for path in (tmp_path / "alice.cred", readable):
        save_credential(path, chain, key)
        assert (path.stat().st_mode & 0o777) == 0o600
        loaded_chain, loaded_key = load_credential(path)
        assert loaded_chain == chain
        assert DEFAULT_SCHEME.private_bytes(loaded_key) == \
            DEFAULT_SCHEME.private_bytes(key)


def test_credential_file_without_key_line_rejected(tmp_path, ca, rng):
    from casauth.credential.certs import encode_chain

    chain, _ = ca.issue_credential("CN=alice", ValidityInterval(0, 10**9),
                                   rng=rng)
    path = tmp_path / "broken.cred"
    path.write_bytes(encode_chain(chain))
    with pytest.raises(ParseError):
        load_credential(path)


def test_credential_with_upper_case_key_refused(tmp_path, ca, rng):
    chain, key = ca.issue_credential("CN=alice", ValidityInterval(0, 10**9),
                                     rng=rng)
    path = tmp_path / "alice.cred"
    save_credential(path, chain, key)
    lines = path.read_text().split("\n")
    lines[-2] = "private-key: " + DEFAULT_SCHEME.private_bytes(key).hex().upper()
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match="private key"):
        load_credential(path)


def test_missing_credential_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_credential(tmp_path / "absent")


def _credential_lines() -> list[str]:
    rng = random.Random(7)
    wide = ValidityInterval(0, 10**9)
    ca = CertificateAuthority.create("FuzzCA", wide, rng=rng)
    chain, key = ca.issue_credential("CN=fuzz", wide, rng=rng)
    key_line = "private-key: " + DEFAULT_SCHEME.private_bytes(key).hex()
    return encode_chain(chain).decode().split("\n")[:-1] + [key_line]


_CREDENTIAL_LINES = _credential_lines() + [
    "----", "", "private-key: 00", "private-key: zz", "private-key: "]


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=300)
       | st.lists(st.sampled_from(_CREDENTIAL_LINES), max_size=12).map(
           lambda lines: ("\n".join(lines) + "\n").encode()))
def test_load_credential_is_total(tmp_path, data):
    path = tmp_path / "fuzz.cred"
    path.write_bytes(data)
    try:
        load_credential(path)
    except CasError:
        pass
