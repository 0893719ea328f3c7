"""Framing and the mutual-authentication handshake."""

import os
import socket
import struct
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casauth.credential.certs import ValidityInterval, encode_chain
from casauth.credential.issue import CertificateAuthority
from casauth.credential.keys import DEFAULT_SCHEME
from casauth.credential.verify import EnforcementContext
from casauth.errors import Expired, HandshakeError, ProtocolError, TransportError
from casauth.lines import hex_bytes, nonnegative_int
from casauth.wire.frames import (
    decode_payload,
    encode_message,
    read_message,
    send_message,
)
from casauth.wire.handshake import client_handshake, server_handshake

from genutils import spaced_hex

WIDE = ValidityInterval(0, 4_000_000_000)
NOW = 1_000_000
UNWILLING = EnforcementContext()


def test_frame_round_trip():
    left, right = socket.socketpair()
    with left, right:
        send_message(left, {"msg": "OK", "data": "", "reason": "none"})
        assert read_message(right) == {"msg": "OK", "data": "", "reason": "none"}


def test_eof_between_frames_is_none():
    left, right = socket.socketpair()
    with right:
        left.close()
        assert read_message(right) is None


def test_eof_mid_frame_is_transport_error():
    left, right = socket.socketpair()
    with right:
        left.sendall(struct.pack(">I", 100) + b"msg: OK\n")
        left.close()
        with pytest.raises(TransportError):
            read_message(right)


def test_malformed_payload_is_protocol_error():
    left, right = socket.socketpair()
    with left, right:
        payload = b"no colon here\n"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            read_message(right)


def test_first_line_must_be_msg():
    with pytest.raises(ProtocolError):
        decode_payload(b"data: x\nmsg: OK\n")


def test_oversized_frame_rejected():
    left, right = socket.socketpair()
    with left, right:
        left.sendall(struct.pack(">I", 1 << 31))
        with pytest.raises(TransportError):
            read_message(right)


def test_values_may_not_contain_linebreaks():
    with pytest.raises(ProtocolError):
        encode_message({"msg": "OK", "x": "a\nb"})


@pytest.mark.parametrize("payload", [b"msg: OK\r\n", b"msg: OK\nx: a\rb\n"],
                         ids=["msg", "value"])
def test_decode_refuses_the_carriage_return_encode_refuses(payload):
    with pytest.raises(ProtocolError):
        decode_payload(payload)


@pytest.mark.parametrize("key", ["a b", "a:b", "\u00e9 "])
def test_decode_refuses_the_keys_encode_refuses(key):
    with pytest.raises(ProtocolError):
        encode_message({"msg": "OK", key: "x"})
    with pytest.raises(ProtocolError):
        decode_payload(f"msg: OK\n{key}: x\n".encode())


# Payload lines near the grammar: keys with spaces, colons, control and
# non-ASCII characters, and line breaks inside a line.
_PAYLOAD_LINES = st.lists(st.sampled_from(["msg: OK", "msg: ", "a: x", "a: ", "b: c: d"])
                          | st.text(st.sampled_from("msg: a\t\r\x1c\x00\u00e9"), max_size=8),
                          min_size=1, max_size=5)


@settings(max_examples=300)
@example(b"msg: OK\na b: x\n")
@example(b"msg: OK\na:b: x\n")
@example("msg: OK\n\u00e9 : x\n".encode())
@given(_PAYLOAD_LINES.map(lambda lines: "\n".join(lines).encode() + b"\n")
       | st.binary(max_size=40))
def test_every_payload_decode_accepts_encodes_to_itself(payload):
    try:
        fields = decode_payload(payload)
    except ProtocolError:
        return
    assert encode_message(fields) == struct.pack(">I", len(payload)) + payload


# Any text, weighted towards digits, hex digits and spellings their encoders never write.
_VALUE_TEXT = st.text(st.sampled_from("0123456789abcdefABCDEF +-_ \t\u0661"), max_size=8)


@settings(max_examples=300)
@example("0")
@example("00")
@example("0a")
@given(_VALUE_TEXT | st.text(max_size=8))
@pytest.mark.parametrize("decode, encode", [(hex_bytes, bytes.hex), (nonnegative_int, str)],
                         ids=["hex_bytes", "nonnegative_int"])
def test_each_value_decoder_reads_only_what_its_encoder_writes(decode, encode, text):
    try:
        value = decode(text)
    except ValueError:
        return
    assert encode(value) == text


# Any text at all, surrogates included, weighted towards what a line may not hold.
_FRAME_TEXT = st.text(st.characters(blacklist_categories=())
                      | st.sampled_from("\n\r: \udcff¡"), max_size=8)


@settings(max_examples=150)
@example({"msg": "OK\nreason: denied"})
@example({"msg": "OK", "path": "/\udcff"})
@given(st.dictionaries(_FRAME_TEXT, _FRAME_TEXT, max_size=4)
       | st.builds(lambda fields, msg: {**fields, "msg": msg}, st.dictionaries(
           _FRAME_TEXT, _FRAME_TEXT, max_size=4), _FRAME_TEXT))
def test_every_message_encode_accepts_decodes_to_itself(fields):
    try:
        frame = encode_message(fields)
    except ProtocolError:
        return
    assert decode_payload(frame[4:]) == fields


@settings(max_examples=200)
@given(st.binary(min_size=1, max_size=120))
def test_decode_payload_total(data):
    try:
        decode_payload(data)
    except ProtocolError:
        pass


# --- handshake -------------------------------------------------------------------

def make_parties(rng):
    ca = CertificateAuthority.create("HandshakeCA", WIDE, rng=rng)
    server_cred = ca.issue_credential("cas.esg", WIDE, rng=rng)
    client_cred = ca.issue_credential("CN=alice", WIDE, rng=rng)
    return ca, server_cred, client_cred


def run_handshake(server_side, client_side):
    left, right = socket.socketpair()
    left.settimeout(5)
    right.settimeout(5)
    results = {}

    def server():
        try:
            results["server"] = server_side(left)
        except Exception as exc:  # noqa: BLE001 - surfaced via results
            results["server_error"] = exc
        finally:
            left.close()

    thread = threading.Thread(target=server)
    thread.start()
    try:
        results["client"] = client_side(right)
    except Exception as exc:  # noqa: BLE001
        results["client_error"] = exc
    finally:
        right.close()
        thread.join()
    return results


def test_mutual_handshake_succeeds(rng):
    ca, (s_chain, s_key), (c_chain, c_key) = make_parties(rng)
    store = {ca.certificate}
    results = run_handshake(
        lambda sock: server_handshake(sock, s_chain, s_key, store, UNWILLING, NOW),
        lambda sock: client_handshake(sock, c_chain, c_key, store, NOW))
    assert results["server"].identity == "CN=alice"
    assert results["client"].identity == "cas.esg"


def test_client_with_untrusted_chain_rejected(rng):
    ca, (s_chain, s_key), _ = make_parties(rng)
    other = CertificateAuthority.create("OtherCA", WIDE, rng=rng)
    stranger_chain, stranger_key = other.issue_credential("CN=eve", WIDE, rng=rng)
    store = {ca.certificate}
    results = run_handshake(
        lambda sock: server_handshake(sock, s_chain, s_key, store, UNWILLING, NOW),
        lambda sock: client_handshake(sock, stranger_chain, stranger_key, store, NOW))
    assert "server_error" in results
    assert isinstance(results["client_error"], HandshakeError)


def test_expired_client_chain_reported_as_expired(rng):
    ca, (s_chain, s_key), _ = make_parties(rng)
    expired_cred = ca.issue_credential("CN=old", ValidityInterval(0, 10), rng=rng)
    store = {ca.certificate}
    results = run_handshake(
        lambda sock: server_handshake(sock, s_chain, s_key, store, UNWILLING, NOW),
        lambda sock: client_handshake(sock, *expired_cred, store, NOW))
    assert isinstance(results["server_error"], Expired)
    assert isinstance(results["client_error"], Expired)


def test_client_failing_proof_of_possession(rng):
    ca, (s_chain, s_key), (c_chain, c_key) = make_parties(rng)
    _, wrong_key = DEFAULT_SCHEME.generate(rng)
    store = {ca.certificate}
    results = run_handshake(
        lambda sock: server_handshake(sock, s_chain, s_key, store, UNWILLING, NOW),
        lambda sock: client_handshake(sock, c_chain, wrong_key, store, NOW))
    assert isinstance(results["server_error"], HandshakeError)


def test_server_failing_proof_of_possession(rng):
    ca, (s_chain, _), (c_chain, c_key) = make_parties(rng)
    _, wrong_key = DEFAULT_SCHEME.generate(rng)
    store = {ca.certificate}
    results = run_handshake(
        lambda sock: server_handshake(sock, s_chain, wrong_key, store, UNWILLING, NOW),
        lambda sock: client_handshake(sock, c_chain, c_key, store, NOW))
    assert isinstance(results["client_error"], HandshakeError)


def test_echoed_signature_rejected(rng):
    # same credential on both ends: reflecting the server's own challenge
    # signature back must fail, because nonce order differs per direction
    import os

    from casauth.credential.certs import encode_chain

    ca, (chain, key), _ = make_parties(rng)
    store = {ca.certificate}

    def echo_client(sock):
        nonce = os.urandom(16)
        send_message(sock, {"msg": "HELLO", "chain": encode_chain(chain).hex(),
                            "nonce": nonce.hex()})
        challenge = read_message(sock)
        send_message(sock, {"msg": "RESPONSE", "sig": challenge["sig"]})
        return read_message(sock)

    results = run_handshake(
        lambda sock: server_handshake(sock, chain, key, store, UNWILLING, NOW),
        echo_client)
    assert isinstance(results["server_error"], HandshakeError)


def send_not_the_message(sock, bad):
    if bad == "unparsable":
        payload = b"not a message\n"
        sock.sendall(struct.pack(">I", len(payload)) + payload)
    elif bad == "wrong-type":
        send_message(sock, {"msg": "OK"})
    # "eof": send nothing; run_handshake closes the socket


@pytest.mark.parametrize("bad", ["eof", "unparsable", "wrong-type"])
@pytest.mark.parametrize("read", ["HELLO", "CHALLENGE", "RESPONSE"])
def test_each_handshake_read_refuses_what_is_not_its_message(rng, read, bad):
    ca, (s_chain, s_key), (c_chain, c_key) = make_parties(rng)
    store = {ca.certificate}

    def fake_server(sock):
        read_message(sock)  # the HELLO
        send_not_the_message(sock, bad)

    def fake_client(sock):
        if read == "RESPONSE":
            send_message(sock, {"msg": "HELLO", "chain": encode_chain(c_chain).hex(),
                                "nonce": os.urandom(16).hex()})
            assert read_message(sock)["msg"] == "CHALLENGE"
        send_not_the_message(sock, bad)

    if read == "CHALLENGE":
        results = run_handshake(
            fake_server,
            lambda sock: client_handshake(sock, c_chain, c_key, store, NOW))
        error = results.get("client_error")
    else:
        results = run_handshake(
            lambda sock: server_handshake(sock, s_chain, s_key, store, UNWILLING, NOW),
            fake_client)
        assert "client_error" not in results, results
        error = results.get("server_error")
    assert isinstance(error, HandshakeError), results


_NONCE = bytes(range(0xa0, 0xb0))
_NONCE_HEX = _NONCE.hex()


@pytest.mark.parametrize("nonce", ["zz", _NONCE_HEX.upper(), spaced_hex(_NONCE_HEX),
                                   _NONCE_HEX[2:], None],
                         ids=["not-hex", "upper-case", "spaced", "short", "missing"])
def test_every_refused_hello_is_answered_error_auth(rng, nonce):
    ca, (s_chain, s_key), (c_chain, _) = make_parties(rng)
    hello = {"msg": "HELLO", "chain": encode_chain(c_chain).hex()}
    if nonce is not None:
        hello["nonce"] = nonce

    def fake_client(sock):
        send_message(sock, hello)
        return read_message(sock)

    results = run_handshake(
        lambda sock: server_handshake(sock, s_chain, s_key, {ca.certificate}, UNWILLING, NOW),
        fake_client)
    assert results["client"] == {"msg": "ERROR", "reason": "auth"}, results
    assert "server_error" in results


@pytest.mark.parametrize("spell", [str.upper, spaced_hex], ids=["upper-case", "spaced"])
def test_client_refuses_a_challenge_nonce_spelled_otherwise(rng, spell):
    ca, (s_chain, s_key), (c_chain, c_key) = make_parties(rng)

    def fake_server(sock):
        client_nonce = bytes.fromhex(read_message(sock)["nonce"])
        sig = DEFAULT_SCHEME.sign(s_key, client_nonce + _NONCE)
        send_message(sock, {"msg": "CHALLENGE", "chain": encode_chain(s_chain).hex(),
                            "nonce": spell(_NONCE_HEX), "sig": sig.hex()})
        read_message(sock)

    results = run_handshake(
        fake_server, lambda sock: client_handshake(sock, c_chain, c_key, {ca.certificate}, NOW))
    assert isinstance(results.get("client_error"), HandshakeError), results
