"""Certificate model and its canonical text encoding.

A certificate is encoded as UTF-8 ``key: value`` lines in a fixed order,
one linefeed after each line:

    serial: 7
    kind: proxy
    subject: cas.esg
    issuer: cas.esg
    subject-pk: <lowercase hex>
    not-before: 1000
    not-after: 2000
    policy-lang: cas-simple-v1      (restricted proxies only)
    policy-body: <lowercase hex>
    policy-critical: true
    proxy-group: cas-session-3      (optional)
    sig: <lowercase hex>

Everything up to and including the line before ``sig`` is the body; the
signature is computed over exactly those bytes, final linefeed included.
A chain file is certificates joined by a separator line ``----``.

Decoding is strict: the only accepted input is the canonical encoding, so
``encode(decode(data)) == data`` holds whenever decode succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import Expired, MissingField, ParseError
from ..lines import (
    field,
    hex_bytes,
    is_identity,
    is_token,
    join_blocks,
    join_lines,
    key_values,
    nonnegative_int,
    read_file,
    split_blocks,
    split_lines,
    write_file,
)

KIND_TRUST_ANCHOR = "trust-anchor"
KIND_IDENTITY = "identity"
KIND_PROXY = "proxy"
KINDS = (KIND_TRUST_ANCHOR, KIND_IDENTITY, KIND_PROXY)

_POLICY_KEYS = ("policy-lang", "policy-body", "policy-critical")


@dataclass(frozen=True)
class ValidityInterval:
    """Closed interval of whole seconds, UTC."""

    not_before: int
    not_after: int

    @property
    def is_empty(self) -> bool:
        return self.not_before > self.not_after

    def contains(self, t: int) -> bool:
        return self.not_before <= t <= self.not_after

    def check(self, t: int) -> None:
        """Expired unless ``t`` lies in the interval."""
        if not self.contains(t):
            raise Expired(f"time {t} outside [{self.not_before}, {self.not_after}]")

    def intersect(self, other: "ValidityInterval") -> "ValidityInterval":
        return ValidityInterval(max(self.not_before, other.not_before),
                                min(self.not_after, other.not_after))


@dataclass(frozen=True)
class RestrictionPolicy:
    """An opaque policy body plus the tag naming its language.

    Restrictions are always critical, encoded as ``policy-critical: true``:
    a verifier that cannot evaluate the body must reject the whole chain.
    """

    language_tag: str
    body: bytes

    def __post_init__(self):
        if not is_token(self.language_tag):
            raise ValueError("language tag must be nonempty ASCII without whitespace")


@dataclass(frozen=True)
class Certificate:
    serial: int
    subject_name: str
    issuer_name: str
    subject_public_key: bytes
    validity: ValidityInterval
    kind: str
    restriction: RestrictionPolicy | None = None
    proxy_group: str | None = None
    signature: bytes = b""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if min(self.serial, self.validity.not_before, self.validity.not_after) < 0:
            raise ValueError("serial and validity bounds must be nonnegative")
        for name, what in ((self.subject_name, "subject"), (self.issuer_name, "issuer")):
            if not is_identity(name):
                raise ValueError(f"{what} name must be a nonempty single line")
        if not self.subject_public_key:
            raise ValueError("subject public key must be nonempty")
        if self.proxy_group is not None and not is_token(self.proxy_group):
            raise ValueError("proxy group must be a nonempty token")


@dataclass(frozen=True)
class CertificateChain:
    """Ordered certificates: position 0 the identity, the rest proxies."""

    certs: tuple[Certificate, ...]

    def __post_init__(self):
        if not self.certs:
            raise ValueError("a chain holds at least one certificate")
        object.__setattr__(self, "certs", tuple(self.certs))

    @property
    def leaf(self) -> Certificate:
        return self.certs[-1]

    def extended(self, cert: Certificate) -> "CertificateChain":
        return CertificateChain(self.certs + (cert,))


# --- encoding ----------------------------------------------------------------

def certificate_body(cert: Certificate) -> bytes:
    """The canonical body bytes, i.e. what gets signed."""
    lines = [
        f"serial: {cert.serial}",
        f"kind: {cert.kind}",
        f"subject: {cert.subject_name}",
        f"issuer: {cert.issuer_name}",
        f"subject-pk: {cert.subject_public_key.hex()}",
        f"not-before: {cert.validity.not_before}",
        f"not-after: {cert.validity.not_after}",
    ]
    if cert.restriction is not None:
        lines.append(f"policy-lang: {cert.restriction.language_tag}")
        lines.append(f"policy-body: {cert.restriction.body.hex()}")
        lines.append("policy-critical: true")
    if cert.proxy_group is not None:
        lines.append(f"proxy-group: {cert.proxy_group}")
    return join_lines(lines)


def encode_certificate(cert: Certificate) -> bytes:
    return certificate_body(cert) + join_lines([f"sig: {cert.signature.hex()}"])


def _certificate_from_lines(lines: list[str], first_line: int) -> Certificate:
    # Only the fields are read here; the final re-encoding comparison
    # refuses unknown fields, field order and any other non-canonical form.
    fields = key_values(lines, first_line)
    restriction = None
    if any(key in fields for key in _POLICY_KEYS):
        for key in _POLICY_KEYS:
            if key not in fields:
                raise MissingField(f"missing field {key!r}")
        try:
            restriction = RestrictionPolicy(fields["policy-lang"],
                                            field(fields, "policy-body", hex_bytes))
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    try:
        cert = Certificate(
            serial=field(fields, "serial", nonnegative_int),
            subject_name=field(fields, "subject", str),
            issuer_name=field(fields, "issuer", str),
            subject_public_key=field(fields, "subject-pk", hex_bytes),
            validity=ValidityInterval(field(fields, "not-before", nonnegative_int),
                                      field(fields, "not-after", nonnegative_int)),
            kind=field(fields, "kind", str),
            restriction=restriction,
            proxy_group=fields.get("proxy-group"),
            signature=field(fields, "sig", hex_bytes),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if encode_certificate(cert) != join_lines(lines):
        raise ParseError("certificate is not in canonical form", line=first_line)
    return cert


def decode_certificate(data: bytes) -> Certificate:
    """Decode one canonically encoded certificate.

    Raises ParseError (or its DuplicateField/MissingField refinements) on
    anything that is not the exact canonical form.
    """
    return _certificate_from_lines(split_lines(data), 1)


def encode_certificates(certs) -> bytes:
    """Encode several certificates into one chain-format file."""
    return join_blocks([encode_certificate(c) for c in certs])


def certificates_from_lines(lines: list[str]) -> list[Certificate]:
    return [_certificate_from_lines(block, start) for start, block in split_blocks(lines)]


def decode_certificates(data: bytes) -> list[Certificate]:
    return certificates_from_lines(split_lines(data))


def encode_chain(chain: CertificateChain) -> bytes:
    return encode_certificates(chain.certs)


def decode_chain(data: bytes) -> CertificateChain:
    return CertificateChain(tuple(decode_certificates(data)))


# --- trust store files ---------------------------------------------------------

def save_trust_store(path, anchors) -> None:
    ordered = sorted(anchors, key=lambda c: (c.subject_name, c.serial))
    write_file(path, encode_certificates(ordered), "trust store")


def load_trust_store(path) -> frozenset[Certificate]:
    return frozenset(decode_certificates(read_file(path, "trust store")))
