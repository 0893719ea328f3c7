"""Error taxonomy shared across the whole stack.

Every failure surfaced by this package is a CasError subclass so callers
(and the CLI exit-code mapping) can dispatch on type instead of message
text. Each class names its ``reason``: the word a server puts in a
``DENIED`` or ``ERROR`` reply, and the outcome kind scenario scripts
assert on. ``Refused`` errors are the ones answered with ``DENIED``.
"""


class CasError(Exception):
    """Base class for all errors raised by this package."""

    reason = "internal"


class Refused(CasError):
    """The request was understood and policy says no."""

    reason = "denied"


# --- credential layer -------------------------------------------------------

class InvalidInterval(CasError):
    """A validity interval with not_before > not_after."""

    reason = "invalid-interval"


class EmptyIntersection(CasError):
    """The intersection of the chain's validity intervals is empty."""

    reason = "empty-intersection"


class MalformedChain(CasError):
    """A certificate chain violating a structural invariant."""

    reason = "auth"


class BadSignature(CasError):
    """A proxy certificate whose signature does not verify."""

    reason = "auth"


class UntrustedRoot(CasError):
    """The first certificate is not signed by any trust-store key."""

    reason = "auth"


class Expired(CasError):
    """The verification time lies outside the effective validity."""

    reason = "expired"


class RestrictionRefused(CasError):
    """A restricted chain presented to an unwilling verifier."""

    reason = "auth"


class UnknownPolicyLanguage(CasError):
    """A restriction in a language the verifier cannot evaluate."""

    reason = "auth"


# --- encodings ---------------------------------------------------------------

class ParseError(CasError):
    """Malformed input to one of the canonical text decoders."""

    reason = "parse"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateField(ParseError):
    pass


class MissingField(ParseError):
    pass


class UnsupportedLanguage(ParseError):
    """A policy document in a language this build does not speak."""


# --- community database and administration -----------------------------------

class NotAuthorized(Refused):
    reason = "not-authorized"


class UnknownActor(NotAuthorized):
    """Admin request from an identity that is neither enrolled nor bootstrap."""

    reason = "unknown-actor"


class DuplicateName(CasError):
    reason = "duplicate-name"


class UnknownName(CasError):
    reason = "unknown-name"


class InvariantViolation(CasError):
    """A mutation or snapshot that would break a database invariant."""

    reason = "invariant"


# --- capability issuance -------------------------------------------------------

class Denied(Refused):
    """The request intersected with held rights grants nothing."""


class NotEnrolled(Refused):
    reason = "not-enrolled"


class RestrictedAuthRefused(Refused):
    """Capability or admin requests must use an unrestricted credential."""

    reason = "restricted-chain"


# --- file service ---------------------------------------------------------------

class NotFound(CasError):
    reason = "not-found"


class IsDirectory(CasError):
    reason = "is-directory"


class NotDirectory(CasError):
    reason = "not-directory"


class PathEscape(CasError):
    """Path normalization rejected an object name (traversal attempt)."""

    reason = "path-escape"


class IoError(CasError):
    """Operating-system level failure while touching the virtual root."""

    reason = "io"


# --- transport -------------------------------------------------------------------

class TransportError(CasError):
    reason = "transport"


class HandshakeError(CasError):
    reason = "auth"


class ProtocolError(CasError):
    """A frame that does not parse or a reply of an unexpected type."""

    reason = "protocol"


# The class a client raises for each reason a server replies with.
REPLY_ERRORS: dict[str, type[CasError]] = {cls.reason: cls for cls in (
    Denied, NotAuthorized, UnknownActor, NotEnrolled, RestrictedAuthRefused,
    DuplicateName, UnknownName, InvariantViolation, ParseError, Expired,
    NotFound, IsDirectory, NotDirectory, PathEscape, IoError)}
