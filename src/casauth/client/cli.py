"""Command-line tools: cas-keygen, cas-admin, cas-proxy-init, cas-file.

Exit codes are a fixed function of the error taxonomy so scripts can
branch on them: 0 ok, 2 denied, 3 authentication, 4 transport, 5 usage,
1 anything else.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..clocks import system_clock
from ..credential.certs import (
    CertificateChain,
    ValidityInterval,
    load_trust_store,
    save_trust_store,
)
from ..credential.issue import CertificateAuthority
from ..credfile import load_credential, save_credential
from ..casd.config import split_endpoint
from ..errors import CasError, Refused, TransportError
from ..policy.model import ALL
from ..policy.text import parse_policy
from .api import acquire_capability, admin_command, file_op

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DENIED = 2
EXIT_AUTH = 3
EXIT_TRANSPORT = 4
EXIT_USAGE = 5

PROXY_ENV = "CAS_PROXY"
TRUST_ENV = "CAS_TRUST_STORE"
DEFAULT_PROXY = "./cas-proxy"


def exit_code_for(exc: CasError) -> int:
    if isinstance(exc, Refused):
        return EXIT_DENIED
    if exc.reason in ("auth", "expired"):
        return EXIT_AUTH
    if isinstance(exc, TransportError):
        return EXIT_TRANSPORT
    return EXIT_ERROR


def _run(prog, parser: argparse.ArgumentParser, argv, body) -> int:
    """Parse args and translate errors into exit codes."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage error and 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return body(args)
    except CasError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def _trust_path(value: str | None) -> str:
    path = value or os.environ.get(TRUST_ENV)
    if not path:
        raise TransportError("no trust store: pass --trust or set CAS_TRUST_STORE")
    return path


def _proxy_path(value: str | None) -> str:
    return value or os.environ.get(PROXY_ENV) or DEFAULT_PROXY


# --- cas-keygen ---------------------------------------------------------------

def main_keygen(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cas-keygen",
        description="Generate CA roots and issue identity credentials")
    sub = parser.add_subparsers(dest="command", required=True)

    ca = sub.add_parser("ca", help="create a certificate authority")
    ca.add_argument("--name", required=True)
    ca.add_argument("--cred-out", required=True, help="CA credential file")
    ca.add_argument("--anchor-out", required=True, help="trust anchor file")
    ca.add_argument("--days", type=int, default=3650)

    issue = sub.add_parser("issue", help="issue an identity credential")
    issue.add_argument("--ca-cred", required=True, help="CA credential file")
    issue.add_argument("--subject", required=True)
    issue.add_argument("--cred-out", required=True)
    issue.add_argument("--days", type=int, default=365)

    def body(args) -> int:
        now = system_clock()
        if args.command == "ca":
            validity = ValidityInterval(now, now + args.days * 86_400)
            authority = CertificateAuthority.create(args.name, validity)
            save_credential(args.cred_out,
                            CertificateChain((authority.certificate,)),
                            authority.private_key)
            save_trust_store(args.anchor_out, [authority.certificate])
            print(f"created CA {args.name!r}; anchor in {args.anchor_out}")
            return EXIT_OK
        anchor_chain, ca_key = load_credential(args.ca_cred)
        anchor = anchor_chain.certs[0]
        authority = CertificateAuthority(anchor.subject_name,
                                         anchor.subject_public_key, ca_key, anchor)
        validity = ValidityInterval(now, now + args.days * 86_400)
        chain, private_key = authority.issue_credential(args.subject, validity)
        save_credential(args.cred_out, chain, private_key)
        print(f"issued identity {args.subject!r} into {args.cred_out}")
        return EXIT_OK

    return _run("cas-keygen", parser, argv, body)


# --- cas-admin -------------------------------------------------------------------

def main_admin(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cas-admin", description="Administer a CAS server")
    parser.add_argument("--cas", required=True, help="host:port of the CAS server")
    parser.add_argument("--cred", required=True, help="credential file to authenticate with")
    parser.add_argument("--trust", help=f"trust store (default ${TRUST_ENV})")
    parser.add_argument("verb", help="enroll-user, grant, ...")
    parser.add_argument("args", nargs="*")

    def body(args) -> int:
        chain, leaf_key = load_credential(args.cred)
        anchors = load_trust_store(_trust_path(args.trust))
        reply = admin_command(split_endpoint(args.cas), chain, leaf_key,
                              args.verb, args.args, trust_store=anchors)
        if "id" in reply:
            print(f"ok id={reply['id']}")
        else:
            print("ok")
        return EXIT_OK

    return _run("cas-admin", parser, argv, body)


# --- cas-proxy-init ----------------------------------------------------------------

def main_proxy_init(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cas-proxy-init",
        description="Acquire a capability and store it as a proxy file")
    parser.add_argument("--cas", required=True, help="host:port of the CAS server")
    parser.add_argument("--cred", required=True, help="long-term user credential")
    parser.add_argument("--trust", help=f"trust store (default ${TRUST_ENV})")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true",
                       help="request everything the community grants you")
    group.add_argument("--want", help="policy file naming the rights to request")
    parser.add_argument("--lifetime", type=int, default=43_200)
    parser.add_argument("--out", help=f"proxy path (default ${PROXY_ENV} or {DEFAULT_PROXY})")

    def body(args) -> int:
        chain, leaf_key = load_credential(args.cred)
        anchors = load_trust_store(_trust_path(args.trust))
        if args.all:
            want = ALL
        else:
            with open(args.want, "rb") as fh:
                want = parse_policy(fh.read())
        capability, session_key = acquire_capability(
            split_endpoint(args.cas), chain, leaf_key, want, args.lifetime,
            trust_store=anchors)
        out = _proxy_path(args.out)
        save_credential(out, capability, session_key)
        leaf = capability.leaf
        print(f"capability stored in {out}, valid until {leaf.validity.not_after}")
        return EXIT_OK

    return _run("cas-proxy-init", parser, argv, body)


# --- cas-file ------------------------------------------------------------------------

def main_file(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cas-file", description="File operations through a capability")
    parser.add_argument("--resource", required=True, help="host:port of the file server")
    parser.add_argument("--proxy", help=f"proxy file (default ${PROXY_ENV} or {DEFAULT_PROXY})")
    parser.add_argument("--trust", help=f"trust store (default ${TRUST_ENV})")
    parser.add_argument("--input", help="file to send for write (default stdin)")
    parser.add_argument("action", choices=("read", "write", "list"))
    parser.add_argument("path")

    def body(args) -> int:
        chain, session_key = load_credential(_proxy_path(args.proxy))
        anchors = load_trust_store(_trust_path(args.trust))
        payload = None
        if args.action == "write":
            if args.input:
                with open(args.input, "rb") as fh:
                    payload = fh.read()
            else:
                payload = sys.stdin.buffer.read()
        result = file_op(split_endpoint(args.resource), chain, session_key,
                         args.action, args.path, payload, trust_store=anchors)
        if args.action == "read":
            sys.stdout.buffer.write(result)
            sys.stdout.buffer.flush()
        elif args.action == "list":
            for name in result:
                print(name)
        return EXIT_OK

    return _run("cas-file", parser, argv, body)


if __name__ == "__main__":
    sys.exit(main_file())
