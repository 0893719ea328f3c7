"""Command-line tools: cas-keygen, cas-admin, cas-proxy-init, cas-file."""

from __future__ import annotations

import argparse
import os
import sys

from ..cli import EXIT_OK, run
from ..clocks import system_clock
from ..credential.certs import (
    CertificateChain,
    ValidityInterval,
    load_trust_store,
    save_trust_store,
)
from ..credential.issue import CertificateAuthority
from ..credfile import load_credential, save_credential
from ..lines import nonnegative_int, read_file
from ..policy.model import ALL
from ..policy.text import parse_policy
from ..wire.frames import split_endpoint
from .api import acquire_capability, admin_command, file_op

PROXY_ENV = "CAS_PROXY"
TRUST_ENV = "CAS_TRUST_STORE"
DEFAULT_PROXY = "./cas-proxy"


def _add_trust(parser: argparse.ArgumentParser) -> None:
    trust = os.environ.get(TRUST_ENV) or None
    parser.add_argument("--trust", default=trust, required=trust is None,
                        help=f"trust store (default ${TRUST_ENV})")


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
    ca.add_argument("--days", type=nonnegative_int, default=3650)

    issue = sub.add_parser("issue", help="issue an identity credential")
    issue.add_argument("--ca-cred", required=True, help="CA credential file")
    issue.add_argument("--subject", required=True)
    issue.add_argument("--cred-out", required=True)
    issue.add_argument("--days", type=nonnegative_int, default=365)

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

    return run("cas-keygen", parser, argv, body)


# --- cas-admin -------------------------------------------------------------------

def main_admin(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cas-admin", description="Administer a CAS server")
    parser.add_argument("--cas", required=True, help="host:port of the CAS server")
    parser.add_argument("--cred", required=True, help="credential file to authenticate with")
    _add_trust(parser)
    parser.add_argument("verb", help="enroll-user, grant, ...")
    parser.add_argument("args", nargs="*")

    def body(args) -> int:
        chain, leaf_key = load_credential(args.cred)
        anchors = load_trust_store(args.trust)
        reply = admin_command(split_endpoint(args.cas), chain, leaf_key,
                              args.verb, args.args, trust_store=anchors)
        if "id" in reply:
            print(f"ok id={reply['id']}")
        else:
            print("ok")
        return EXIT_OK

    return run("cas-admin", parser, argv, body)


# --- cas-proxy-init ----------------------------------------------------------------

def main_proxy_init(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cas-proxy-init",
        description="Acquire a capability and store it as a proxy file")
    parser.add_argument("--cas", required=True, help="host:port of the CAS server")
    parser.add_argument("--cred", required=True, help="long-term user credential")
    _add_trust(parser)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true",
                       help="request everything the community grants you")
    group.add_argument("--want", help="policy file naming the rights to request")
    parser.add_argument("--lifetime", type=nonnegative_int,
                        help="capability lifetime in seconds (default: the server's cap)")
    parser.add_argument("--out", default=os.environ.get(PROXY_ENV) or DEFAULT_PROXY,
                        help=f"proxy path (default ${PROXY_ENV} or {DEFAULT_PROXY})")

    def body(args) -> int:
        chain, leaf_key = load_credential(args.cred)
        anchors = load_trust_store(args.trust)
        if args.all:
            want = ALL
        else:
            want = parse_policy(read_file(args.want, "policy file"))
        capability, session_key = acquire_capability(
            split_endpoint(args.cas), chain, leaf_key, want, args.lifetime,
            trust_store=anchors)
        save_credential(args.out, capability, session_key)
        leaf = capability.leaf
        print(f"capability stored in {args.out}, valid until {leaf.validity.not_after}")
        return EXIT_OK

    return run("cas-proxy-init", parser, argv, body)


# --- cas-file ------------------------------------------------------------------------

def main_file(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cas-file", description="File operations through a capability")
    parser.add_argument("--resource", required=True, help="host:port of the file server")
    parser.add_argument("--proxy", default=os.environ.get(PROXY_ENV) or DEFAULT_PROXY,
                        help=f"proxy file (default ${PROXY_ENV} or {DEFAULT_PROXY})")
    _add_trust(parser)
    parser.add_argument("--input", help="file to send for write (default stdin)")
    parser.add_argument("action", choices=("read", "write", "list"))
    parser.add_argument("path")

    def body(args) -> int:
        chain, session_key = load_credential(args.proxy)
        anchors = load_trust_store(args.trust)
        payload = None
        if args.action == "write":
            if args.input:
                payload = read_file(args.input, "input file")
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

    return run("cas-file", parser, argv, body)


if __name__ == "__main__":
    sys.exit(main_file())
