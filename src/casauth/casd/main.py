"""Command-line entry point for the CAS server daemon, configured by its flags alone."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from ..credential.certs import load_trust_store
from ..credfile import load_credential
from ..errors import CasError
from ..wire.frames import split_endpoint
from .db import CommunityDB, load_db, save_db
from .issuance import DEFAULT_MAX_LIFETIME
from .server import serve


def seconds(value: str) -> int:
    """A whole, nonnegative number of seconds."""
    if not (value.isascii() and value.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative whole number of seconds, got {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casd", description="Community authorization service daemon")
    parser.add_argument("--listen", default="127.0.0.1:7512", help="host:port to listen on")
    parser.add_argument("--db", required=True, help="community database snapshot path")
    parser.add_argument("--cred", required=True, help="server credential file")
    parser.add_argument("--trust", required=True, help="trust store file")
    parser.add_argument("--bootstrap-admin", help="identity that always passes admin checks")
    parser.add_argument("--max-lifetime", type=seconds, default=DEFAULT_MAX_LIFETIME,
                        help="capability lifetime cap in seconds")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage error and 0 for --help
        return 0 if exc.code == 0 else 5
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(asctime)s %(name)s %(message)s")
    try:
        chain, leaf_key = load_credential(args.cred)
        anchors = load_trust_store(args.trust)
        if os.path.exists(args.db):
            db = load_db(args.db, anchors)
        else:
            # first boot: start from an empty community and create the snapshot
            db = CommunityDB(trust_anchors=anchors)
            save_db(db, args.db)
        serve(db, split_endpoint(args.listen), (chain, leaf_key),
              bootstrap_admin=args.bootstrap_admin, max_lifetime=args.max_lifetime,
              db_path=args.db)
    except KeyboardInterrupt:
        return 0
    except CasError as exc:
        print(f"casd: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
