"""Command-line entry point for the CAS server daemon, configured by its flags alone."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from ..cli import EXIT_OK, run
from ..credential.certs import load_trust_store
from ..credfile import load_credential
from ..lines import is_identity, nonnegative_int
from ..wire.frames import split_endpoint
from .db import CommunityDB, load_db, save_db
from .issuance import DEFAULT_MAX_LIFETIME
from .server import serve


def identity(text: str) -> str:
    if not is_identity(text):
        raise ValueError(text)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casd", description="Community authorization service daemon")
    parser.add_argument("--listen", default="127.0.0.1:7512", help="host:port to listen on")
    parser.add_argument("--db", required=True, help="community database snapshot path")
    parser.add_argument("--cred", required=True, help="server credential file")
    parser.add_argument("--trust", required=True, help="trust store file")
    parser.add_argument("--bootstrap-admin", type=identity,
                        help="identity that always passes admin checks")
    parser.add_argument("--max-lifetime", type=nonnegative_int,
                        default=DEFAULT_MAX_LIFETIME, help="capability lifetime cap in seconds")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    def body(args) -> int:
        logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                            format="%(asctime)s %(name)s %(message)s")
        chain, leaf_key = load_credential(args.cred)
        anchors = load_trust_store(args.trust)
        if os.path.exists(args.db):
            db = load_db(args.db)
        else:
            # first boot: start from an empty community and create the snapshot
            db = CommunityDB()
            save_db(db, args.db)
        serve(db, split_endpoint(args.listen), (chain, leaf_key), trust_store=anchors,
              bootstrap_admin=args.bootstrap_admin, max_lifetime=args.max_lifetime,
              db_path=args.db)
        return EXIT_OK

    return run("casd", build_parser(), argv, body)


if __name__ == "__main__":
    sys.exit(main())
