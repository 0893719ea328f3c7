"""Command-line entry point for the file-resource server.

SIGHUP reloads the grant table from the --grants path; everything else is
immutable for the life of the process.
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys

from ..cli import EXIT_OK, run
from ..credential.certs import load_trust_store
from ..credfile import load_credential
from ..errors import CasError
from ..wire.frames import split_endpoint
from .grants import load_grant_table
from .server import ResourceServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas-resourced", description="Capability-enforcing file resource server")
    parser.add_argument("--listen", default="127.0.0.1:7513", help="host:port")
    parser.add_argument("--root", required=True, help="virtual filesystem root")
    parser.add_argument("--cred", required=True, help="server credential file")
    parser.add_argument("--trust", required=True, help="trust store file")
    parser.add_argument("--grants", required=True, help="local grant table file")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    def body(args) -> int:
        logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                            format="%(asctime)s %(name)s %(message)s")
        chain, leaf_key = load_credential(args.cred)
        anchors = load_trust_store(args.trust)
        table = load_grant_table(args.grants)
        server = ResourceServer(table, args.root, chain, leaf_key,
                                listen=split_endpoint(args.listen),
                                trust_store=anchors)

        def reload_grants(_signum, _frame):
            try:
                server.set_grant_table(load_grant_table(args.grants))
                logging.getLogger("casauth.resourced").info("grant table reloaded")
            except CasError as exc:
                logging.getLogger("casauth.resourced").error(
                    "grant table reload failed, keeping the old one: %s", exc)

        signal.signal(signal.SIGHUP, reload_grants)
        server.start()
        server.serve_forever()
        return EXIT_OK

    return run("cas-resourced", build_parser(), argv, body)


if __name__ == "__main__":
    sys.exit(main())
