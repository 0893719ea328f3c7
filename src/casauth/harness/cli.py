"""cas-scenario: run scenario scripts and print trust-edge counts."""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from ..cli import EXIT_ERROR, EXIT_OK, run
from ..lines import nonnegative_int, read_text
from .scenario import parse_script, run_scenario
from .topology import TrustTopology, trust_edges

BUNDLED = ("esg", "revocation", "rogue-cas")


def bundled_script(name: str) -> str:
    ref = resources.files("casauth.harness") / "scripts" / f"{name}.scenario"
    return ref.read_text(encoding="utf-8")


def load_script_text(spec: str) -> str:
    if spec in BUNDLED:
        return bundled_script(spec)
    return read_text(spec, "scenario script")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cas-scenario", description="End-to-end scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario script")
    run_parser.add_argument("script", help=f"path or bundled name ({', '.join(BUNDLED)})")
    run_parser.add_argument("--seed", type=int, default=0)

    edges = sub.add_parser("edges", help="trust relationships needed")
    edges.add_argument("--consumers", type=nonnegative_int, required=True)
    edges.add_argument("--producers", type=nonnegative_int, required=True)
    edges.add_argument("--brokered", action="store_true")

    def body(args) -> int:
        if args.command == "edges":
            topology = TrustTopology(args.consumers, args.producers, args.brokered)
            print(trust_edges(topology))
            return EXIT_OK
        report = run_scenario(parse_script(load_script_text(args.script)),
                              seed=args.seed)
        for line in report.lines():
            print(line)
        return EXIT_OK if report.ok else EXIT_ERROR

    return run("cas-scenario", parser, argv, body)


if __name__ == "__main__":
    sys.exit(main())
