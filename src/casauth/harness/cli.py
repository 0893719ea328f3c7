"""cas-scenario: run scenario scripts and print trust-edge counts."""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from ..errors import CasError
from ..lines import read_text
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

    run = sub.add_parser("run", help="run a scenario script")
    run.add_argument("script", help=f"path or bundled name ({', '.join(BUNDLED)})")
    run.add_argument("--seed", type=int, default=0)

    edges = sub.add_parser("edges", help="trust relationships needed")
    edges.add_argument("--consumers", type=int, required=True)
    edges.add_argument("--producers", type=int, required=True)
    edges.add_argument("--brokered", action="store_true")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 5

    if args.command == "edges":
        topology = TrustTopology(args.consumers, args.producers, args.brokered)
        print(trust_edges(topology))
        return 0

    try:
        report = run_scenario(parse_script(load_script_text(args.script)),
                              seed=args.seed)
    except (OSError, CasError) as exc:
        print(f"cas-scenario: {exc}", file=sys.stderr)
        return 1
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
