"""What every casauth command shares: exit codes and the runner.

Exit codes are a fixed function of the error taxonomy so scripts can
branch on them: 0 ok, 2 denied, 3 authentication, 4 transport, 5 usage,
1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .errors import CasError, Refused, TransportError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DENIED = 2
EXIT_AUTH = 3
EXIT_TRANSPORT = 4
EXIT_USAGE = 5


def exit_code_for(exc: CasError | OSError) -> int:
    if isinstance(exc, Refused):
        return EXIT_DENIED
    if isinstance(exc, CasError) and exc.reason in ("auth", "expired"):
        return EXIT_AUTH
    if isinstance(exc, TransportError):
        return EXIT_TRANSPORT
    return EXIT_ERROR


def run(prog: str, parser: argparse.ArgumentParser, argv,
        body: Callable[[argparse.Namespace], int]) -> int:
    """Parse ``argv`` and run ``body``; each failure becomes one line and an exit code."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage error and 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return body(args)
    except (CasError, OSError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
