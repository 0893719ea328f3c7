"""Launch casd or cas-resourced through its own entry point, optionally traced.

    python3 perfbench/server.py casd|resourced [--trace-out FILE] -- <server arguments>

Without --trace-out this is exactly the ``casd`` / ``cas-resourced``
command. With it, the layers named in the benchmark's README are wrapped
before the server starts and the spans are written to FILE when SIGINT
stops the server.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracing import Tracer  # noqa: E402
from wrappers import install_casd, install_resourced  # noqa: E402


def _verify_cache():
    import casauth.credential.keys as keys
    info = getattr(getattr(keys, "_ed25519_verify", None), "cache_info", None)
    return info() if info else None


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    trace_out = None
    if rest[:1] == ["--trace-out"]:
        trace_out, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    if kind == "casd":
        from casauth.casd.main import main as server_main
    elif kind == "resourced":
        from casauth.resourced.main import main as server_main
    else:
        print(f"unknown server {kind!r}", file=sys.stderr)
        return 2
    if trace_out is None:
        return server_main(rest)

    tracer = Tracer(kind)
    servers = install_casd(tracer) if kind == "casd" else install_resourced(tracer)
    cache_before = _verify_cache()
    code = server_main(rest)
    cache_after = _verify_cache()
    stats = tracer.stats
    stats["cpu_s"] = time.process_time() - stats.get("cpu_start_s", 0.0)
    if cache_before is not None and cache_after is not None:
        stats["sig_hits"] = cache_after.hits - cache_before.hits
        stats["sig_misses"] = cache_after.misses - cache_before.misses
    server = servers.get("server")
    stats["lock_table_entries"] = len(getattr(server, "_path_locks", {}) or {})
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
