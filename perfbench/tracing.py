"""In-memory spans around calls into casauth's layers, with no edit to casauth.

A Tracer replaces module or class attributes (``casauth.resourced.server.
authorize``, ``CapabilityIssuer.request_capability``, ...) with wrappers
that record one span per call: name, start, end, parent span and a
per-process request id. Spans stay in memory and are written out once, when
the process ends; self time (a span minus the spans it caused) is computed
within each process, so nothing extra ever goes on the wire.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, process: str):
        self.process = process
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.stats: dict = {}
        self.missing: list[str] = []
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, root: bool = False) -> tuple:
        """Start a span; a root span (or one with no parent) starts a request."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        rid = next(self._rids) if root or parent is None else parent[1]
        token = (next(self._ids), rid, name, parent[0] if parent else 0, _now())
        stack.append(token)
        return token

    def close(self, token: tuple) -> None:
        end = _now()
        stack = self._stack()
        if stack and stack[-1] is token:
            stack.pop()
        sid, rid, name, parent, start = token
        self.spans.append((sid, parent, rid, name, start, end))

    def root_name(self) -> str:
        stack = self._stack()
        return stack[0][2] if stack else ""

    def count(self, key: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[key] += n

    # --- wrapping ------------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        wrapper = make(original)
        if callable(original) and callable(wrapper):
            functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        return True

    def wrap(self, owner, attr: str, name, root: bool = False) -> bool:
        """Record a span around every call; ``name`` may be a function of the call's arguments."""
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                token = tracer.open(name(*args, **kwargs) if callable(name) else name, root)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(token)
            return traced
        return self._replace(owner, attr, make)

    def patch(self, owner, attr: str, make) -> bool:
        """Replace an attribute with ``make(original)`` (restored by unwrap_all)."""
        return self._replace(owner, attr, make)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- output --------------------------------------------------------------

    def dump(self, path) -> None:
        with self._count_lock:
            counts = dict(self.counts)
        record = {"process": self.process, "spans": list(self.spans),
                  "counts": counts, "stats": self.stats, "missing": self.missing}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


class TimedLock:
    """Stands in for a server's writer lock and times waiting and holding.

    Both spans are named after the message type being handled, taken from
    the request's root span (``casd.handle.ADMIN`` gives ``ADMIN``).
    """

    def __init__(self, lock, tracer: Tracer, prefix: str):
        self._lock = lock
        self._tracer = tracer
        self._prefix = prefix
        self._held = threading.local()

    def acquire(self, *args, **kwargs) -> bool:
        kind = self._tracer.root_name().rpartition(".")[2] or "other"
        wait = self._tracer.open(f"{self._prefix}.lock_wait.{kind}")
        ok = self._lock.acquire(*args, **kwargs)
        self._tracer.close(wait)
        if ok:
            self._held.token = self._tracer.open(f"{self._prefix}.lock_hold.{kind}")
        return ok

    def release(self) -> None:
        self._lock.release()
        self._tracer.close(self._held.token)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


# --- aggregation -----------------------------------------------------------------

def span_times(spans) -> dict[str, list[tuple[float, float]]]:
    """Per span name, (duration, self time) in ms of each call, within one process."""
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _rid, _name, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    out: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for sid, _parent, _rid, name, start, end in spans:
        out[name].append(((end - start) / 1e6, (end - start - child_ns.get(sid, 0)) / 1e6))
    return out


def summarize(per_process) -> dict[str, dict]:
    """Pool the span times of several processes: count, p50 and busy time per name."""
    pooled: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for times in per_process:
        for name, values in times.items():
            pooled[name].extend(values)
    out = {}
    for name, values in pooled.items():
        out[name] = {
            "n": len(values),
            "p50_ms": statistics.median(v[0] for v in values),
            "self_p50_ms": statistics.median(v[1] for v in values),
            "busy_ms": sum(v[0] for v in values),
            "self_ms": sum(v[1] for v in values),
        }
    return out
