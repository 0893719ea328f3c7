"""The load: closed-loop churn and session clients, an open-loop administrator.

Every client checks each operation against the outcome its script expects
and keeps latencies only for operations started inside the measured
window. Throughput counts operations started and finished inside it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from casauth.client.api import acquire_capability, admin_command, file_op
from casauth.client.session import ClientSession
from casauth.errors import CasError, Denied
from casauth.policy.model import ALL

import oracle

ADMIN_RATE = 1.0  # admin commands per second, open loop


@dataclass
class Record:
    latencies: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    completed: int = 0
    finished: list[float] = field(default_factory=list)  # end times of the completed operations
    window: tuple[float, float] = (0.0, 0.0)
    tally: oracle.Tally = field(default_factory=oracle.Tally)
    admin_late_s: list[float] = field(default_factory=list)

    def merge(self, other: "Record") -> None:
        for key, values in other.latencies.items():
            self.latencies[key].extend(values)
        self.completed += other.completed
        self.finished.extend(other.finished)
        self.tally.merge(other.tally)
        self.admin_late_s.extend(other.admin_late_s)


@dataclass
class Target:
    inputs: object          # gen.Inputs
    cas: tuple[str, int]
    resource: tuple[str, int]


def outcome_of(exc: BaseException) -> str:
    if isinstance(exc, Denied):
        return "denied"
    if isinstance(exc, CasError):
        return f"error:{type(exc).__name__}"
    return f"transport:{type(exc).__name__}"


def _timed(rec: Record, key: str, start: float, end: float, window) -> None:
    t0, t1 = window
    if start >= t0:
        rec.latencies[key].append((end - start) * 1e3)
        if end <= t1:
            rec.completed += 1
            rec.finished.append(end)


def _acquire(target: Target, user, want):
    try:
        chain, key = acquire_capability(target.cas, user.chain, user.key, want,
                                        trust_store=target.inputs.trust_store)
    except (CasError, OSError) as exc:
        return outcome_of(exc), None, None
    return "ok", chain, key


def _granted(chain) -> frozenset:
    restriction = chain.leaf.restriction
    return oracle.parse_rights(restriction.body) if restriction is not None else frozenset()


def churn(target: Target, script, rec: Record, window) -> None:
    """Acquire a capability for a pool member, then read one file with it on a new connection."""
    inputs = target.inputs
    i = 0
    while (start := time.perf_counter()) < window[1]:
        op = script[i % len(script)]
        i += 1
        actual, chain, key = _acquire(target, inputs.pool[op.user], op.want)
        _timed(rec, "acquire", start, time.perf_counter(), window)
        expected = "ok" if op.expect is not None else "denied"
        content_ok = actual != "ok" or expected != "ok" or _granted(chain) == op.expect
        rec.tally.record(op.kind, expected, actual, content_ok)
        if actual != "ok" or expected != "ok":
            continue
        read_start = time.perf_counter()
        try:
            data = file_op(target.resource, chain, key, "read", op.read_path,
                           trust_store=inputs.trust_store)
            actual = "ok"
        except (CasError, OSError) as exc:
            actual, data = outcome_of(exc), None
        _timed(rec, "fileop", read_start, time.perf_counter(), window)
        rec.tally.record("read", "ok", actual, actual != "ok" or data == inputs.files[op.read_path])


def _reply_outcome(reply: dict[str, str]) -> str:
    kind = reply.get("msg")
    if kind == "OK":
        return "ok"
    if kind == "DENIED":
        return "denied"
    return f"error:{reply.get('reason', kind)}"


def session(target: Target, k: int, rec: Record, window) -> None:
    """Hold one capability and one ClientSession; send the probes once, then the script."""
    inputs = target.inputs
    user = inputs.pool[k]
    actual, chain, key = _acquire(target, user, ALL)
    rec.tally.record("acquire.all", "ok", actual,
                     actual != "ok" or _granted(chain) == inputs.capability_rights[k])
    if actual != "ok":
        return
    state = {name: data for name, data in inputs.files.items() if name.startswith(f"/fs/c{k}/")}
    payloads = inputs.payloads[k]
    hex_payloads = [p.hex() for p in payloads]
    conn = ClientSession(target.resource, chain, key, inputs.trust_store).connect()

    def send(op, start: float | None = None) -> None:
        """One request; timed from ``start`` when given, then checked."""
        nonlocal conn
        fields = {"msg": "FILE-OP", "action": op.action, "path": op.path}
        if op.action == "write":
            fields["data"] = hex_payloads[op.payload]
        try:
            reply = conn.request(fields)
            actual = _reply_outcome(reply)
        except (CasError, OSError) as exc:
            actual, reply = outcome_of(exc), {}
            conn.close()
            conn = ClientSession(target.resource, chain, key, inputs.trust_store).connect()
        if start is not None:
            _timed(rec, "fileop", start, time.perf_counter(), window)
        content_ok = True
        if actual == "ok" and op.expect == "ok":
            if op.action == "read":
                content_ok = bytes.fromhex(reply.get("data", "")) == state.get(op.canonical)
            elif op.action == "list":
                text = bytes.fromhex(reply.get("data", "")).decode("utf-8")
                content_ok = (text.split("\n") if text else []) == inputs.dir_listing[op.canonical]
        if actual == "ok" and op.action == "write" and op.canonical in state:
            state[op.canonical] = payloads[op.payload]
        rec.tally.record(op.kind, op.expect, actual, content_ok, op.path)

    try:
        for op in inputs.probes[k]:
            send(op)
        script = inputs.scripts[k]
        i = 0
        while (start := time.perf_counter()) < window[1]:
            send(script[i % len(script)], start)
            i += 1
    finally:
        conn.close()


def admin(target: Target, rec: Record, window) -> None:
    """Open loop: command k is due at window start + k / ADMIN_RATE, whatever came before."""
    inputs = target.inputs
    chain, key = inputs.admin
    script = inputs.admin_script
    for k, op in enumerate(script):
        due = window[0] + k / ADMIN_RATE
        if due >= window[1]:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        expected_id = inputs.next_statement_id + op.grant_offset
        args = tuple(str(expected_id) if a == "{id}" else a for a in op.args)
        sent = time.perf_counter()
        rec.admin_late_s.append(sent - due)
        try:
            reply = admin_command(target.cas, chain, key, op.verb, args,
                                  trust_store=inputs.trust_store)
            actual = "ok"
        except (CasError, OSError) as exc:
            actual, reply = outcome_of(exc), {}
        _timed(rec, "admin", due, time.perf_counter(), window)
        content_ok = op.verb != "grant" or actual != "ok" or reply.get("id") == str(expected_id)
        rec.tally.record(f"admin.{op.verb}", "ok", actual, content_ok)
    else:
        raise RuntimeError("admin script too short for the measured window")


def run_clients(target: Target, warmup_s: float, seconds: float) -> Record:
    """Start the workload's clients (at most two threads), wait for them, merge their records."""
    inputs = target.inputs
    t0 = time.perf_counter() + warmup_s
    window = (t0, t0 + seconds)
    if inputs.workload == "file-session":
        jobs = [(session, (target, k)) for k in range(len(inputs.pool))]
    else:
        jobs = [(churn, (target, script)) for script in inputs.scripts]
        if inputs.workload == "admin-mix":
            jobs.append((admin, (target,)))
    records = [Record() for _ in jobs]
    errors: list[BaseException] = []

    def runner(fn, args, rec):
        try:
            fn(*args, rec, window)
        except BaseException as exc:  # re-raised in the caller after join
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(fn, args, rec), daemon=True)
               for (fn, args), rec in zip(jobs, records)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + warmup_s + 120)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    if errors:
        raise errors[0]
    merged = Record(window=window)
    for rec in records:
        merged.merge(rec)
    return merged
