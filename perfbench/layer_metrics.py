"""Per-layer metrics from the traced half of a run, plus the isolated layer timings.

Each span metric is the p50 of the calls; its report line also gives the
calls per operation and the busy and self time per operation. "Per
operation" divides by every client operation of the traced half (capability
requests, file requests and admin commands, warm-up included), because the
servers' counters cover all of them.
"""

from __future__ import annotations

import json
from collections import Counter

import layers
from tracing import span_times, summarize

MESSAGE_TYPES = ("FILE-OP", "REQUEST-CAPABILITY", "ADMIN")
SERVER_OF = {"FILE-OP": "resourced", "REQUEST-CAPABILITY": "casd", "ADMIN": "casd"}


def collect(traced, plain_ops_per_s: float, seconds: float, work, seed: int) -> list[tuple]:
    """Rows of (name, value, unit, samples, note) from a traced run.Phase."""
    record, client_tracer, client_cpu_s = traced.record, traced.client_tracer, traced.client_cpu_s
    directory = traced.deployment.inputs.directory
    dumps = {}
    for name in ("casd", "resourced"):
        with open(directory / f"{name}.trace", encoding="utf-8") as fh:
            dumps[name] = json.load(fh)
    times = {"client": span_times(client_tracer.spans)}
    times.update((name, span_times(dump["spans"])) for name, dump in dumps.items())
    spans = summarize(times.values())
    by_process = {name: summarize([t]) for name, t in times.items()}
    counts = Counter(client_tracer.counts)
    for dump in dumps.values():
        counts.update(dump["counts"])
    ops = max(1, record.tally.total_attempted)
    rows: list[tuple] = []

    def count_row(metric, value, unit="count", n=ops, note=""):
        rows.append((metric, float(value), unit, n, note))

    def span_row(metric, span, source=spans, stat="p50_ms"):
        s = source.get(span)
        if s is None:
            rows.append((metric, 0.0, "ms", 0, "not exercised"))
            return
        rows.append((metric, s[stat], "ms", s["n"],
                     f"{s['n'] / ops:.3g} calls/op, busy {s['busy_ms'] / ops:.3g} ms/op, "
                     f"self {s['self_ms'] / ops:.3g} ms/op"))

    def p50(span, process=None):
        s = (by_process[process] if process else spans).get(span)
        return s["p50_ms"] if s else None

    # wire
    count_row("wire.handshakes_per_op", spans.get("wire.client_handshake", {}).get("n", 0) / ops)
    count_row("wire.frames_per_op", counts["wire.frames"] / ops)
    count_row("wire.bytes_per_op", counts["wire.bytes"] / ops, "B")
    span_row("wire.server_handshake_ms", "wire.server_handshake")
    for process in ("casd", "resourced"):
        span_row(f"wire.server_handshake_ms.{process}", "wire.server_handshake",
                 by_process[process])
    span_row("wire.client_handshake_ms", "wire.client_handshake")
    for kind in MESSAGE_TYPES:
        sent = p50(f"client.request.{kind}", "client")
        handled = p50(f"{SERVER_OF[kind]}.handle.{kind}", SERVER_OF[kind])
        if sent is None or handled is None:
            rows.append((f"wire.transit_ms.{kind}", 0.0, "ms", 0, "not exercised"))
        else:
            rows.append((f"wire.transit_ms.{kind}", sent - handled, "ms",
                         spans[f"client.request.{kind}"]["n"],
                         f"client request p50 {sent:.4g} - server handling p50 {handled:.4g}"))

    # credential
    span_row("credential.decode_chain_ms", "credential.decode_chain")
    span_row("credential.verify_chain_ms", "credential.verify_chain")
    for process in ("client", "casd", "resourced"):
        span_row(f"credential.verify_chain_ms.{process}", "credential.verify_chain",
                 by_process[process])
    span_row("credential.delegate_ms", "credential.delegate")
    hits = sum(d["stats"].get("sig_hits", 0) for d in dumps.values())
    misses = sum(d["stats"].get("sig_misses", 0) for d in dumps.values())
    count_row("credential.sig_verify_calls_per_op", (hits + misses) / ops,
              note="servers' signature-cache lookups")
    count_row("credential.sig_cache_hit_ratio", hits / max(1, hits + misses), "ratio",
              hits + misses)

    # casd
    span_row("casd.issue_ms", "casd.issue")
    span_row("casd.find_user_ms", "casd.find_user")
    count_row("casd.find_user_calls_per_op", spans.get("casd.find_user", {}).get("n", 0) / ops)
    span_row("casd.rights_ms", "casd.rights")
    for kind in ("REQUEST-CAPABILITY", "ADMIN"):
        span_row(f"casd.lock_wait_ms.{kind}", f"casd.lock_wait.{kind}")
        span_row(f"casd.lock_hold_ms.{kind}", f"casd.lock_hold.{kind}")
    span_row("casd.apply_admin_ms", "casd.apply_admin")
    span_row("casd.clone_ms", "casd.clone")
    span_row("casd.validate_ms", "casd.validate")
    span_row("casd.save_db_ms", "casd.save_db")
    snapshots = counts["casd.snapshots"]
    count_row("casd.snapshot_bytes_per_admin", counts["casd.snapshot_bytes"] / max(1, snapshots),
              "B", snapshots)

    # policy and resourced
    count_row("policy.parse_policy_calls_per_op",
              spans.get("policy.parse_policy", {}).get("n", 0) / ops)
    span_row("policy.parse_policy_ms", "policy.parse_policy")
    span_row("policy.evaluate_all_ms", "policy.evaluate_all")
    span_row("resourced.authorize_ms", "resourced.authorize")
    for action in ("read", "write", "list"):
        span_row(f"resourced.storage_{action}_ms", f"resourced.storage_{action}")
    handled = spans.get("resourced.handle.FILE-OP", {}).get("n", 0)
    count_row("resourced.deny_ratio", counts["resourced.reply.DENIED"] / max(1, handled),
              "ratio", handled)
    count_row("resourced.lock_table_entries",
              dumps["resourced"]["stats"].get("lock_table_entries", 0), n=1,
              note="write locks held in the table when the run ended")

    # client
    span_row("client.keygen_ms", "client.keygen")
    span_row("client.connect_ms", "client.connect", stat="self_p50_ms")

    # where the processor time went, and what tracing cost
    for name, cpu_s in (("casd", dumps["casd"]["stats"].get("cpu_s", 0.0)),
                        ("resourced", dumps["resourced"]["stats"].get("cpu_s", 0.0)),
                        ("client", client_cpu_s)):
        count_row(f"{name}.cpu_ms_per_op", cpu_s * 1e3 / ops, "ms")
    traced_ops_per_s = record.completed / seconds
    count_row("trace.overhead_ratio", traced_ops_per_s / max(plain_ops_per_s, 1e-9), "ratio",
              record.completed, f"traced {traced_ops_per_s:.4g} / untraced "
              f"{plain_ops_per_s:.4g} ops/s")
    missing = sorted(set(client_tracer.missing).union(*(d["missing"] for d in dumps.values())))
    if missing:
        print("trace targets not found: " + ", ".join(missing))

    units = {"_us": "us", "_ms": "ms", "_bytes": "B"}
    for name, value in layers.measure(work, seed).items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        rows.append((name, value, unit, 1, "isolated"))
    return rows
