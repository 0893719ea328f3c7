"""casauth benchmark: one seeded workload over loopback TCP, checked by an oracle.

    python3 perfbench/run.py --workload capability-churn|file-session|admin-mix
                             --seed N --seconds S --trace 0|1

casd and cas-resourced each run in their own process, started from inputs
generated from the seed; the load comes from this process (at most two
client threads). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the run
measures half the time untraced and half traced and reports the per-layer
ones. Everything else printed above that line is a readable report. See
README.md beside this file for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOADS = ("capability-churn", "file-session", "admin-mix")
SETUP_REPEATS = 3      # least set-ups per run; setup_s is their median
SETUP_MIN_S = 4.0      # and more, up to SETUP_MAX, until they took this long together
SETUP_MAX = 15
WARMUP_S = 1.0         # client time before the measured window opens
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 15.0
WINDOWS = 10           # equal slices of the measured window; ops_per_s is their median
LATENCY_TAILS = {"acquire": (90, 99), "fileop": (90, 99), "admin": (75, 90)}


@dataclass
class Server:
    name: str
    proc: subprocess.Popen
    log: Path
    endpoint: tuple[str, int] | None = None
    peak_rss_mb: float = 0.0


@dataclass
class Deployment:
    inputs: object
    casd: Server
    resourced: Server
    setup_s: float


@dataclass
class Phase:
    """One measured stretch of a run on its own servers."""

    deployment: Deployment
    record: object          # clients.Record
    setups: list[float]
    client_cpu_s: float
    client_tracer: object   # tracing.Tracer, in a traced phase


def start_server(name: str, args: list[str], directory: Path, trace_out: Path | None) -> Server:
    log = directory / f"{name}.log"
    command = [sys.executable, str(HERE / "server.py"), name]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    with open(log, "wb") as out:
        proc = subprocess.Popen(command + ["--"] + args, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env)
    return Server(name, proc, log)


_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")


def wait_ready(servers: list[Server]) -> None:
    deadline = time.monotonic() + READY_TIMEOUT_S
    for server in servers:
        while server.endpoint is None:
            match = _LISTENING.search(server.log.read_bytes())
            if match:
                server.endpoint = (match.group(1).decode(), int(match.group(2)))
            elif server.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"{server.name} did not start: "
                                   + server.log.read_text(errors="replace")[-2000:])
            else:
                time.sleep(0.005)


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process.

    Not the ru_maxrss of wait4: a child started by vfork and exec inherits
    its parent's high-water mark there, which would report this process's
    size for both servers.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def stop_server(server: Server) -> None:
    """Read the peak RSS, then SIGINT and wait until the process has ended."""
    if server.proc.poll() is not None:
        return
    server.peak_rss_mb = peak_rss_mb(server.proc.pid)
    server.proc.send_signal(signal.SIGINT)
    try:
        server.proc.wait(STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.wait()


def setup(workload: str, seed: int, directory: Path, traced: bool = False) -> Deployment:
    """Generate inputs, start both servers from them, wait until both listen."""
    import gen

    start = time.perf_counter()
    inputs = gen.generate(workload, seed, directory)
    casd = start_server("casd", inputs.casd_args, directory,
                        directory / "casd.trace" if traced else None)
    resourced = start_server("resourced", inputs.resourced_args, directory,
                             directory / "resourced.trace" if traced else None)
    try:
        wait_ready([casd, resourced])
    except BaseException:
        stop_server(casd)
        stop_server(resourced)
        raise
    return Deployment(inputs, casd, resourced, time.perf_counter() - start)


def stop(deployment: Deployment) -> None:
    stop_server(deployment.casd)
    stop_server(deployment.resourced)


# --- statistics -----------------------------------------------------------------

def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def windowed_rate(record, seconds: float) -> float:
    """Operations completed per second: the median over WINDOWS equal slices of the window."""
    t0 = record.window[0]
    width = seconds / WINDOWS
    counts = [0] * WINDOWS
    for end in record.finished:
        counts[min(WINDOWS - 1, int((end - t0) / width))] += 1
    return statistics.median(counts) / width


def workload_phase(workload: str, seed: int, seconds: float, directory: Path,
                   repeats: int, min_setup_s: float = 0.0, traced: bool = False) -> Phase:
    """Set up at least ``repeats`` times (keeping the last), run the clients, stop the servers.

    Quick set-ups are repeated, up to SETUP_MAX times, until ``min_setup_s``
    has been spent on them, so that their median is steady.
    """
    import clients

    setups = []
    deployment = None
    k = 0
    while k < repeats or (k < SETUP_MAX and sum(setups) < min_setup_s):
        if deployment is not None:
            stop(deployment)
        deployment = setup(workload, seed, directory / f"setup{k}", traced)
        setups.append(deployment.setup_s)
        k += 1
    client_tracer = None
    try:
        if traced:
            import tracing
            import wrappers
            client_tracer = tracing.Tracer("client")
            wrappers.install_client(client_tracer, clients)
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        target = clients.Target(deployment.inputs, deployment.casd.endpoint,
                                deployment.resourced.endpoint)
        record = clients.run_clients(target, WARMUP_S, seconds)
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if client_tracer is not None:
            client_tracer.unwrap_all()
        stop(deployment)
    client_cpu_s = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
    return Phase(deployment, record, setups, client_cpu_s, client_tracer)


def end_to_end(phase: Phase, seconds: float) -> list[tuple]:
    """Rows of (name, value, unit, samples, note) for the readable report."""
    record, deployment = phase.record, phase.deployment
    rows = [("setup_s", statistics.median(phase.setups), "s", len(phase.setups), ""),
            ("ops_per_s", windowed_rate(record, seconds), "1/s", record.completed,
             f"median of {WINDOWS} slices")]
    tally = record.tally
    rows.append(("fail_ratio", tally.total_failed / max(1, tally.total_attempted), "ratio",
                 tally.total_attempted, f"{tally.total_failed} failed"))
    for key, tails in LATENCY_TAILS.items():
        values = record.latencies.get(key)
        if not values:
            continue
        rows.append((f"{key}_p50_ms", statistics.median(values), "ms", len(values), ""))
        for tail in tails:
            value, beyond = percentile(values, tail)
            note = "" if beyond >= 10 else f"only {beyond} samples beyond"
            rows.append((f"{key}_p{tail}_ms", value, "ms", len(values), note))
    if record.admin_late_s:
        rows.append(("admin_late_max_ms", max(record.admin_late_s) * 1e3, "ms",
                     len(record.admin_late_s), "how late the open loop sent"))
    for server, label in ((deployment.casd, "casd_rss_mb"), (deployment.resourced,
                                                            "resourced_rss_mb")):
        rows.append((label, server.peak_rss_mb, "MB", 1, ""))
    return rows


def print_rows(title: str, rows) -> None:
    print(f"== {title}")
    for name, value, unit, samples, note in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<7} n={samples:<8} {note}")


def print_tally(tally) -> None:
    print("== outcomes by operation kind (failed/attempted)")
    for kind in sorted(tally.attempted):
        print(f"  {kind:<28} {tally.failed.get(kind, 0)}/{tally.attempted[kind]}")
    for example in tally.examples:
        print(f"  mismatch: {example}")
    print("outcomes " + json.dumps({k: [tally.attempted[k], tally.failed.get(k, 0)]
                                     for k in sorted(tally.attempted)}))


def benchmark_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(spec_metrics, values: dict, record) -> str:
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec_metrics}
    tally = record.tally
    return json.dumps({"correct": tally.content_errors == 0,
                       "attempted": tally.total_attempted,
                       "failed": tally.total_failed,
                       "metrics": metrics})


def run(args, work: Path) -> str:
    spec = benchmark_spec()
    if not args.trace:
        phase = workload_phase(args.workload, args.seed, args.seconds, work, SETUP_REPEATS,
                               SETUP_MIN_S)
        rows = end_to_end(phase, args.seconds)
        print_rows(f"{args.workload} seed {args.seed}: end to end, {args.seconds} s", rows)
        print_tally(phase.record.tally)
        return result_line(spec["end_to_end"], {r[0]: r[1] for r in rows}, phase.record)

    import layer_metrics

    half = args.seconds / 2
    plain = workload_phase(args.workload, args.seed, half, work / "plain", 1)
    traced = workload_phase(args.workload, args.seed, half, work / "traced", 1,
                            traced=True)
    print_rows(f"{args.workload} seed {args.seed}: untraced half, {half} s", end_to_end(plain, half))
    print_rows(f"{args.workload} seed {args.seed}: traced half, {half} s", end_to_end(traced, half))
    layers = layer_metrics.collect(traced, plain.record.completed / half, half, work, args.seed)
    print_rows("per layer (traced half; isolated timings last)", layers)
    record = plain.record
    record.merge(traced.record)
    print_tally(record.tally)
    return result_line(spec["per_layer"], {r[0]: r[1] for r in layers}, record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "casauth" / "__init__.py").is_file():
        print(f"run.py: casauth sources not found under {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path[:0] = [str(SOURCE), str(HERE)]
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        line = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
