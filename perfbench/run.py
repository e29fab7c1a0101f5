"""The detector's benchmark: recorded CoDeeN-week traffic through offline
replay and through the live front door, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``replay``: ``TraceReplayEngine.replay`` of the recorded trace and its
  probe journal with the process executor, one lane per node;
* ``serve-hot``: a ``DetectorServer`` in its own process fronting the
  default 60-page site, driven by a lean generator that sends the
  recorded requests in rounds of a fixed-rate block (latency) and a
  closed-loop block (throughput);
* ``serve-cold``: the same on a 3000-page site (runnable, but left out
  of ``BENCHMARK.json``: too noisy to bound, see the notes).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a report with the input digests, the correctness
gates and the run's environment.  The exit code is 1 when a correctness
gate fails and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
sys.path.insert(0, BENCH)

from inputs import ensure_inputs, read_requests  # noqa: E402
from loadgen import LoadGenerator, Lost  # noqa: E402

#: Sessions recorded per input set (about 23k requests).
SESSIONS = 300
WORKLOADS = {
    "replay": {"kind": "replay", "pages": 60},
    "serve-hot": {"kind": "serve", "pages": 60},
    "serve-cold": {"kind": "serve", "pages": 3000},
}
NODES = 4
#: Offered rate of the fixed-rate phase, a property of the workload:
#: about a quarter of the saturation rate (see NOTES.md).
RATE = 400.0
#: Requests per fixed-rate block.
OPEN_BLOCK = 1000
#: In-flight requests per connection in the closed-loop phase.
WINDOW = 8
#: Keep-alive connections from the generator (at most nproc).
CONNECTIONS = max(1, min(4, os.cpu_count() or 1))
#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 5
#: Replays per run: at least this many, and until their wall time adds
#: up to ``--seconds``; replay metrics are their medians.
REPLAY_REPEATS = 3
CHILD_TIMEOUT = 120.0

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "serve.latency_p99_ms": "ms",
    "serve.http11.parse_us": "us",
    "serve.http11.write_us": "us",
    "serve.server.dispatch_us": "us",
    "serve.server.hop_us": "us",
    "serve.server.wait_us": "us",
    "serve.server.cpu_us_per_req": "us",
    "serve.server.loop_us": "us",
    "proxy.node.handle_us": "us",
    "proxy.node.self_us": "us",
    "proxy.cache.hit_ratio": "ratio",
    "instrument.rewriter.instrument_us": "us",
    "instrument.rewriter.share": "ratio",
    "instrument.rewriter.pages": "count",
    "instrument.markup_bytes_per_page": "bytes",
    "detection.service.handle_us": "us",
    "detection.beacon_hits": "count",
    "ingress.submit_us": "us",
    "ingress.queue_wait_ms_p50": "ms",
    "ingress.queue_wait_ms_p99": "ms",
    "ingress.parent_cpu_s": "s",
    "ingress.lane_cpu_s": "s",
    "ingress.lane_utilization": "ratio",
    "ingress.vs_sync": "ratio",
    "trace.clf.parse_us": "us",
    "trace.recorder.probe_parse_us": "us",
    "bench.gen.late_ms_p99": "ms",
    "bench.gen.late_ms_max": "ms",
    "bench.gen.cpu_s": "s",
    "bench.trace_overhead": "ratio",
}


class GateFailed(Exception):
    """A child process misbehaved; the run cannot be measured."""


# -- child processes ----------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Inputs, servers and replays are built in separate processes; one
    # hash seed keeps any set-iteration order identical between them.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(
    script: str, config: dict, cpus: set[int] | None = None
) -> tuple[subprocess.Popen, float]:
    launched = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, script), json.dumps(config)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(),
        text=True, cwd=ROOT,
        preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
    )
    return child, launched


def _split_cpus() -> tuple[set[int] | None, set[int] | None]:
    """(server CPUs, generator CPU).

    In closed-loop blocks the generator runs on a core of its own, so
    its cost never counts against the server's throughput.  In
    fixed-rate blocks it moves onto the server's CPU: there it costs
    about 1% of a CPU, and the server then needs no cross-CPU wake-up
    per request (on a virtual machine a halted vCPU can take
    milliseconds to wake, which would swamp the latency being measured).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


SERVER_CPUS, GEN_CPUS = _split_cpus()

#: Busy loop for :func:`_idle_spinner`; it also ends on its own when the
#: benchmark dies or after ``CHILD_TIMEOUT`` seconds.
_SPIN = (
    "import os, time\n"
    "parent = os.getppid()\n"
    "end = time.monotonic() + {timeout}\n"
    "while os.getppid() == parent and time.monotonic() < end:\n"
    "    pass\n"
)


def _idle_spinner(cpus: set[int] | None) -> subprocess.Popen | None:
    """Keep the server's CPU from halting while the server waits.

    An idle vCPU halts, and on a busy host the hypervisor can take
    milliseconds to run it again when the next request arrives, so at
    a fixed rate the latency tracked the host's load more than
    the server's work.  A ``SCHED_IDLE`` busy loop on the server's CPU
    runs only when nothing else wants that CPU and yields to the server
    and the generator at once.
    """
    if not cpus:
        return None
    return subprocess.Popen(
        [sys.executable, "-c", _SPIN.format(timeout=CHILD_TIMEOUT)],
        preexec_fn=lambda: (
            os.sched_setaffinity(0, cpus),
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0)),
        ),
    )


def _read_json_line(child: subprocess.Popen) -> dict:
    line = child.stdout.readline()
    if not line:
        child.wait(timeout=CHILD_TIMEOUT)
        raise GateFailed(
            f"{child.args[1]} exited with {child.returncode} before replying"
        )
    return json.loads(line)


def _stop(child: subprocess.Popen) -> None:
    """Make sure a child has ended (killing it only if it hangs)."""
    if child.poll() is None:
        try:
            child.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    for stream in (child.stdin, child.stdout):
        if stream is not None:
            stream.close()


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, read from outside."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _children_of(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                if int(handle.read().rsplit(")", 1)[1].split()[1]) == pid:
                    out.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    return out


def _hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- statistics ---------------------------------------------------------------


def _pct(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _hist_quantile(hist: dict | None, q: float) -> float:
    """Quantile of a fixed-bucket histogram, linear within the bucket."""
    if not hist or not hist["count"]:
        return 0.0
    rank = hist["count"] * q
    seen = 0
    lower = 0.0
    for bound, count in zip(hist["buckets"] + [hist["buckets"][-1]],
                            hist["counts"]):
        if count and seen + count >= rank:
            return lower + (bound - lower) * (rank - seen) / count
        seen += count
        lower = bound
    return hist["buckets"][-1]


def _mean_us(total: float, count: float) -> float:
    return total / count * 1e6 if count else 0.0


# -- replay -------------------------------------------------------------------


def _replay_once(inputs, run_dir: str, executor, trace: bool) -> dict:
    result_path = os.path.join(run_dir, "replay-result.json")
    config = {
        "nodes": NODES,
        "executor": executor,
        "trace_path": inputs.trace,
        "journal_path": inputs.journal,
        "result": result_path,
        "trace": trace,
        "spans_out": os.path.join(run_dir, "spans.jsonl"),
    }
    child, launched = _spawn("replay_child.py", config)
    try:
        ready = _read_json_line(child)["ready"]
        lanes: dict[int, int] = {}
        while child.poll() is None:
            for pid in _children_of(child.pid):
                lanes[pid] = max(lanes.get(pid, 0), _hwm_kb(pid))
            time.sleep(0.05)
    finally:
        _stop(child)
    if child.returncode != 0:
        raise GateFailed(f"replay child exited with {child.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        out = json.load(handle)
    out["setup_s"] = ready - launched
    out["peak_rss_kb"] = out["maxrss_kb"] + sum(lanes.values())
    out["lanes_seen"] = len(lanes)
    return out


def run_replay(args, inputs, run_dir: str) -> tuple[dict, dict, int, int]:
    meta = inputs.meta
    expected = meta["requests"]
    runs = []
    while len(runs) < REPLAY_REPEATS or sum(r["wall_s"] for r in runs) < args.seconds:
        runs.append(_replay_once(inputs, run_dir, "process", trace=False))

    gates = {}
    failed = 0
    for i, run in enumerate(runs):
        # Malformed and shed lines are already missing from "requests".
        failed += expected - run["requests"] + run["probe_malformed"]
        gates[f"run{i}.all_lines_replayed"] = (
            run["requests"] == expected and run["malformed"] == 0
            and run["probe_malformed"] == 0 and run["shed"] == 0
        )
        gates[f"run{i}.census_equals_recording"] = (
            run["census"] == meta["census"] and run["summary"] == meta["summary"]
        )
        gates[f"run{i}.beacon_hits_equal_recording"] = (
            run["beacon_requests"] == meta["beacon_requests"]
        )
    attempted = expected * len(runs)
    walls = [run["wall_s"] for run in runs]
    # A replay consumes two kinds of record: access-log requests and
    # probe-journal registrations (the offline stand-in for the
    # registrations a live node makes while it instruments pages).  Their
    # ratio varies with the seed, and a journal line costs about half a
    # request, so counting both keeps the seed out of the throughput.
    records = expected + meta["probes"]
    metrics = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "requests_per_s": statistics.median(records / w for w in walls),
        # Offline, the unit a user waits for is the whole log: its
        # latency is the wall time of one replay() call.
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in runs) / 1024,
    }
    report = {
        "replays": len(runs),
        "lanes_seen": [r["lanes_seen"] for r in runs],
        "replay_wall_s": walls,
        "records_per_replay": records,
        "trace_requests_per_s": statistics.median(expected / w for w in walls),
    }
    if args.trace:
        metrics = _replay_layers(inputs, run_dir, runs[0], report)
    return metrics, {"gates": gates, **report}, attempted, failed


def _replay_layers(inputs, run_dir, untraced, report) -> dict:
    sync = _replay_once(inputs, run_dir, None, trace=False)
    traced = _replay_once(inputs, run_dir, "process", trace=True)
    requests = untraced["requests"]
    rps = requests / untraced["wall_s"]
    hist = untraced["histograms"]
    handle = hist.get("repro_proxy_handle_seconds", {"sum": 0.0, "count": 0})
    detect = hist.get("repro_detection_seconds", {"sum": 0.0, "count": 0})
    spans = traced["spans"]

    def span_us(name):
        entry = spans.get(name)
        return _mean_us(entry["total"], entry["count"]) if entry else 0.0

    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        "proxy.node.handle_us": _mean_us(handle["sum"], handle["count"]),
        "proxy.node.self_us": _mean_us(
            handle["sum"] - detect["sum"], handle["count"]
        ),
        "proxy.cache.hit_ratio": _ratio(
            untraced["cache_hits"], untraced["cache_hits"] + untraced["cache_misses"]
        ),
        "detection.service.handle_us": _mean_us(detect["sum"], detect["count"]),
        "detection.beacon_hits": untraced["beacon_requests"],
        "ingress.submit_us": span_us("ingress.submit"),
        "ingress.queue_wait_ms_p50": 1e3 * _hist_quantile(
            hist.get("repro_ingress_queue_wait_seconds"), 0.50
        ),
        "ingress.queue_wait_ms_p99": 1e3 * _hist_quantile(
            hist.get("repro_ingress_queue_wait_seconds"), 0.99
        ),
        "ingress.parent_cpu_s": untraced["parent_cpu_s"],
        "ingress.lane_cpu_s": untraced["lane_cpu_s"],
        "ingress.lane_utilization": handle["sum"] / (NODES * untraced["wall_s"]),
        "ingress.vs_sync": rps / (sync["requests"] / sync["wall_s"]),
        "trace.clf.parse_us": span_us("trace.clf.parse"),
        "trace.recorder.probe_parse_us": span_us("trace.recorder.probe_parse"),
        "bench.trace_overhead": 1.0 - (
            traced["requests"] / traced["wall_s"]
        ) / rps,
    })
    report["sync_requests_per_s"] = sync["requests"] / sync["wall_s"]
    report["traced_requests_per_s"] = traced["requests"] / traced["wall_s"]
    report["spans"] = spans
    return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- serve --------------------------------------------------------------------


def _serve_config(inputs, pages: int, seed: int) -> dict:
    return {
        "seed": seed,
        "pages": pages,
        "sessions": SESSIONS,
        "nodes": NODES,
        "trace_path": inputs.trace,
    }


def _serve_once(inputs, spec, args, run_dir, requests, trace: bool) -> dict:
    """One server: set up ``SETUP_REPEATS`` times, then send the whole
    trace once, in rounds of a fixed-rate block (``OPEN_BLOCK``
    requests) followed by a closed-loop block.  Alternating the phases
    samples both under the same host conditions."""
    base = _serve_config(inputs, spec["pages"], args.seed)
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        child, launched = _spawn(
            "server_child.py", {**base, "setup_only": True}, SERVER_CPUS
        )
        try:
            setups.append(_read_json_line(child)["ready"] - launched)
        finally:
            _stop(child)
    config = {
        **base,
        "trace": trace,
        "live_trace": os.path.join(run_dir, "live.log"),
        "live_probes": os.path.join(run_dir, "live.keys"),
        "result": os.path.join(run_dir, "serve-result.json"),
        "spans_out": os.path.join(run_dir, "spans.jsonl"),
    }
    if os.path.exists(config["result"]):
        os.remove(config["result"])
    n = len(requests)
    rounds = max(1, min(round(RATE * args.seconds / OPEN_BLOCK), n // (2 * OPEN_BLOCK)))
    closed = n - rounds * OPEN_BLOCK
    out = {"n": n, "setups": setups, "lost_error": None, "marks": [],
           "open": [], "closed": []}
    child, launched = _spawn("server_child.py", config, SERVER_CPUS)
    gen = None
    try:
        ready = _read_json_line(child)
        setups.append(ready["ready"] - launched)
        gen = LoadGenerator(
            "127.0.0.1", ready["port"], requests, connections=CONNECTIONS
        )

        def mark(kind):
            if trace:
                child.stdin.write("mark\n")
                child.stdin.flush()
                stages = _read_json_line(child)["stages"]
                out["marks"].append((kind, stages, _proc_cpu_s(child.pid)))

        spinner = _idle_spinner(SERVER_CPUS)
        gc.collect()
        gc.disable()
        try:
            mark("start")
            cpu0 = time.process_time()
            sent = 0
            for round_ in range(rounds):
                # Fixed-rate blocks share the server's CPU (see
                # _split_cpus); closed-loop blocks keep the generator off it.
                if SERVER_CPUS:
                    os.sched_setaffinity(0, SERVER_CPUS)
                latency, late = gen.open_loop(range(sent, sent + OPEN_BLOCK), RATE)
                if GEN_CPUS:
                    os.sched_setaffinity(0, GEN_CPUS)
                out["open"].append((latency, late))
                sent += OPEN_BLOCK
                mark("open")
                size = closed // rounds + (closed % rounds if round_ == rounds - 1 else 0)
                out["closed"].append((size, gen.closed_loop(range(sent, sent + size), WINDOW)))
                sent += size
                mark("closed")
            out["gen_cpu"] = time.process_time() - cpu0
        except Lost as exc:
            out["lost_error"] = str(exc)
        finally:
            gc.enable()
            if spinner is not None:
                spinner.kill()
                spinner.wait()
    finally:
        if gen is not None:
            # Client connections close before the server stops (see
            # NOTES.md, known defects).
            gen.close()
        if child.poll() is None:
            child.stdin.write("stop\n")
            child.stdin.flush()
        _stop(child)
    if child.returncode != 0 or not os.path.exists(config["result"]):
        raise GateFailed(f"server child exited with {child.returncode}")
    with open(config["result"], encoding="utf-8") as handle:
        out["server"] = json.load(handle)
    out["status"] = gen.status
    with open(os.path.join(run_dir, "latency.json"), "w") as handle:
        json.dump({"open_blocks": out["open"], "closed_blocks": out["closed"]}, handle)
    return out


def _serve_gates(run: dict, meta: dict, recorded_status) -> tuple[dict, int]:
    """Correctness of one served trace.

    The server stamps requests with its own clock, so a recorded week
    arrives in well under a minute and every client looks thousands of
    times faster.  The §3.2 rate policy therefore blocks (403) some
    watched robots that passed in the recording; such a block is the
    only status change allowed, and beacon hits are compared with the
    socketless replay of the live log, which sees the same clock.
    """
    server = run["server"]
    replay = server["replay"]
    unanswered = sum(1 for status in run["status"] if status == 0)
    failed = unanswered + server["shed"] + server["parse_errors"]
    changed = [
        (live, recorded)
        for live, recorded in zip(run["status"], recorded_status)
        if live != recorded
    ]
    run["policy_blocks"] = len(changed)
    gates = {
        "every_request_answered": run["lost_error"] is None and unanswered == 0,
        "none_shed_or_refused": server["shed"] == 0 and server["parse_errors"] == 0,
        "every_request_reached_a_node": server["requests_handled"] == run["n"],
        "status_equals_recording_or_policy_block": all(
            live == 403 for live, _recorded in changed
        ),
        "live_census_equals_recording": (
            server["census"] == meta["census"]
            and server["summary"] == meta["summary"]
        ),
        "live_log_replay_equals_recording": (
            replay["requests"] == run["n"] and replay["malformed"] == 0
            and replay["census"] == meta["census"]
            and replay["summary"] == meta["summary"]
        ),
        "beacon_hits_equal_live_log_replay": (
            server["stats"]["beacon_requests"] == replay["beacon_requests"]
            <= meta["beacon_requests"]
        ),
    }
    return gates, failed


def _block_rates(run: dict) -> list[float]:
    return [size / wall for size, wall in run["closed"]]


def _closed_rate(run: dict) -> float:
    """Completions over the wall time of all closed-loop blocks."""
    return sum(size for size, _ in run["closed"]) / sum(w for _, w in run["closed"])


def _latency_p99_ms(run: dict) -> float:
    """p99 of the whole fixed-rate phase (80 samples beyond it at 20 s)."""
    return _pct([x for lat, _ in run["open"] for x in lat], 99) * 1e3


def run_serve(args, spec, inputs, run_dir) -> tuple[dict, dict, int, int]:
    requests, recorded_status = read_requests(inputs.requests)
    if GEN_CPUS:
        os.sched_setaffinity(0, GEN_CPUS)
    runs = [_serve_once(inputs, spec, args, run_dir, requests, trace=False)]
    if args.trace:
        runs.append(_serve_once(inputs, spec, args, run_dir, requests, trace=True))
    gates, failed = {}, 0
    for i, run in enumerate(runs):
        run_gates, run_failed = _serve_gates(run, inputs.meta, recorded_status)
        gates.update({f"run{i}.{name}": ok for name, ok in run_gates.items()})
        failed += run_failed
    measured = runs[-1]
    attempted = sum(run["n"] for run in runs)
    server = measured["server"]
    report = {
        "gates": gates,
        "rounds": len(measured["open"]),
        "open_loop_requests": sum(len(lat) for lat, _ in measured["open"]),
        "closed_loop_requests": sum(size for size, _ in measured["closed"]),
        "offered_rate_per_s": RATE,
        "window_per_connection": WINDOW,
        "connections": CONNECTIONS,
        "server_cpus": sorted(SERVER_CPUS) if SERVER_CPUS else None,
        "generator_cpus": sorted(GEN_CPUS) if GEN_CPUS else None,
        "lost_error": measured["lost_error"],
        "policy_blocks_from_time_compression": measured.get("policy_blocks"),
        "beacon_hits_live": server["stats"]["beacon_requests"],
    }
    if measured["lost_error"] is not None:
        names = PER_LAYER if args.trace else END_TO_END
        return dict.fromkeys(names, 0.0), report, attempted, failed
    pooled = [x for lat, _ in measured["open"] for x in lat]
    report.update(
        latency_samples=len(pooled),
        latency_p99_ms=_latency_p99_ms(measured),
        block_requests_per_s=_block_rates(measured),
    )
    if args.trace:
        report["spans"] = server["spans"]
        return _serve_layers(runs[0], measured), report, attempted, failed
    metrics = {
        "setup_s": statistics.median(measured["setups"]),
        "requests_per_s": _closed_rate(measured),
        "latency_p50_ms": _pct(pooled, 50) * 1e3,
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": server["maxrss_kb"] / 1024,
    }
    return metrics, report, attempted, failed


def _phase_totals(marks) -> dict:
    """Serve-stage (seconds, count) and server CPU seconds summed over
    the blocks of each phase, from the marks taken between blocks."""
    totals = {
        kind: {"cpu": 0.0, **{s: [0.0, 0] for s in ("parse", "handle", "write")}}
        for kind in ("open", "closed")
    }
    for (_k, before, cpu_before), (kind, after, cpu_after) in zip(marks, marks[1:]):
        entry = totals[kind]
        entry["cpu"] += cpu_after - cpu_before
        for stage in ("parse", "handle", "write"):
            entry[stage][0] += after[stage][0] - before.get(stage, [0.0, 0])[0]
            entry[stage][1] += after[stage][1] - before.get(stage, [0.0, 0])[1]
    return totals


def _serve_layers(untraced: dict, traced: dict) -> dict:
    server = traced["server"]
    spans = server["spans"]
    stats = server["stats"]
    phases = _phase_totals(traced["marks"])

    def span(name, field="total"):
        entry = spans.get(name)
        return (entry[field], entry["count"]) if entry else (0.0, 0)

    def stage_us(stage, kinds=("open", "closed")):
        return _mean_us(
            sum(phases[k][stage][0] for k in kinds),
            sum(phases[k][stage][1] for k in kinds),
        )

    handle_total, handle_count = span("proxy.node.handle")
    handle_self, _ = span("proxy.node.handle", "self")
    instrument_total, instrument_count = span("instrument.rewriter.instrument")
    detect_total, detect_count = span("detection.service.handle")
    handle_us = _mean_us(handle_total, handle_count)
    parse_us = stage_us("parse")
    write_us = stage_us("write")
    dispatch_us = stage_us("handle")
    open_stages_us = sum(stage_us(s, ("open",)) for s in ("parse", "handle", "write"))
    closed_requests = sum(size for size, _ in traced["closed"])
    cpu_us = phases["closed"]["cpu"] / closed_requests * 1e6
    open_latency = [x for lat, _ in traced["open"] for x in lat]
    late = [x for _, lt in traced["open"] for x in lt]
    pages = stats["pages_instrumented"]
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        # The tail of the untraced server, unbounded: see NOTES.md.
        "serve.latency_p99_ms": _latency_p99_ms(untraced),
        "serve.http11.parse_us": parse_us,
        "serve.http11.write_us": write_us,
        "serve.server.dispatch_us": dispatch_us,
        "serve.server.hop_us": dispatch_us - handle_us,
        "serve.server.wait_us": statistics.fmean(open_latency) * 1e6 - open_stages_us,
        "serve.server.cpu_us_per_req": cpu_us,
        "serve.server.loop_us": cpu_us - (handle_us + parse_us + write_us),
        "proxy.node.handle_us": handle_us,
        "proxy.node.self_us": _mean_us(handle_self, handle_count),
        "proxy.cache.hit_ratio": _ratio(
            stats["cache_hits"], stats["cache_hits"] + stats["cache_misses"]
        ),
        "instrument.rewriter.instrument_us": _mean_us(instrument_total, instrument_count),
        "instrument.rewriter.share": _ratio(instrument_total, handle_total),
        "instrument.rewriter.pages": pages,
        "instrument.markup_bytes_per_page": _ratio(stats["markup_bytes"], pages),
        "detection.service.handle_us": _mean_us(detect_total, detect_count),
        "detection.beacon_hits": stats["beacon_requests"],
        "bench.gen.late_ms_p99": _pct(late, 99) * 1e3,
        "bench.gen.late_ms_max": max(late) * 1e3,
        "bench.gen.cpu_s": traced["gen_cpu"],
        "bench.trace_overhead": 1.0 - _closed_rate(traced) / _closed_rate(untraced),
    })
    return layers


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: the program under test is missing ({SRC}/repro); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    spec = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, "runs", args.workload)
    os.makedirs(run_dir, exist_ok=True)
    inputs = ensure_inputs(WORK, _env(), args.seed, spec["pages"], SESSIONS)
    try:
        if spec["kind"] == "replay":
            metrics, report, attempted, failed = run_replay(args, inputs, run_dir)
        else:
            metrics, report, attempted, failed = run_serve(
                args, spec, inputs, run_dir
            )
    except GateFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct = all(report["gates"].values())
    units = PER_LAYER if args.trace else END_TO_END
    meta = inputs.meta
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        transport="loopback TCP (127.0.0.1)",
        inputs={
            "sessions": meta["sessions"],
            "pages": meta["pages"],
            "requests": meta["requests"],
            "probes": meta["probes"],
            "sha256": meta["sha256"],
            "census": meta["census"],
            "summary": meta["summary"],
            "beacon_requests": meta["beacon_requests"],
        },
    )
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
