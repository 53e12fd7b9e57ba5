#!/usr/bin/env python3
"""Whole-stack benchmark for the query-shredding system.

Run from the repository root::

    python3 perfbench/run.py --workload inproc_warm --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``inproc_warm``   — warm registry queries through ``repro.api.connect``;
* ``adhoc_compile`` — a stream of distinct ad-hoc λNRC terms, more than the
  plan cache holds;
* ``sharded_wire``  — an open loop of reads and wire inserts against a
  2-shard process group.

``--trace 0`` measures the end-to-end metrics.  Their times (set-up, op
latency, throughput) are corrected for the host's speed, which drifts on
a shared host, by a fixed kernel timed next to each op and set-up (see
``hostspeed.py``); the wall-clock figures are printed and recorded too,
as ``wall_*``.  Every run pins itself, and every thread and process it
starts, to one CPU (see ``_pin_to_one_cpu``).  ``--trace 1`` makes one
traced pass over a fixed number of the same seeded ops and reports the
per-layer metrics.  Every result is checked against an independent
reference outside the timed region; a mismatch or a failed op makes the
command exit 1.  The last line of standard output is one JSON object;
the lines before it are a readable table.  The full record (settings,
sample counts, ratio bases) and the trace spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Set-ups per run: one in this process, the rest in fresh child processes
#: (each one the first set-up in its interpreter); setup_s is their median.
SETUPS = 3
#: Kernel runs just before and just after each set-up that correct its time.
SETUP_KERNEL_RUNS = 50
#: Ops in a traced pass (fixed, so per-op counts repeat exactly per seed),
#: and open-loop sends its untraced twin makes to measure generator lag.
TRACE_OPS = {"inproc_warm": 500, "adhoc_compile": 1000, "sharded_wire": 500}
LAG_OPS = 200

#: sharded_wire: an open loop at a fixed rate (write latency, open-loop
#: read latency, generator lag), a short ladder of higher fixed rates
#: (sustained_qps), then one caller back to back for the gated latency and
#: throughput figures.  Shares of --seconds.  Open-loop read latency at a
#: fixed rate varied 30-50% between runs of one seed on a 2-vCPU host
#: with CPU steal, against ~10-20% for the closed loop, so only the latter
#: is gated; the open-loop figures are printed and recorded.
NOMINAL_RATE, OPEN_SHARE = 20.0, 0.25
LADDER_RATES, LADDER_SHARE = (60.0, 90.0, 120.0), 0.03
CLOSED_SHARE = 0.65
#: sustained_qps: a rate is sustained when its read p99 stays under this
#: limit and the last tenth of the step's ops wait less than BACKLOG_MS
#: (median) between their due time and their send.
P99_LIMIT_MS, BACKLOG_MS = 100.0, 25.0

END_TO_END = (("setup_s", "s"), ("throughput_qps", "ops/s"), ("latency_p50_ms", "ms"),
              ("latency_p99_ms", "ms"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("pipeline.compile_ms", "ms"), ("pipeline.plan_cache_hit_ratio", "ratio"),
    ("pipeline.plan_cache_evictions", "count"), ("normalise.ms", "ms"), ("shred.ms", "ms"),
    ("sql.codegen_ms", "ms"), ("sql.statements_per_op", "count"), ("sql.bytes_per_op", "bytes"),
    ("backend.sql_ms", "ms"), ("backend.decode_ms", "ms"), ("backend.rows_per_op", "count"),
    ("shred.stitch_ms", "ms"), ("api.overhead_ms", "ms"),
    ("service.server_ms", "ms"), ("service.server_overhead_ms", "ms"), ("service.wire_ms", "ms"),
    ("service.response_bytes", "bytes"), ("service.encode_ms", "ms"), ("service.decode_ms", "ms"),
    ("shard.route_ms", "ms"), ("shard.work_ms", "ms"), ("shard.span_ms", "ms"),
    ("shard.merge_ms", "ms"), ("shard.shards_per_op", "count"), ("shard.fanout_share", "ratio"),
    ("shard.routed_share", "ratio"), ("shard.fallback_share", "ratio"),
    ("shard.retry_ratio", "ratio"), ("shard.endpoints_per_write", "count"),
    ("shard.spawn_s", "s"), ("bench.generator_lag_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
)


def _prepare_environment() -> None:
    """Production settings: verifier off (it turns itself on under CI or
    pytest otherwise), every other ``REPRO_*`` knob at its default.  Shard
    children inherit this environment."""
    for name in [n for n in os.environ if n.startswith("REPRO_")] + ["CI", "PYTEST_CURRENT_TEST"]:
        os.environ.pop(name, None)
    os.environ["REPRO_VERIFY"] = "0"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


# -- statistics -------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Tally:
    def __init__(self) -> None:
        self.attempted = self.errors = self.mismatches = self.checked = 0
        self.first_problem = None

    def problem(self, text: str) -> None:
        if self.first_problem is None:
            self.first_problem = text


def _run_op(workload, op, tally):
    tally.attempted += 1
    try:
        return workload.run(op), True
    except Exception as error:  # noqa: BLE001 — every failure is counted
        tally.errors += 1
        tally.problem(f"op {op.index} ({op.name}) raised {type(error).__name__}: {error}")
        return None, False


def _check(workload, op, result, ok, tally) -> None:
    """Reference check, always outside the timed region."""
    if not ok:
        if op.kind == "insert":  # keep the reference in step; the op already failed
            workload.check(op, {})
        return
    tally.checked += 1
    if not workload.check(op, result):
        tally.mismatches += 1
        tally.problem(f"op {op.index} ({op.name} {op.params}) differs from the reference")


# -- load generation ----------------------------------------------------------


class Spool:
    """Results as JSON text in a scratch file, checked after the loop that
    produced them: checking between ops would leave the system idle (and
    a check's cost varies too much to fit between scheduled sends), and
    results held in memory would grow this process."""

    def __init__(self) -> None:
        os.makedirs(OUT, exist_ok=True)
        self._file = tempfile.TemporaryFile("w+", dir=OUT, encoding="utf-8")
        self._ops = []

    def add(self, op, result, ok) -> None:
        self._ops.append(op)
        self._file.write(json.dumps(result if ok else None) + "\n")

    def check(self, workload, tally) -> None:
        with self._file:
            self._file.seek(0)
            for op, line in zip(self._ops, self._file):
                result = json.loads(line)
                _check(workload, op, result, result is not None, tally)


def closed_loop(workload, ops, tally, seconds=None, count=None, on_op=None, spool=False,
                kernel=None):
    """One caller, back to back.  Returns (op, service_ms, kernel_ms)
    samples: with a ``kernel``, each op is followed by one timed run of
    it (see ``hostspeed``), otherwise ``kernel_ms`` is None.  The time
    budget counts only time spent inside ops and kernel runs.  Results
    are checked between ops, or with ``spool`` after the loop."""
    samples, busy, wall_limit = [], 0.0, time.perf_counter() + 150.0
    pending = Spool() if spool else None
    while (count is None and busy < seconds) or (count is not None and len(samples) < count):
        if time.perf_counter() > wall_limit:
            raise SystemExit("closed loop exceeded its wall-clock guard")
        op = next(ops)
        started = time.perf_counter()
        result, ok = _run_op(workload, op, tally)
        elapsed = time.perf_counter() - started
        kernel_ms = None if kernel is None else kernel.time_ms()
        busy += elapsed + (kernel_ms or 0.0) / 1000.0
        samples.append((op, elapsed * 1000.0, kernel_ms))
        if on_op is not None:
            on_op(op, result)
        if pending is None:
            _check(workload, op, result, ok, tally)
        else:
            pending.add(op, result, ok)
    if pending is not None:
        pending.check(workload, tally)
    return samples


def open_loop(workload, ops, tally, rate, seconds=None, count=None, on_op=None):
    """One caller sending on a fixed schedule.  Latency counts from the
    scheduled send time, so a stall is charged to every op it delays.
    Results are spooled and checked after the loop.
    Returns (op, latency_ms, service_ms, generator_lag_ms) samples."""
    interval, samples, pending = 1.0 / rate, [], Spool()
    start = time.perf_counter() + 0.002
    index, free = 0, start
    while True:
        due = start + index * interval
        if (count is not None and index >= count) or (count is None and due >= start + seconds):
            break
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        op = next(ops)
        sent = time.perf_counter()
        result, ok = _run_op(workload, op, tally)
        done = time.perf_counter()
        # The generator's own lateness: how long after both the due time
        # and the previous op's completion this op went out.
        lag = (sent - max(due, free)) * 1000.0
        samples.append((op, (done - due) * 1000.0, (done - sent) * 1000.0, lag))
        if on_op is not None:
            on_op(op, result)
        pending.add(op, result, ok)
        free = done
        index += 1
    pending.check(workload, tally)
    return samples


# -- resource measures ----------------------------------------------------------


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident memory of this process plus each live child's."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    return digest.hexdigest()[:16]


def commit() -> str:
    """The checkout's commit, or "unknown" outside a git work tree of its own
    (``src_digest`` identifies the sources either way)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def settings(workload, args) -> dict:
    from repro.check.verifier import verification_enabled

    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "verifier": verification_enabled(),
        "cpu_count": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit(), "src_digest": source_digest(), "params": workload.params(),
    }


def _child(args, probe: str) -> dict:
    """Run a probe in a fresh interpreter, in its own process group so that
    a timeout also stops any shard servers it started."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe", probe]
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{probe} probe timed out")
    if child.returncode != 0:
        raise SystemExit(f"{probe} probe failed:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _pin_to_one_cpu() -> None:
    """Run on the lowest CPU this process may use, with every thread and
    process it starts (set-up probes, executor workers, shard servers).

    On a shared 2-vCPU host the two CPUs' speeds drift apart, and the
    host-speed kernel, timed in the calling thread, measures only the CPU
    it runs on.  Unpinned, work on the other CPU went uncorrected: the
    parallel executor's statements (Q1, Q3, Q5, Q6) and the shard servers.
    Corrected p99 on ``inproc_warm`` moved by ~25% between host periods
    while p50 (single-statement queries) held within 2%, and
    ``sharded_wire`` moved 15-20% between runs.  The second CPU sped
    fan-out up by only ~10%."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _timed_setup(workload, kernel) -> tuple[float, float]:
    """Set-up time corrected for host speed by kernel runs just before and
    just after it (see ``hostspeed``), and its wall time."""
    from hostspeed import REFERENCE_MS

    before = kernel.mean_ms(SETUP_KERNEL_RUNS)
    started = time.perf_counter()
    workload.setup()
    wall_s = time.perf_counter() - started
    after = kernel.mean_ms(SETUP_KERNEL_RUNS)
    return wall_s * REFERENCE_MS * 2.0 / (before + after), wall_s


# -- the untraced run -------------------------------------------------------------


def _freeze_heap() -> None:
    """Collect, then move every object alive now into the collector's
    permanent generation, as a long-running service does after warm-up.
    The benchmark holds its own copy of the data (the reference) beside
    the program's; without this, every full collection in the timed loop
    walks that copy too.  On ``inproc_warm`` such collections hit about 1
    op in 100 and took ~14 ms each, so the p99 sat on the step between the
    ops they hit and the rest; frozen, they take ~1.5 ms."""
    gc.collect()
    gc.freeze()


def measure(workload, args, tally, kernel) -> tuple[dict, dict]:
    """End-to-end metrics (and extra figures printed but not gated).  The
    gated times come from a closed loop and are corrected for host speed;
    their wall-clock versions are printed and recorded as ``wall_*``."""
    from hostspeed import REFERENCE_MS, corrected

    ops = workload.ops()
    extra: dict = {}
    if workload.closed_loop:
        samples = closed_loop(workload, ops, tally, seconds=args.seconds, kernel=kernel)
    else:
        nominal = open_loop(workload, ops, tally, NOMINAL_RATE, seconds=args.seconds * OPEN_SHARE)
        reads = [lat for op, lat, _s, _l in nominal if op.kind == "read"]
        writes = [lat for op, lat, _s, _l in nominal if op.kind == "insert"]
        extra["open_latency_p50_ms"] = (median(reads), "ms", len(reads))
        extra["open_latency_p99_ms"] = (percentile(reads, 99), "ms", len(reads))
        extra["write_latency_p50_ms"] = (median(writes), "ms", len(writes))
        extra["write_latency_p99_ms"] = (percentile(writes, 99), "ms", len(writes))
        lags = [lag for *_rest, lag in nominal]
        extra["generator_lag_p99_ms"] = (percentile(lags, 99), "ms", len(lags))
        sustained = 0.0
        for rate, step in [(NOMINAL_RATE, nominal)] + [
            (rate, open_loop(workload, ops, tally, rate, seconds=args.seconds * LADDER_SHARE))
            for rate in LADDER_RATES
        ]:
            step_reads = [lat for op, lat, _s, _l in step if op.kind == "read"]
            tail = [lat - service for _op, lat, service, _l in step[-max(3, len(step) // 10):]]
            if percentile(step_reads, 99) < P99_LIMIT_MS and median(tail) < BACKLOG_MS:
                sustained = max(sustained, rate)
        extra["sustained_qps"] = (sustained, "req/s", len(LADDER_RATES) + 1)
        samples = closed_loop(workload, ops, tally, seconds=args.seconds * CLOSED_SHARE,
                              spool=True, kernel=kernel)
    wall = [ms for _op, ms, _k in samples]
    kernel_ms = [k for _op, _ms, k in samples]
    fixed = corrected(wall, kernel_ms)
    # Latency counts every op of a closed-loop workload, and reads only in sharded_wire.
    timed = [i for i, (op, *_rest) in enumerate(samples)
             if workload.closed_loop or op.kind == "read"]
    metrics = {}
    for prefix, times in (("", fixed), ("wall_", wall)):
        latencies = [times[i] for i in timed]
        (metrics if not prefix else extra).update({
            prefix + "throughput_qps": (1000.0 * len(times) / sum(times), "ops/s", len(times)),
            prefix + "latency_p50_ms": (median(latencies), "ms", len(latencies)),
            prefix + "latency_p99_ms": (percentile(latencies, 99), "ms", len(latencies)),
        })
    extra["host_speed"] = (REFERENCE_MS / mean(kernel_ms), "ratio", len(kernel_ms))
    return metrics, extra


# -- the traced run ----------------------------------------------------------------


def _trace_pass(workload, ops, tally, on_op=None):
    """The fixed op prefix, one caller back to back, used by both the
    traced pass and its untraced twin.  Returns each op's service ms."""
    samples = closed_loop(workload, ops, tally, count=TRACE_OPS[workload.name],
                          on_op=on_op, spool=not workload.closed_loop)
    return [ms for _op, ms, _k in samples]


def traced(workload, args, tally) -> tuple[dict, dict]:
    import layers
    from tracing import Recorder, check_self_times

    twin = _child(args, "pass")
    workload.setup()
    workload.reference()
    recorder = Recorder()
    probe = layers.probe_for(workload, recorder)
    before = probe.counters()
    probe.install()
    try:
        service_ms = _trace_pass(workload, workload.ops(), tally, on_op=probe.on_op)
    finally:
        recorder.unwrap()
    after = probe.counters()
    values, bases = probe.summarise(before, after)
    values["shard.spawn_s"] = workload.spawn_s
    values["bench.generator_lag_ms"] = twin["lag_p99_ms"]
    values["bench.trace_overhead_ratio"] = mean(service_ms) / twin["mean_ms"]
    bases["bench.trace_overhead_ratio"] = f"untraced mean {twin['mean_ms']:.3f} ms/op"
    bases["bench.generator_lag_ms"] = (
        f"p99 over {twin['lag_ops']} untraced sends at {NOMINAL_RATE:g}/s"
        if twin["lag_ops"] else "closed loop: no send schedule")
    problems = check_self_times(recorder)
    if problems:
        tally.problem("trace self-time check failed: " + "; ".join(problems[:3]))
        tally.mismatches += len(problems)
    os.makedirs(OUT, exist_ok=True)
    recorder.write(os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json"))
    return values, bases


# -- entry points ----------------------------------------------------------------------


def probe_main(args) -> None:
    """Child-process modes: one cold set-up, or the untraced twin of a
    traced pass."""
    from hostspeed import Kernel
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare_inputs()
    kernel = Kernel()
    try:
        setup_s, wall_s = _timed_setup(workload, kernel)
        if args.probe == "setup":
            print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
            return
        workload.reference()
        tally = Tally()
        ops = workload.ops()
        service_ms = _trace_pass(workload, ops, tally)
        lags = []
        if not workload.closed_loop:
            # The generator's own lateness, from the next ops at the nominal rate.
            lags = [lag for *_rest, lag in open_loop(
                workload, ops, tally, NOMINAL_RATE, count=LAG_OPS)]
        if tally.errors or tally.mismatches:
            raise SystemExit(tally.first_problem)
        print(json.dumps({"mean_ms": mean(service_ms), "ops": len(service_ms),
                          "lag_p99_ms": percentile(lags, 99) if lags else 0.0,
                          "lag_ops": len(lags)}))
    finally:
        workload.close()
        kernel.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("inproc_warm", "adhoc_compile", "sharded_wire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still closes its workload (and any shard servers).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    _prepare_environment()
    _pin_to_one_cpu()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"cannot find the program's sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.probe:
        probe_main(args)
        return 0

    from hostspeed import Kernel
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare_inputs()
    kernel = Kernel()
    tally = Tally()
    record = {"settings": settings(workload, args)}
    try:
        if args.trace:
            values, bases = traced(workload, args, tally)
            metrics = {name: (values.get(name, 0.0), unit, None) for name, unit in PER_LAYER}
            record["bases"] = bases
            extra = {}
        else:
            setups = [(probe["setup_s"], probe["wall_s"])
                      for probe in (_child(args, "setup") for _ in range(SETUPS - 1))]
            setups.append(_timed_setup(workload, kernel))
            workload.reference()
            _freeze_heap()
            metrics, extra = measure(workload, args, tally, kernel)
            metrics["setup_s"] = (median([s for s, _w in setups]), "s", len(setups))
            extra["wall_setup_s"] = (median([w for _s, w in setups]), "s", len(setups))
            metrics["peak_rss_mb"] = (peak_rss_mb(workload.child_pids()), "MB", 1)
            metrics = {name: metrics[name] for name, _unit in END_TO_END}
            record["setup_samples_s"] = setups
    finally:
        workload.close()
        kernel.close()
    failed = tally.errors
    extra["fail_ratio"] = ((failed + tally.mismatches) / max(tally.attempted, 1), "ratio",
                           tally.attempted)
    correct = tally.mismatches == 0
    record.update(
        metrics={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        extra={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extra.items()},
        attempted=tally.attempted, failed=failed, checked=tally.checked,
        mismatches=tally.mismatches, problem=tally.first_problem,
    )
    os.makedirs(OUT, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)

    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"verifier={record['settings']['verifier']} cpus={os.cpu_count()}")
    for key, (value, unit, samples) in list(metrics.items()) + list(extra.items()):
        count = "" if samples is None else f"  (n={samples})"
        base = record.get("bases", {}).get(key)
        print(f"{key:32s} {value:14.4f} {unit:6s}{count}{'  [' + base + ']' if base else ''}")
    if tally.first_problem:
        print(f"# problem: {tally.first_problem}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
