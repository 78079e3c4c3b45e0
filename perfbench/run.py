#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload tables|serve-cold|serve-warm \
        --seed N --seconds S --trace 0|1

Run from the repository root. ``tables`` runs the paper's experiment
(``run_profiling_experiment`` under the Table 2 and Table 3 protocols)
in this process; ``serve-cold`` and ``serve-warm`` drive a ``qpt serve``
daemon with an open-loop phase at a fixed rate, then a closed-loop
phase. Every output is checked against ``reference/``. Every timing
is scaled to a reference host speed measured next to it (see
``calibrate.py``). With
``--trace 0`` the last line is a JSON object carrying the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate, traced run (see ``tracing.py``). ``NOTES.md`` records why the
workloads, rates and metrics are what they are.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("tables", "serve-cold", "serve-warm")
#: Offered open-loop rate, requests/s: a quarter or less of what a
#: 2-core x86-64 host completes closed-loop on each workload, so a queue
#: forms only when the program slows down.
OPEN_RATE = {"serve-cold": 8.0, "serve-warm": 14.0}
#: Arrival k is due at (k + u) / rate, u uniform in +-ARRIVAL_JITTER.
ARRIVAL_JITTER = 0.25
#: Share of --seconds spent in the open loop. The closed loop then
#: serves CLOSED_BLOCKS 40-job blocks, the same work every run (about
#: the rest of --seconds on a 2-core x86-64 host).
OPEN_SHARE = 0.6
CLOSED_BLOCKS = {"serve-cold": 12, "serve-warm": 16}
SETUP_REPEATS = {"tables": 5, "serve-cold": 3, "serve-warm": 3}
REQUEST_TIMEOUT_S = 30.0
#: How a figure of each unit moves with the host's speed: a time is
#: multiplied by the run's calibration scale, a rate divided by it;
#: counts, ratios and sizes are left alone.
SCALE_POWER = {"s": 1, "ms": 1, "ops/s": -1, "1/s": -1}
#: Calibration samples taken at each quiet point of a run (before and
#: after the measured phases; see calibrate.py).
CALIBRATION_REPEATS = 5
#: During the open loop a calibration sample is taken every
#: CALIBRATION_INTERVAL_S when no request is in flight and none is due
#: within CALIBRATION_GAP_S (a sample takes about 10 ms).
CALIBRATION_INTERVAL_S = 0.2
CALIBRATION_GAP_S = 0.03
#: Tracing overhead: the same work timed with recording off and on,
#: alternating, OVERHEAD_PAIRS times each; the minima are compared.
#: Serve replays already-served requests, tables one short experiment.
OVERHEAD_PAIRS = 4
OVERHEAD_REQUESTS = 20
OVERHEAD_EXPERIMENT = (2, "129.compress")


# -- small helpers ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed operations enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def load_reference(name: str) -> dict:
    with open(os.path.join(HERE, "reference", name), encoding="utf-8") as handle:
        return json.load(handle)


class RunDir:
    """The run's scratch space inside the checkout, removed at the end:
    fresh table-cache directories, throwaway ledgers, spans files."""

    def __init__(self) -> None:
        self.path = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.path)
        self._fresh = 0

    def env(self) -> dict:
        """Environment for one process: the program's source, a fresh
        table-cache directory and this run's temporary directory."""
        self._fresh += 1
        table_cache = os.path.join(self.path, f"table-cache-{self._fresh}")
        os.makedirs(table_cache)
        return dict(
            os.environ,
            PYTHONPATH=SRC,
            REPRO_TABLE_CACHE_DIR=table_cache,
            TMPDIR=self.path,
        )

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass


# -- tables ----------------------------------------------------------------------


def probe_tables_setup(run: RunDir) -> float:
    """Seconds from process start until the experiment could run:
    imports plus ``load_machine`` for both machines, in a new process."""
    code = (
        "import repro.evaluation.tables\n"
        "from repro.spawn.library import load_machine\n"
        f"for machine in {specs.MACHINES!r}:\n"
        "    load_machine(machine)\n"
        "print('ready', flush=True)\n"
    )
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        text=True,
        env=run.env(),
        cwd=run.path,
    )
    line = proc.stdout.readline()
    elapsed = time.monotonic() - started
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return elapsed


def run_tables(args, run: RunDir) -> dict:
    samples = calibrate.sample(CALIBRATION_REPEATS)
    setup = []
    for _ in range(SETUP_REPEATS["tables"]):
        setup.append(probe_tables_setup(run))
        samples.extend(calibrate.sample())
    os.environ.update(run.env())
    sys.path.insert(0, SRC)
    import repro.evaluation.experiment as experiment
    from repro.evaluation.tables import TABLE_CONFIGS

    tracer = None
    transforms: list = []
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        make_transform = experiment.make_transform

        def keep_transform(*a, **k):
            transform = make_transform(*a, **k)
            transforms.append(transform)
            return transform

        experiment.make_transform = keep_transform
    setup_window = [time.monotonic()]
    for machine in specs.MACHINES:
        experiment.load_machine(machine)
    setup_window.append(time.monotonic())

    reference = load_reference("tables.json")["cycles"]
    order = list(specs.TABLE_EXPERIMENTS)
    random.Random(args.seed).shuffle(order)
    durations: dict[tuple, list[float]] = {key: [] for key in order}
    attempted = failed = mismatches = cycles_saved = 0
    round_window: list[float] = []
    deadline = time.monotonic() + args.seconds
    round_start = time.monotonic()
    while attempted < len(order) or time.monotonic() < deadline:
        table, benchmark = key = order[attempted % len(order)]
        first_transform = len(transforms)
        attempted += 1
        samples.extend(calibrate.sample())
        started = time.perf_counter()
        try:
            row = experiment.run_profiling_experiment(benchmark, TABLE_CONFIGS[table])
        except Exception:
            # A raised experiment fails the run; it must not drop out
            # of the timings and leave them looking faster.
            traceback.print_exc()
            failed += 1
            break
        durations[key].append(time.perf_counter() - started)
        cycles = [row.uninstrumented_cycles, row.instrumented_cycles, row.scheduled_cycles]
        mismatches += cycles != reference[f"{table}/{benchmark}"]
        if attempted <= len(order):
            cycles_saved += sum(t.stats.cycles_saved for t in transforms[first_transform:])
        if attempted == len(order):
            round_window = [round_start, time.monotonic()]
    if not round_window:  # the run failed before one full pass
        round_window = [round_start, time.monotonic()]

    samples.extend(calibrate.sample(CALIBRATION_REPEATS))
    # A failed run stops at its first failure and may have no timings.
    per_experiment = [statistics.median(times) for times in durations.values() if times] or [0.0]
    e2e = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "throughput_ops_s": (len(per_experiment) / (sum(per_experiment) or math.inf), "ops/s", attempted - failed),
        "latency_p50_ms": (statistics.median(per_experiment) * 1e3, "ms", len(per_experiment)),
        "latency_p95_ms": (percentile(per_experiment, 0.95) * 1e3, "ms", len(per_experiment)),
        "peak_rss_mb": (peak_rss_mb(os.getpid()), "MB", 1),
    }
    result = {
        "e2e": e2e,
        "scale": calibrate.scale(samples),
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
    }
    if tracer is None:
        return result

    def timed(enabled: bool) -> float:
        tracer.enabled = enabled
        table, benchmark = OVERHEAD_EXPERIMENT
        started = time.perf_counter()
        experiment.run_profiling_experiment(benchmark, TABLE_CONFIGS[table])
        return time.perf_counter() - started

    walls = {False: [], True: []}
    for enabled in (False, True) * OVERHEAD_PAIRS:
        walls[enabled].append(timed(enabled))
    trace = tracer.snapshot()
    result["layers"] = layer_metrics(
        tracing.summarize(trace, tuple(round_window)),
        tracing.summarize(trace, tuple(setup_window)),
        {
            "core.cycles_saved": cycles_saved,
            "bench.trace_overhead_frac": min(walls[True]) / min(walls[False]) - 1,
        },
    )
    return result


# -- serve -----------------------------------------------------------------------


def http_call(port: int, method: str, path: str, payload=None) -> tuple[int, dict]:
    """(status, decoded body); status 0 when the daemon did not answer."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}
    except (OSError, http.client.HTTPException, ValueError):
        return 0, {}
    finally:
        connection.close()


def request_body(job: dict) -> dict:
    return {
        "version": 1,
        "jobs": [
            {
                "kind": job["kind"],
                "machine": job["machine"],
                "id": job["key"],
                "workload": job["workload"],
                "options": {"return_executable": False},
            }
        ],
    }


class Daemon:
    """One ``qpt serve`` process (in its own process group, so its
    worker pool is stopped with it)."""

    def __init__(self, run: RunDir, tag: str, nproc: int, spans: str | None) -> None:
        args = [
            "serve",
            "--port", "0",
            "--jobs", str(nproc),
            "--ledger", os.path.join(run.path, f"ledger-{tag}.jsonl"),
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro.tools.qpt_cli", *args]
        else:
            command = [sys.executable, os.path.join(HERE, "serve_launcher.py"), spans, *args]
        self.spans = spans
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            text=True,
            env=run.env(),
            cwd=run.path,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("qpt serve: listening on http://"):
            self.stop()
            raise RuntimeError(f"daemon did not announce itself: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def send(self, job: dict) -> tuple[int, dict]:
        return http_call(self.port, "POST", "/v1/batch", request_body(job))

    def stop(self) -> None:
        if self.proc.poll() is None:
            if hasattr(self, "port"):
                http_call(self.port, "POST", "/shutdown", {})
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        # The pool workers are the daemon's children, not ours: wait
        # until none of the group is left running.
        deadline = time.monotonic() + 10
        while group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)


def group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` has not yet exited."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


class Checker:
    """Counts outputs that differ from the recorded serial builds."""

    def __init__(self) -> None:
        reference = load_reference("serve.json")
        self.prefix = reference["digest_prefix"]
        self.digests = reference["jobs"]
        self.mismatches = 0
        self._lock = threading.Lock()

    def result(self, job: dict, status: int, body: dict) -> dict | None:
        """The job's result if it succeeded (counting a wrong output),
        None if it failed."""
        if status != 200:
            return None
        result = body["results"][0]
        if not result.get("ok"):
            return None
        # Only the set-up warm-up jobs lack a reference, by design; any
        # other job without one counts as wrong rather than unchecked.
        expected = self.digests.get(job["key"])
        if expected is None:
            wrong = not job["key"].startswith("warmup-")
        else:
            wrong = result["text_digest"].split(":", 1)[1][: self.prefix] != expected
        if job["kind"] == "verify":
            wrong |= result.get("verified") is not True or result["stats"]["quarantined"] != 0
        if wrong:
            with self._lock:
                self.mismatches += 1
        return result


def alternating_shuffle(jobs: list[dict], rng: random.Random) -> list[dict]:
    """``jobs`` (which alternate machines) in seeded order, still
    alternating machines."""
    halves = [jobs[0::2], jobs[1::2]]
    for half in halves:
        rng.shuffle(half)
    return [job for pair in zip(*halves) for job in pair]


def open_loop(daemon: Daemon, jobs: list[dict], rate: float, rng, workers: int, checker):
    """Send ``jobs`` on a seeded schedule from ``workers`` connections;
    returns one (due, sent, done, result-or-None) per job, and the
    calibration samples taken while no request was in flight or due
    within ``CALIBRATION_GAP_S``."""
    offsets = [(k + rng.uniform(-ARRIVAL_JITTER, ARRIVAL_JITTER)) / rate for k in range(len(jobs))]
    records: list = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()
    waiting: dict[int, float] = {}  # job taken by a sender -> its due time
    in_flight = [0]
    finished = threading.Event()
    samples: list[float] = []
    start = time.monotonic() + 0.05

    def sender() -> None:
        k = None
        while True:
            with lock:
                # Finishing one job and taking the next is one step, so
                # the calibrator never sees a sender between the two.
                if k is not None:
                    in_flight[0] -= 1
                k = next(cursor, None)
                if k is None:
                    return
                due = waiting[k] = start + max(0.0, offsets[k])
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            with lock:
                del waiting[k]
                in_flight[0] += 1
            sent = time.monotonic()
            status, body = daemon.send(jobs[k])
            records[k] = (due, sent, time.monotonic(), checker.result(jobs[k], status, body))

    def calibrator() -> None:
        while not finished.wait(CALIBRATION_INTERVAL_S):
            with lock:
                next_due = min(waiting.values(), default=math.inf)
                idle = in_flight[0] == 0 and next_due - time.monotonic() > CALIBRATION_GAP_S
            if idle:
                samples.extend(calibrate.sample(1))

    threads = [threading.Thread(target=sender) for _ in range(workers)]
    watcher = threading.Thread(target=calibrator)
    for thread in (*threads, watcher):
        thread.start()
    for thread in threads:
        thread.join()
    finished.set()
    watcher.join()
    return records, samples


def closed_loop(daemon: Daemon, jobs: list[dict], workers: int, checker):
    """``workers`` back-to-back clients until ``jobs`` are all served;
    returns (completed, failed, elapsed)."""
    lock = threading.Lock()
    counts = {"ok": 0, "failed": 0}
    pending = list(reversed(jobs))
    start = time.monotonic()

    def client() -> None:
        while True:
            with lock:
                if not pending:
                    return
                job = pending.pop()
            status, body = daemon.send(job)
            ok = checker.result(job, status, body) is not None
            with lock:
                counts["ok" if ok else "failed"] += 1

    threads = [threading.Thread(target=client) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return counts["ok"], counts["failed"], time.monotonic() - start


def cache_counts(stats: dict) -> tuple[int, int]:
    caches = stats.get("caches", {}).values()
    return sum(c["hits"] for c in caches), sum(c["misses"] for c in caches)


def run_serve(args, run: RunDir) -> dict:
    warm = args.workload == "serve-warm"
    rng = random.Random(args.seed)
    nproc = os.cpu_count() or 1
    checker = Checker()
    rate = OPEN_RATE[args.workload]
    open_seconds = args.seconds * OPEN_SHARE
    count = max(1, round(rate * open_seconds))
    closed_count = CLOSED_BLOCKS[args.workload] * specs.BLOCK_SIZE
    first = -(-count // specs.BLOCK_SIZE)  # pool blocks the cold open loop draws from
    if not warm and first + CLOSED_BLOCKS[args.workload] > specs.POOL_BLOCKS:
        raise SystemExit(
            f"error: --seconds {args.seconds:g} needs {first + CLOSED_BLOCKS[args.workload]} "
            f"pool blocks; the reference covers {specs.POOL_BLOCKS}"
        )
    if warm:
        working_set = specs.pool_block(0)
        jobs = []
        while len(jobs) < count + closed_count:
            jobs.extend(alternating_shuffle(working_set, rng))
    else:
        # The same jobs every run, in seeded order: the open loop takes
        # the first ``count``, the closed loop the next whole blocks.
        working_set = []
        jobs = [job for block in range(first) for job in specs.pool_block(block)]
        jobs = alternating_shuffle(jobs[:count], rng)
        for block in range(first, first + CLOSED_BLOCKS[args.workload]):
            jobs.extend(alternating_shuffle(specs.pool_block(block), rng))
    jobs, closed_jobs = jobs[:count], jobs[count : count + closed_count]

    daemon = None
    setup = []
    samples: list[float] = []
    setup_window: list[float] = []
    try:
        for rep in range(SETUP_REPEATS[args.workload]):
            if daemon is not None:
                daemon.stop()
            spans = os.path.join(run.path, f"spans-{rep}.json") if args.trace else None
            samples.extend(calibrate.sample())
            started = time.monotonic()
            daemon = Daemon(run, f"setup{rep}", nproc, spans)
            if http_call(daemon.port, "GET", "/healthz")[0] != 200:
                raise RuntimeError("daemon failed its health check")
            priming = [specs.warmup_job(m) for m in specs.MACHINES] + working_set
            for job in priming:
                if checker.result(job, *daemon.send(job)) is None:
                    raise RuntimeError(f"set-up request {job['key']} failed")
            setup_window = [started, time.monotonic()]
            setup.append(setup_window[1] - started)

        stats_before = http_call(daemon.port, "GET", "/stats")[1]
        samples.extend(calibrate.sample(CALIBRATION_REPEATS))
        records, open_samples = open_loop(daemon, jobs, rate, rng, nproc, checker)
        stats_after = http_call(daemon.port, "GET", "/stats")[1]
        open_window = (min(r[0] for r in records), max(r[2] for r in records))
        samples.extend(open_samples + calibrate.sample(CALIBRATION_REPEATS))
        done, closed_failed, closed_s = closed_loop(daemon, closed_jobs, nproc, checker)
        samples.extend(calibrate.sample(CALIBRATION_REPEATS))
        final_stats = http_call(daemon.port, "GET", "/stats")[1]
        rss = peak_rss_mb(daemon.proc.pid)

        overhead = None
        if args.trace:
            walls = {False: [], True: []}
            for enabled in (False, True) * OVERHEAD_PAIRS:
                os.kill(daemon.proc.pid, signal.SIGUSR1 if enabled else signal.SIGUSR2)
                time.sleep(0.2)
                started = time.perf_counter()
                for job in jobs[:OVERHEAD_REQUESTS]:
                    daemon.send(job)
                walls[enabled].append(time.perf_counter() - started)
            overhead = min(walls[True]) / min(walls[False]) - 1
    finally:
        if daemon is not None:
            daemon.stop()

    results = [r[3] for r in records]
    failed = sum(r is None for r in results) + closed_failed
    latencies = [(done_t - due) * 1e3 if r is not None else math.inf for due, _, done_t, r in records]
    e2e = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "throughput_ops_s": (done / closed_s, "ops/s", done),
        "latency_p50_ms": (percentile(latencies, 0.50), "ms", len(latencies)),
        "latency_p95_ms": (percentile(latencies, 0.95), "ms", len(latencies)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    result = {
        "e2e": e2e,
        "scale": calibrate.scale(samples),
        "attempted": len(records) + done + closed_failed,
        "failed": failed,
        "mismatches": checker.mismatches,
    }
    if not args.trace:
        return result

    with open(daemon.spans, encoding="utf-8") as handle:
        trace = json.load(handle)
    served = [r for r in results if r is not None]
    waits = [
        (done_t - sent) * 1e3 - r["wall_ms"] for _, sent, done_t, r in records if r is not None
    ]
    hits0, misses0 = cache_counts(stats_before)
    hits1, misses1 = cache_counts(stats_after)
    lookups = (hits1 - hits0) + (misses1 - misses0)
    result["layers"] = layer_metrics(
        tracing.summarize(trace, open_window),
        tracing.summarize(trace, tuple(setup_window)),
        {
            "core.cycles_saved": sum(r["stats"]["cycles_saved"] for r in served),
            "parallel.cache_hit_ratio": (hits1 - hits0) / lookups if lookups else 0.0,
            "robust.guard_fallbacks": sum(r["stats"].get("fallbacks", 0) for r in served),
            "robust.guard_quarantined": sum(r["stats"].get("quarantined", 0) for r in served),
            "serve.wait_ms_p50": percentile(waits, 0.50) if waits else 0.0,
            "serve.wait_ms_p95": percentile(waits, 0.95) if waits else 0.0,
            "serve.rejected": final_stats.get("rejected", 0),
            "serve.errors": final_stats.get("errors", 0),
            "bench.sender_lag_p95_ms": percentile([(sent - due) * 1e3 for due, sent, _, _ in records], 0.95),
            "bench.trace_overhead_frac": overhead,
        },
    )
    return result


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(work: dict, setup: dict, measured: dict) -> dict[str, tuple]:
    """Per-layer metrics from span summaries of the measured work (one
    pass over the ``tables`` list, or the open-loop phase) and of the
    set-up, plus values the benchmark measured itself."""
    static, symbolic = work["analyze.static_verify"], work["analyze.symbolic_verify"]
    timed_run = work["pipeline.timing.timed_run"]
    lookup = work["parallel.cache_lookup"]
    metrics = {
        "spawn.load_machine_s": (setup["spawn.load_machine"]["incl"], "s"),
        "pipeline.tables.attach_s": (setup["pipeline.tables.attach"]["incl"], "s"),
        "pipeline.tables.states": (setup["pipeline.tables.attach"]["value"], "count"),
        "evaluation.experiment_s": (work["evaluation.experiment"]["incl"], "s"),
        "pipeline.timing.timed_run_s": (timed_run["incl"], "s"),
        "pipeline.timing.sim_instructions": (timed_run["value"], "count"),
        "pipeline.timing.sim_instr_per_s": (
            timed_run["value"] / timed_run["incl"] if timed_run["incl"] else 0.0,
            "1/s",
        ),
        "core.optimizer_s": (work["core.optimizer"]["incl"], "s"),
        "core.optimizer_regions": (work["core.optimizer"]["calls"], "count"),
        "pipeline.simulator.time_block_s": (work["pipeline.simulator.time_block"]["incl"], "s"),
        "pipeline.simulator.time_block_calls": (work["pipeline.simulator.time_block"]["calls"], "count"),
        "core.list_scheduler_s": (work["core.list_scheduler"]["incl"], "s"),
        "core.list_scheduler_regions": (work["core.list_scheduler"]["calls"], "count"),
        "core.list_scheduler_instructions": (work["core.list_scheduler"]["value"], "count"),
        "parallel.prepare_s": (work["parallel.prepare"]["incl"], "s"),
        "parallel.pool_regions": (work["parallel.prepare"]["value"], "count"),
        "parallel.cache_lookups": (lookup["calls"], "count"),
        "parallel.cache_hit_ratio": (
            measured.get("parallel.cache_hit_ratio", lookup["value"] / lookup["calls"] if lookup["calls"] else 0.0),
            "ratio",
        ),
        "parallel.cache_lookup_s": (lookup["incl"], "s"),
        "robust.guard_s": (work["robust.guard"]["incl"], "s"),
        "robust.guard_fallbacks": (measured.get("robust.guard_fallbacks", 0), "count"),
        "robust.guard_quarantined": (measured.get("robust.guard_quarantined", 0), "count"),
        "analyze.static_verify_s": (static["incl"], "s"),
        "analyze.symbolic_verify_s": (symbolic["incl"], "s"),
        "analyze.proven_ratio": (
            (static["value"] + symbolic["value"]) / static["calls"] if static["calls"] else 0.0,
            "ratio",
        ),
        "workloads.generate_s": (work["workloads.generate"]["incl"], "s"),
        "workloads.generate_calls": (work["workloads.generate"]["calls"], "count"),
        "eel.build_cfg_s": (work["eel.build_cfg"]["incl"], "s"),
        "eel.editor_build_self_s": (work["eel.editor_build"]["self"], "s"),
        "qpt.instrument_self_s": (work["qpt.instrument"]["self"], "s"),
        "core.cycles_saved": (measured["core.cycles_saved"], "count"),
        "serve.handle_batch_s": (work["serve.handle_batch"]["incl"], "s"),
        "serve.wait_ms_p50": (measured.get("serve.wait_ms_p50", 0.0), "ms"),
        "serve.wait_ms_p95": (measured.get("serve.wait_ms_p95", 0.0), "ms"),
        "serve.rejected": (measured.get("serve.rejected", 0), "count"),
        "serve.errors": (measured.get("serve.errors", 0), "count"),
        "bench.sender_lag_p95_ms": (measured.get("bench.sender_lag_p95_ms", 0.0), "ms"),
        "bench.trace_overhead_frac": (measured["bench.trace_overhead_frac"], "ratio"),
    }
    return metrics


# -- entry point -----------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    run = RunDir()
    try:
        result = run_tables(args, run) if args.workload == "tables" else run_serve(args, run)
    finally:
        run.remove()

    attempted, failed = result["attempted"], result["failed"]
    # Timings and rates are scaled to the reference host (see
    # calibrate.py); the printed line gives the raw figure beside each.
    def scaled(raw, unit):
        return raw * result["scale"] ** SCALE_POWER.get(unit, 0)

    lines = {
        name: (scaled(raw, unit), unit, f"n={n}" + (f" raw={raw:.6g}" if unit in SCALE_POWER else ""))
        for name, (raw, unit, n) in result["e2e"].items()
    }
    lines["failed_frac"] = (failed / attempted, "ratio", f"n={attempted}")
    lines["output_mismatches"] = (result["mismatches"], "count", f"n={attempted}")
    for name, (raw, unit) in result.get("layers", {}).items():
        lines[name] = (scaled(raw, unit), unit, f"raw={raw:.6g}" if unit in SCALE_POWER else "")
    for name, (value, unit, samples) in lines.items():
        print(f"{args.workload:<11} {name:<36} {value:>14.6g} {unit:<6} {samples}")
    chosen = result["layers"] if args.trace else result["e2e"]
    summary = {
        "correct": result["mismatches"] == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": lines[name][0], "unit": lines[name][1]} for name in chosen},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
