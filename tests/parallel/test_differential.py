"""The differential proof: serial == parallel == cached, byte for byte.

Every configuration of (worker count, cache mode) must produce the
same scheduled executable as a plain serial run — same output bytes,
same :class:`SchedulerStats`, same hazard-attribution bucket totals —
on randomized synthetic executables. This is the test layer that makes
the parallel executor's determinism claim falsifiable.
"""

import pytest

from repro.core import SchedulingPolicy
from repro.obs import (
    GUARD_BLOCKS_VERIFIED,
    HAZARD_KINDS,
    ISSUES,
    STALL_CYCLES,
    MetricsRecorder,
)
from repro.parallel import ParallelOptions, ScheduleCache, make_transform
from repro.qpt import SlowProfiler
from repro.spawn import load_machine
from repro.workloads.generator import WorkloadSpec, generate

MACHINE = load_machine("ultrasparc")
POLICY = SchedulingPolicy(fill_delay_slots=True)
SEEDS = (101, 202, 303)
JOBS = (1, 2, 4)


def workload(seed, kind="int"):
    return generate(
        WorkloadSpec(
            name=f"diff-{kind}-{seed}", seed=seed, kind=kind, avg_block_size=8.0
        )
    )


def build(
    program,
    *,
    jobs=1,
    cache=None,
    use_cache=True,
    guarded=False,
    verify_seed=0,
):
    """One instrumented-and-scheduled build; returns everything the
    differential claim quantifies over."""
    recorder = MetricsRecorder()
    transform = make_transform(
        MACHINE,
        POLICY,
        recorder,
        options=ParallelOptions(jobs=jobs, use_cache=use_cache),
        cache=cache,
        guarded=guarded,
        verify_seed=verify_seed,
    )
    profiled = SlowProfiler(program.executable, recorder=recorder).instrument(
        transform
    )
    metrics = recorder.metrics
    buckets = {
        kind: metrics.counter_total(STALL_CYCLES, kind=kind)
        for kind in HAZARD_KINDS
    }
    buckets["issues"] = metrics.counter_total(ISSUES)
    if guarded:
        buckets["guard_verified"] = metrics.counter_total(GUARD_BLOCKS_VERIFIED)
    return (
        bytes(profiled.executable.text_section().data),
        transform.stats,
        buckets,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_jobs_and_cache_modes_are_equivalent(seed):
    program = workload(seed)
    reference = build(program, jobs=1, use_cache=False)
    for jobs in JOBS:
        disabled = build(program, jobs=jobs, use_cache=False)
        assert disabled == reference, f"jobs={jobs} cache=disabled diverged"

        cold = build(program, jobs=jobs, cache=ScheduleCache())
        assert cold == reference, f"jobs={jobs} cache=cold diverged"

        shared = ScheduleCache()
        warming = build(program, jobs=jobs, cache=shared)
        assert warming == reference, f"jobs={jobs} warming build diverged"
        warm = build(program, jobs=1, cache=shared)
        assert warm == reference, f"jobs={jobs} cache=warm diverged"
        assert shared.hits > 0, "warm run never hit the cache"


def test_warm_cache_serves_every_region():
    program = workload(11)
    shared = ScheduleCache()
    build(program, jobs=1, cache=shared)
    misses_after_cold = shared.misses
    build(program, jobs=1, cache=shared)
    assert shared.misses == misses_after_cold, "warm run re-scheduled a region"
    assert shared.hit_rate > 0


def test_fp_workload_equivalent_across_modes():
    # FP workloads exercise double-word memory ops, which disable
    # register-renaming canonicalization — the modes must still agree.
    program = workload(42, kind="fp")
    reference = build(program, jobs=1, use_cache=False)
    shared = ScheduleCache()
    assert build(program, jobs=4, cache=shared) == reference
    assert build(program, jobs=1, cache=shared) == reference


@pytest.mark.parametrize("verify_seed", (0, 1, 2))
def test_guarded_modes_equivalent_across_verify_seeds(verify_seed):
    program = workload(77)
    reference = build(program, jobs=1, use_cache=False, guarded=True,
                      verify_seed=verify_seed)
    for jobs in (1, 4):
        cold = build(program, jobs=jobs, cache=ScheduleCache(), guarded=True,
                     verify_seed=verify_seed)
        assert cold == reference, f"guarded jobs={jobs} cold diverged"
        shared = ScheduleCache()
        build(program, jobs=jobs, cache=shared, guarded=True,
              verify_seed=verify_seed)
        warm = build(program, jobs=1, cache=shared, guarded=True,
                     verify_seed=verify_seed)
        assert warm == reference, f"guarded jobs={jobs} warm diverged"
        assert shared.verified_entries() == len(shared) > 0


def test_parallel_workers_actually_warm_the_cache():
    program = workload(55)
    shared = ScheduleCache()
    transform = make_transform(
        MACHINE,
        POLICY,
        options=ParallelOptions(jobs=4),
        cache=shared,
    )
    SlowProfiler(program.executable).instrument(transform)
    assert transform.warmed_regions > 0, "no region was scheduled in a worker"
    # The serial layout pass ran entirely on hits.
    assert shared.misses == 0
    assert shared.hits >= transform.warmed_regions


# -- the persistent pool joins the matrix ----------------------------------------


def pooled_build(program, *, jobs, cache=None):
    recorder = MetricsRecorder()
    transform = make_transform(
        MACHINE,
        POLICY,
        recorder,
        options=ParallelOptions(jobs=jobs),
        cache=cache,
    )
    profiled = SlowProfiler(program.executable, recorder=recorder).instrument(
        transform
    )
    metrics = recorder.metrics
    buckets = {
        kind: metrics.counter_total(STALL_CYCLES, kind=kind)
        for kind in HAZARD_KINDS
    }
    buckets["issues"] = metrics.counter_total(ISSUES)
    return bytes(profiled.executable.text_section().data), transform.stats, buckets


@pytest.mark.parametrize("seed", SEEDS)
def test_persistent_pool_joins_the_differential_matrix(seed):
    """The shared worker pool must not perturb a single byte, stat, or
    hazard bucket relative to a serial build."""
    program = workload(seed)
    reference = build(program, jobs=1, use_cache=False)
    for jobs in (2, 4):
        pooled = pooled_build(program, jobs=jobs, cache=ScheduleCache())
        assert pooled == reference, f"pooled jobs={jobs} diverged"


def test_forced_real_pool_matches_inline_fast_path(monkeypatch):
    """REPRO_POOL_INLINE toggles *where* shards run, never what they
    produce: forked pool workers and the in-process fast path agree."""
    from repro.parallel.pool import INLINE_ENV

    program = workload(101)
    reference = build(program, jobs=1, use_cache=False)
    monkeypatch.setenv(INLINE_ENV, "1")
    inline = pooled_build(program, jobs=2, cache=ScheduleCache())
    monkeypatch.setenv(INLINE_ENV, "0")
    forked = pooled_build(program, jobs=2, cache=ScheduleCache())
    assert inline == reference
    assert forked == reference


# -- the daemon joins the matrix -------------------------------------------------


def test_daemon_served_bytes_match_serial_build():
    """A served instrument request returns the byte-identical image a
    local serial build produces — HTTP, batching, the shared service
    cache, and the pool in between change nothing."""
    import threading

    from repro.serve import (
        SchedulingService,
        ServeClient,
        ServeDaemon,
        ServiceConfig,
        decode_result_executable,
        encode_job,
    )

    spec = {"name": "diff-serve", "seed": 404, "kind": "int",
            "avg_block_size": 8.0}
    program = generate(WorkloadSpec(**spec))
    recorder = MetricsRecorder()
    transform = make_transform(
        MACHINE, POLICY, recorder, options=ParallelOptions(jobs=1)
    )
    profiled = SlowProfiler(program.executable, recorder=recorder).instrument(
        transform
    )
    serial_image = profiled.executable.to_bytes()

    service = SchedulingService(ServiceConfig(jobs=2))
    server = ServeDaemon(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(server.server_address[1])
        client.wait_ready(timeout=10.0)
        for _ in range(2):  # cold then cache-warm: same bytes both times
            response = client.batch(
                [encode_job("instrument", workload=spec, id="diff")]
            )
            (result,) = response["results"]
            assert result["ok"], result
            assert decode_result_executable(result) == serial_image
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)


def test_cli_stats_json_deterministic_across_jobs(tmp_path, capsys):
    """`qpt instrument --stats --stats-format json` reports identical
    hazard attribution at jobs=1 and jobs=2 — the observability series
    are part of the differential claim, not just the bytes."""
    import json

    from repro.tools.qpt_cli import main

    program = workload(77)
    image = tmp_path / "diff.rxe"
    image.write_bytes(program.executable.to_bytes())
    payloads = {}
    outputs = {}
    for jobs in (1, 2):
        out = tmp_path / f"diff-{jobs}.qpt.rxe"
        assert main([
            "instrument", str(image), "-o", str(out),
            "--machine", "ultrasparc", "--schedule", "--fill-delay-slots",
            "--jobs", str(jobs), "--stats", "--stats-format", "json",
        ]) == 0
        raw = capsys.readouterr().out
        payloads[jobs] = json.loads(raw[raw.index("{"):])
        outputs[jobs] = out.read_bytes()
    assert outputs[1] == outputs[2]
    assert payloads[1]["hazards"] == payloads[2]["hazards"]
