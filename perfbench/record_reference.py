"""Record the outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py [--procs N]

Writes ``perfbench/reference/tables.json`` (the uninstrumented,
instrumented and scheduled cycle counts of every ``tables`` experiment)
and ``perfbench/reference/serve.json`` (the text digest of every job in
the serve pool). Both come from the plain library path: the experiment
as shipped, which times with the interpreted pipeline walker, and for
serve a serial, uncached, in-process build on a model without compiled
tables, never the daemon. Re-record only when a change is meant to
alter outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import specs  # noqa: E402

#: Hex digits of the sha256 text digest kept per serve job.
DIGEST_PREFIX = 24


def serial_digest(job: dict) -> str:
    """The text digest ``qpt serve`` must return for ``job``."""
    from repro.core.dependence import SchedulingPolicy
    from repro.eel.editor import Editor
    from repro.parallel.executor import ParallelOptions, make_transform
    from repro.qpt.profiling import SlowProfiler
    from repro.spawn.library import load_machine
    from repro.workloads.generator import WorkloadSpec, generate

    executable = generate(WorkloadSpec(**job["workload"])).executable
    transform = make_transform(
        load_machine(job["machine"]),
        SchedulingPolicy(fill_delay_slots=True),
        options=ParallelOptions(jobs=1, use_cache=False),
        guarded=job["kind"] == "verify",
    )
    if job["kind"] == "schedule":
        edited = Editor(executable).build(transform)
    else:
        edited = SlowProfiler(executable).instrument(transform).executable
    if job["kind"] == "verify" and transform.quarantine:
        raise SystemExit(f"{job['key']}: the serial guarded build quarantined blocks")
    return hashlib.sha256(bytes(edited.text_section().data)).hexdigest()[:DIGEST_PREFIX]


def _block_digests(block: int) -> dict[str, str]:
    return {job["key"]: serial_digest(job) for job in specs.pool_block(block)}


def table_cycles() -> dict[str, list[int]]:
    from repro.evaluation.experiment import run_profiling_experiment
    from repro.evaluation.tables import TABLE_CONFIGS

    out = {}
    for table, benchmark in specs.TABLE_EXPERIMENTS:
        row = run_profiling_experiment(benchmark, TABLE_CONFIGS[table])
        out[f"{table}/{benchmark}"] = [
            row.uninstrumented_cycles,
            row.instrumented_cycles,
            row.scheduled_cycles,
        ]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=1)
    args = parser.parse_args()
    out_dir = os.path.join(HERE, "reference")
    os.makedirs(out_dir, exist_ok=True)
    with multiprocessing.get_context("spawn").Pool(args.procs) as pool:
        blocks = pool.map(_block_digests, range(specs.POOL_BLOCKS))
    digests = {key: value for block in blocks for key, value in block.items()}
    with open(os.path.join(out_dir, "serve.json"), "w", encoding="utf-8") as handle:
        json.dump({"digest_prefix": DIGEST_PREFIX, "jobs": digests}, handle, indent=0)
        handle.write("\n")
    with open(os.path.join(out_dir, "tables.json"), "w", encoding="utf-8") as handle:
        json.dump({"cycles": table_cycles()}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
