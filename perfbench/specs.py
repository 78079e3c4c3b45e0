"""The benchmark's inputs: the fixed ``tables`` list and the serve job pool.

Everything here is a pure function of constants, so the recorded
references (``reference/*.json``) and every run agree on what entry
``i`` of the pool is. A run's ``--seed`` only chooses which pool
blocks it sends and in what order (see ``run.py``).
"""

from __future__ import annotations

import random

MACHINES = ("ultrasparc", "supersparc")

#: ``tables``: SPEC95 stand-ins run under the Table 2 and Table 3
#: protocols. Four short-block CINT95 programs (timed_run-heavy) and
#: three CFP95 programs, among them the long-block 145.fpppp that hands
#: the biggest share to the compile-input optimizer. One pass over the
#: list (14 experiments) takes 12-23 s on a 2-core x86-64 host,
#: depending on how busy the host is.
TABLE_PROTOCOLS = (2, 3)
TABLE_BENCHMARKS = (
    "099.go",
    "126.gcc",
    "129.compress",
    "134.perl",
    "104.hydro2d",
    "103.su2cor",
    "145.fpppp",
)
TABLE_EXPERIMENTS = tuple(
    (table, benchmark) for table in TABLE_PROTOCOLS for benchmark in TABLE_BENCHMARKS
)

#: One block of the serve job pool, per machine: (job kind, spec kind,
#: loops, count). Mostly ``instrument``, some ``schedule`` and
#: ``verify``; one job in eight carries an fp spec. Each block holds
#: this mix for both machines, 40 jobs in all.
BLOCK_MIX = (
    ("instrument", "int", 2, 14),
    ("instrument", "fp", 2, 2),
    ("schedule", "int", 2, 2),
    ("schedule", "fp", 2, 1),
    ("verify", "int", 2, 1),
)
BLOCK_SIZE = 2 * sum(count for *_, count in BLOCK_MIX)
#: Blocks in the pool. A ``serve-cold`` daemon is sent each job at most
#: once, so the pool bounds how many jobs one run can send.
POOL_BLOCKS = 24


def _spec(rng: random.Random, name: str, spec_kind: str, loops: int) -> dict:
    """WorkloadSpec fields for one job: short int blocks (2.5-3.5
    instructions on average) or long fp blocks (7-10)."""
    low, high = (2.5, 3.5) if spec_kind == "int" else (7.0, 10.0)
    return {
        "name": name,
        "seed": rng.randrange(2**31),
        "kind": spec_kind,
        "avg_block_size": round(rng.uniform(low, high), 1),
        "loops": loops,
    }


def pool_block(block: int) -> list[dict]:
    """The 40 jobs of one pool block, as ``{"key", "kind", "machine",
    "workload"}`` dicts, in a fixed order that alternates machines."""
    rng = random.Random(f"perfbench-pool-{block}")
    per_machine: dict[str, list[dict]] = {machine: [] for machine in MACHINES}
    for machine in MACHINES:
        for kind, spec_kind, loops, count in BLOCK_MIX:
            for _ in range(count):
                key = f"b{block}-{len(per_machine[machine])}-{machine}"
                per_machine[machine].append(
                    {
                        "key": key,
                        "kind": kind,
                        "machine": machine,
                        "workload": _spec(rng, key, spec_kind, loops),
                    }
                )
    return [job for pair in zip(*per_machine.values()) for job in pair]


def warmup_job(machine: str) -> dict:
    """A set-up request outside the pool: attaches the machine's tables
    and starts the worker pool before anything is timed."""
    key = f"warmup-{machine}"
    return {
        "key": key,
        "kind": "instrument",
        "machine": machine,
        "workload": _spec(random.Random(key), key, "int", 3),
    }
