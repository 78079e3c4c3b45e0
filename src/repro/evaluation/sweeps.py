"""Parameter sweeps as a library API.

The benches print these; downstream users asked "how would this behave
on *my* workload/machine" want them callable. Each sweep returns plain
dataclasses ready for tabulation or plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.block_scheduler import BlockScheduler
from ..core.optimizer import ImprovedScheduler
from ..eel.editor import Editor
from ..pipeline.tables import attach_tables
from ..pipeline.timing import timed_run
from ..qpt.profiling import SlowProfiler
from ..spawn.model import MachineModel
from ..spawn.synthetic_machines import load_superscalar
from ..workloads.generator import SyntheticProgram, WorkloadSpec, generate
from .experiment import ExperimentConfig, run_profiling_experiment


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the knob value and the paper's three metrics."""

    knob: float
    avg_block_size: float
    instrumented_ratio: float
    pct_hidden: float


def block_size_sweep(
    sizes: tuple[float, ...] = (2.5, 4.0, 8.0, 16.0, 32.0),
    *,
    machine: str | MachineModel = "ultrasparc",
    seed: int = 42,
    trip_count: int = 40,
) -> list[SweepPoint]:
    """% hidden and overhead ratio as dynamic block size grows (§4.1)."""
    points = []
    for size in sizes:
        spec = WorkloadSpec(
            name=f"sweep{size}",
            seed=seed,
            kind="int" if size < 6 else "fp",
            avg_block_size=size,
            loops=5,
            trip_count=trip_count,
            diamond_prob=0.8 if size < 6 else 0.0,
        )
        result = run_profiling_experiment(
            spec.name,
            ExperimentConfig(machine=machine, trip_count=trip_count),
            program=generate(spec),
        )
        points.append(
            SweepPoint(
                knob=size,
                avg_block_size=result.avg_block_size,
                instrumented_ratio=result.instrumented_ratio,
                pct_hidden=result.pct_hidden,
            )
        )
    return points


@dataclass(frozen=True)
class WidthPoint:
    width: int
    cost_per_added_unscheduled: float
    cost_per_added_scheduled: float


def width_sweep(
    widths: tuple[int, ...] = (1, 2, 4, 8),
    *,
    program: SyntheticProgram,
    optimizer_restarts: int = 6,
) -> list[WidthPoint]:
    """Effective cycle cost per added instrumentation instruction as
    issue width grows (§5's extrapolation)."""
    points = []
    for width in widths:
        model = load_superscalar(width)
        attach_tables(model)
        compiled = Editor(program.executable).build(
            ImprovedScheduler(
                model,
                seed=program.spec.seed,
                restarts=optimizer_restarts,
                refine_steps=40,
            )
        )
        base = timed_run(model, compiled)
        plain = timed_run(model, SlowProfiler(compiled).instrument().executable)
        sched = timed_run(
            model,
            SlowProfiler(compiled).instrument(BlockScheduler(model)).executable,
        )
        added = plain.instructions - base.instructions
        points.append(
            WidthPoint(
                width=width,
                cost_per_added_unscheduled=(plain.cycles - base.cycles) / added,
                cost_per_added_scheduled=(sched.cycles - base.cycles) / added,
            )
        )
    return points
