"""Trace-driven whole-program timing.

The functional simulator executes the program and feeds every
dynamically executed instruction, in true dynamic order, into the
pipeline model. This carries pipeline state *across* basic blocks — a
load at the end of one block stalls its use at the top of the next, and
back-to-back tiny blocks contend for the branch unit — which is
essential for the paper's small-block SPECINT behaviour.

This is the "Time" measurement of the evaluation harness: the paper ran
wall-clock on hardware; we run the same binaries through an in-order
pipeline simulation of the same microarchitectures. With compiled
tables attached and no recorder enabled, each dynamic instruction is a
table lookup (:class:`~repro.pipeline.stream.IssueStream`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.simulator import RunResult
from ..obs.recorder import NULL_RECORDER, Recorder
from ..spawn.model import MachineModel
from .stream import IssueStream


@dataclass
class TimedRun:
    """Outcome of a trace-driven timing run."""

    cycles: int
    instructions: int
    result: RunResult

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def timed_run(
    model: MachineModel,
    executable,
    *,
    max_instructions: int = 5_000_000,
    count_executions: bool = False,
    recorder: Recorder | None = None,
) -> TimedRun:
    """Run ``executable`` functionally while timing it on ``model``."""
    rec = recorder if recorder is not None else NULL_RECORDER
    stream = IssueStream(model, rec)
    issue = stream.issue

    def hook(address: int, inst) -> None:
        issue(inst)

    with rec.span("pipeline.timed_run"):
        result = executable.run(
            max_instructions=max_instructions,
            count_executions=count_executions,
            on_execute=hook,
        )
    return TimedRun(
        cycles=stream.cycle + 1 if result.instructions_executed else 0,
        instructions=result.instructions_executed,
        result=result,
    )
