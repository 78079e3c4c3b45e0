"""Straight-line and block timing on top of ``pipeline_stalls``.

The scheduler asks one question — "how many cycles does this sequence of
instructions take to issue?" — and the evaluation harness asks it for
every basic block in a program. Both use :class:`BlockSimulator`.

Block cost is measured as *issue time*: the cycle after the last
instruction of the block enters the pipeline. This is the quantity local
scheduling actually changes (long-latency tails drain concurrently with
the next block on these in-order machines, and neither the paper's model
nor ours tracks cache or fetch effects — §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, Recorder
from ..spawn.model import MachineModel
from .stream import IssueStream


@dataclass
class BlockTiming:
    """Timing of one straight-line instruction sequence."""

    instructions: int
    #: cycle after the last instruction issued (the block's issue cost).
    issue_cycles: int
    #: cycle after the last instruction left the pipeline entirely.
    drain_cycles: int
    #: total stall cycles summed over instructions.
    stall_cycles: int
    #: issue cycle per instruction, in sequence order.
    issue_times: list[int] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        """Issued instructions per cycle."""
        if self.issue_cycles == 0:
            return 0.0
        return self.instructions / self.issue_cycles


class BlockSimulator:
    """Times straight-line code on a machine model, in order."""

    def __init__(
        self, model: MachineModel, recorder: Recorder | None = None
    ) -> None:
        self.model = model
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    def time_block(self, instructions: list[Instruction]) -> BlockTiming:
        """Issue ``instructions`` in order through a fresh pipeline
        (table-only when the model has compiled tables and the
        recorder is off; see :class:`~repro.pipeline.stream.IssueStream`)."""
        stream = IssueStream(self.model, self.recorder)
        issue = stream.issue
        issue_times = [issue(inst) for inst in instructions]
        # Each instruction is queried at its predecessor's issue cycle
        # (the first at 0), so the per-instruction stalls sum to the
        # last issue cycle.
        last_issue = issue_times[-1] if issue_times else -1
        return BlockTiming(
            instructions=len(instructions),
            issue_cycles=last_issue + 1,
            drain_cycles=stream.drain,
            stall_cycles=max(last_issue, 0),
            issue_times=issue_times,
        )

    def block_cycles(self, instructions: list[Instruction]) -> int:
        """Shorthand: the issue-cycle cost of a block."""
        return self.time_block(instructions).issue_cycles
