"""One in-order instruction stream, issued table-first.

Trace timing (:func:`repro.pipeline.timing.timed_run`), block timing
(:class:`repro.pipeline.simulator.BlockSimulator`) and the list
scheduler's cost measurement all issue a sequence of instructions, each
at the earliest cycle at or after its predecessor's issue, and read the
cycles back. :class:`IssueStream` is that walk. When the model carries
compiled tables and nothing observes the walk, it runs on a
:class:`~repro.pipeline.tables.LeanPipeline` — a state id and register
history, no occupancy timeline. The first query the tables cannot
answer moves the stream onto the interpreted walker, rebuilt from the
lean state (:meth:`~repro.pipeline.tables.LeanPipeline.to_state`), for
the rest of the stream. Either way every issue cycle equals the
interpreted walker's.

An enabled recorder keeps the stream on the interpreted walker from the
start, because hazard attribution reads the occupancy timeline.
"""

from __future__ import annotations

from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, Recorder
from ..spawn.model import MachineModel
from .stalls import issue
from .state import PipelineState
from .tables import LeanPipeline, TableMiss


class IssueStream:
    """Issues instructions in order on ``model``; see the module doc."""

    __slots__ = ("model", "recorder", "lean", "state", "base", "cycle", "_drain")

    def __init__(self, model: MachineModel, recorder: Recorder | None = None) -> None:
        self.model = model
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        tables = getattr(model, "tables", None)
        #: the table-only stream, or None once on the interpreted walker.
        self.lean = (
            LeanPipeline(tables)
            if tables is not None and not self.recorder.enabled
            else None
        )
        #: the interpreted state (None while the lean stream runs); its
        #: cycle 0 is absolute cycle ``base``.
        self.state = None if self.lean is not None else PipelineState(model)
        self.base = 0
        #: issue cycle of the latest instruction (0 before the first):
        #: the next instruction issues at or after it.
        self.cycle = 0
        self._drain = 0

    @property
    def drain(self) -> int:
        """The cycle after the latest pipeline exit of any instruction
        issued so far."""
        return self.lean.drain if self.lean is not None else self._drain

    def issue(self, inst: Instruction) -> int:
        """Issue ``inst`` and return its (absolute) issue cycle."""
        lean = self.lean
        if lean is not None:
            timing = self.model.timing(inst)
            try:
                cycle, next_sid = lean.query(self.cycle, timing)
                lean.commit(timing, cycle, next_sid)
            except TableMiss:
                # Neither call changed the stream: rebuild it as an
                # interpreted state and issue there.
                self.state = lean.to_state(self.model)
                self.base = lean.origin
                self._drain = lean.drain
                self.lean = None
            else:
                self.cycle = cycle
                return cycle
        base = self.base
        result = issue(self.cycle - base, self.state, inst, self.recorder)
        self.cycle = cycle = result.issue_cycle + base
        if result.completion_cycle + base > self._drain:
            self._drain = result.completion_cycle + base
        return cycle
