"""One in-order instruction stream, issued table-first.

Trace timing (:func:`repro.pipeline.timing.timed_run`), block timing
(:class:`repro.pipeline.simulator.BlockSimulator`) and the list
scheduler all issue a sequence of instructions, each at the earliest
cycle at or after its predecessor's issue, and read the cycles back.
:class:`IssueStream` is that walk, and the scheduler's stall oracle:
:meth:`~IssueStream.query` prices a candidate at the stream's current
cycle without issuing it, and :meth:`~IssueStream.commit` issues the
chosen one.

When the model carries compiled tables and nothing observes the walk,
the stream runs on a :class:`~repro.pipeline.tables.LeanPipeline` — a
state id and register history, no occupancy timeline. The first query
the tables cannot answer moves the stream onto the interpreted walker,
rebuilt from the lean state
(:meth:`~repro.pipeline.tables.LeanPipeline.to_state`), for the rest of
the stream. Either way every answer equals the interpreted walker's.

An enabled recorder keeps the stream on the interpreted walker from the
start, because hazard attribution reads the occupancy timeline.
"""

from __future__ import annotations

from dataclasses import replace

from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, Recorder
from ..spawn.model import InstructionTiming, MachineModel
from .diagnose import Hazard, explain_stall
from .stalls import issue, stall_query
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
        # :meth:`query` + :meth:`commit`, fused: this is trace timing's
        # per-instruction hot path.
        lean = self.lean
        if lean is not None:
            timing = self.model.timing(inst)
            try:
                cycle, next_sid = lean.query(self.cycle, timing)
                lean.commit(timing, cycle, next_sid)
            except TableMiss:
                self._leave_tables()
            else:
                self.cycle = cycle
                return cycle
        return self._walk(inst)

    def query(self, timing: InstructionTiming) -> tuple[int, int | None]:
        """The earliest (absolute) cycle at or after :attr:`cycle` an
        instruction of ``timing`` can issue, plus the token
        :meth:`commit` takes to issue it there. Issues nothing."""
        lean = self.lean
        if lean is not None:
            try:
                return lean.query(self.cycle, timing)
            except TableMiss:
                self._leave_tables()
        base = self.base
        return self.cycle + stall_query(self.cycle - base, self.state, timing), None

    def commit(self, inst: Instruction, hit: tuple[int, int | None]) -> int:
        """Issue ``inst`` given ``hit``, what :meth:`query` answered for
        it since the last issue; returns its (absolute) issue cycle."""
        lean = self.lean
        if lean is not None:
            cycle, next_sid = hit
            try:
                lean.commit(self.model.timing(inst), cycle, next_sid)
            except TableMiss:
                self._leave_tables()
            else:
                self.cycle = cycle
                return cycle
        return self._walk(inst)

    def explain(self, inst: Instruction) -> Hazard | None:
        """The first hazard keeping ``inst`` from issuing at
        :attr:`cycle`, or None (see
        :func:`~repro.pipeline.diagnose.explain_stall`). On the tables
        the question is put to an interpreted state rebuilt for it; the
        stream itself is unchanged."""
        if self.lean is not None:
            state, base = self.lean.to_state(self.model), self.lean.origin
        else:
            state, base = self.state, self.base
        hazard = explain_stall(self.cycle - base, state, inst)
        return hazard if hazard is None else replace(hazard, cycle=hazard.cycle + base)

    def _leave_tables(self) -> None:
        # A TableMiss leaves the lean stream unchanged: continue it as
        # an interpreted state.
        lean = self.lean
        self.state = lean.to_state(self.model)
        self.base = lean.origin
        self._drain = lean.drain
        self.lean = None

    def _walk(self, inst: Instruction) -> int:
        base = self.base
        result = issue(self.cycle - base, self.state, inst, self.recorder)
        self.cycle = cycle = result.issue_cycle + base
        if result.completion_cycle + base > self._drain:
            self._drain = result.completion_cycle + base
        return cycle
