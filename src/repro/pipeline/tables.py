"""Compiled stall-transition tables: the interpreted walker as data.

``pipeline_stalls`` is the inner loop of every scheduling decision and
is re-evaluated per candidate per cycle. Spawn already collapses
instructions with identical resource traces into timing groups
(:class:`~repro.spawn.model.MachineModel`); this module pushes that to
its conclusion: it enumerates the *structural* pipeline states a
machine can reach and compiles a transition table

    ``(state-id, timing-group) -> (fit offset, next-state-id)``

so the scheduler's hot path becomes dictionary lookups with no interval
arithmetic.

Why the table only needs the structural dimension
-------------------------------------------------
Every register hazard in :func:`repro.pipeline.stalls._fits` is a
monotone lower bound on the start cycle: ``RAW`` requires
``start >= write_cy[reg] - rel``, ``WAW`` requires
``start >= write_cy[reg] - rel``, and ``WAR`` requires
``start >= last_read[reg] + 1 - rel``. A check that passes at ``s``
therefore passes at every later cycle, so the earliest legal issue is
the first *structural* fit at or after the register lower bound — and
structural occupancy is a pure function of (current state, timing
group). Register history stays in the per-stream dictionaries exactly
as in the interpreted walker.

State encoding and bounds
-------------------------
A state is the tuple of per-cycle free-unit rows relative to the
current cycle, trimmed of trailing idle rows. No trace event occurs
more than ``window - 1`` cycles after issue (``window`` = the largest
group's ``max_event_cycle + 1``), so occupancy never extends more than
``window`` cycles past the last issue and every state has at most
``window`` rows — the "issue width × max latency × unit counts" bound.
The *reachable* subset of that space is still far too large to
enumerate eagerly on real machines (the shipped SPARC models blow
through 100k states while a breadth-first frontier is still growing),
so the compiler is demand-driven: a small deterministic breadth-first
prefix is compiled at attach time (and persisted under the model's
content digest so parallel workers and later processes reuse it), and
every state actually visited during scheduling is interned and its
transitions memoized on first use. Once ``budget`` distinct states have
been interned, new states stop being recorded and queries from unknown
states fall back to the interpreted walker (counted as
``pipeline.table_fallbacks``); tracking resumes for free once the
pipeline drains.

Transitions are *computed by the interpreted walker itself* — a scratch
:class:`~repro.pipeline.state.PipelineState` is loaded with the state's
rows and searched with the group's trace — so table and interpreter
agree by construction; the differential battery in
``tests/pipeline/test_table_differential.py`` enforces it end to end.
"""

from __future__ import annotations

import json
import os
import tempfile

from ..isa.registers import code_reg, reg_code
from ..spawn.model import InstructionTiming, MachineModel
from .state import PipelineState

#: Default cap on distinct interned states per model. Real workloads
#: visit far fewer (hundreds to a few thousand); the cap bounds memory
#: on adversarial inputs.
DEFAULT_BUDGET = 50_000

#: Default number of states pre-enumerated breadth-first at attach
#: time. This prefix is deterministic, so it is what the on-disk cache
#: stores and what every worker process starts from.
DEFAULT_EAGER_STATES = 256

#: Bits of a transition key that hold the timing group. Groups are
#: formed per (mnemonic, immediate-use) variant, so a machine has a few
#: hundred at most.
GROUP_BITS = 16

#: On-disk cache format version (bump on any layout change).
_CACHE_VERSION = 2

#: Environment override for the on-disk table cache directory.
CACHE_DIR_ENV = "REPRO_TABLE_CACHE_DIR"


def _default_cache_dir() -> str:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return os.path.join(tempfile.gettempdir(), f"repro-tables-{uid}")


class PipelineTables:
    """Interned structural states + memoized transitions for one model.

    ``keys[sid]`` is the canonical row tuple of state ``sid`` (state 0
    is the empty machine); ``transitions[sid << GROUP_BITS | group]``
    maps a state and timing group to ``(fit, next_sid)`` where ``fit``
    is the offset of the earliest structural fit from the queried cycle
    and ``next_sid`` the state after committing there (None when the
    successor was past the budget — the stall answer is still valid,
    only tracking is lost).

    Storage is compact because lazy learning on a long experiment
    interns thousands of states: every distinct per-cycle row is one
    shared tuple (the states hold many times more rows than there are
    distinct ones), and the transitions are one flat map keyed by the
    (state, group) pair packed into one int.
    """

    def __init__(self, model: MachineModel, *, budget: int = DEFAULT_BUDGET) -> None:
        self.model = model
        self.budget = budget
        self.window = self._window(model)
        self.capacity = tuple(model.unit_capacity)
        self.keys: list[tuple] = [()]
        self.ids: dict[tuple, int] = {(): 0}
        #: row tuple -> its one shared instance, for every state key.
        self.rows: dict[tuple, tuple] = {}
        self.advance: list[int | None] = [0]  # empty advances to itself
        self.transitions: dict[int, tuple[int, int | None]] = {}
        #: True once an intern was refused because of the budget.
        self.exhausted = False
        #: group id -> prepared events for the group's bare trace.
        self._group_prepared: dict[int, object] = {}
        #: how many states the on-disk cache entry held when these
        #: tables were compiled/loaded (0 when no disk cache is in
        #: play); :func:`persist_learned` compares against it.
        self.persisted_states = 0
        #: where :func:`compile_tables` read/wrote the disk entry, so
        #: lazily learned states can be persisted back to the same file.
        self.cache_path: str | None = None

    @staticmethod
    def _window(model: MachineModel) -> int:
        spans = [
            model.group_trace(g).max_event_cycle + 1
            for g in range(model.group_count)
        ]
        return max(spans, default=1)

    @property
    def states(self) -> int:
        return len(self.keys)

    # -- interning -----------------------------------------------------------

    def _intern(self, key: tuple) -> int | None:
        sid = self.ids.get(key)
        if sid is not None:
            return sid
        if len(self.keys) >= self.budget:
            self.exhausted = True
            return None
        sid = len(self.keys)
        rows = self.rows
        key = tuple([rows.setdefault(row, row) for row in key])
        self.ids[key] = sid
        self.keys.append(key)
        self.advance.append(None)
        return sid

    def intern_from_state(self, state: PipelineState, origin: int) -> int | None:
        """Intern the live occupancy of ``state`` at/after ``origin``."""
        free = state._free
        length = len(free)
        capacity = self.capacity
        rows = [
            tuple(free[c]) if c < length else capacity
            for c in range(origin, origin + self.window)
        ]
        while rows and rows[-1] == capacity:
            rows.pop()
        return self._intern(tuple(rows))

    def advance_to(self, sid: int, cycles: int) -> int | None:
        """The state ``cycles`` idle cycles after state ``sid``."""
        keys = self.keys
        advance = self.advance
        while cycles > 0:
            key = keys[sid]
            if not key:
                return sid  # empty stays empty
            if cycles >= len(key):
                return 0  # all occupancy expires
            nxt = advance[sid]
            if nxt is None:
                nxt = self._intern(key[1:])
                if nxt is None:
                    return None
                advance[sid] = nxt
            sid = nxt
            cycles -= 1
        return sid

    # -- transitions ---------------------------------------------------------

    def lookup(self, sid: int, group: int) -> tuple[int, int | None] | None:
        """The transition for issuing ``group`` from state ``sid``,
        learning (and memoizing) it on first use. None only when the
        group's trace does not fit the compiled window (cannot happen
        for groups known at attach time)."""
        transition = self.transitions.get(sid << GROUP_BITS | group)
        if transition is None:
            transition = self._learn(sid, group)
            if transition is None:
                return None
            self.transitions[sid << GROUP_BITS | group] = transition
        return transition

    def _learn(self, sid: int, group: int) -> tuple[int, int | None] | None:
        from .stalls import _prepare_uncached, _search

        trace = self.model.group_trace(group)
        if trace.max_event_cycle + 1 > self.window:
            # A timing group formed after the tables were compiled, with
            # a longer trace than the window bound: its successors would
            # violate the row-count invariant, so it stays interpreted.
            return None
        prepared = self._group_prepared.get(group)
        if prepared is None:
            bare = InstructionTiming(group=group, trace=trace, reads=(), writes=())
            prepared = _prepare_uncached(bare)
            self._group_prepared[group] = prepared
        scratch = PipelineState(self.model, use_tables=False)
        scratch._free = [list(row) for row in self.keys[sid]]
        fit = _search(0, scratch, prepared)
        from .stalls import _materialize

        for interval in _materialize(fit, 0, prepared).intervals:
            scratch.commit_interval(interval)
        next_sid = self.intern_from_state(scratch, fit)
        return fit, next_sid

    # -- eager enumeration ---------------------------------------------------

    def enumerate(self, max_states: int) -> None:
        """Breadth-first enumeration from the empty machine: intern up
        to ``max_states`` states and memoize every transition among
        them. Deterministic, so the result is safe to persist and share
        under the model's content digest."""
        limit = min(max_states, self.budget)
        groups = list(range(self.model.group_count))
        frontier = 0
        while frontier < len(self.keys) and len(self.keys) < limit:
            sid = frontier
            key = self.keys[sid]
            if key and self.advance[sid] is None:
                self.advance[sid] = self._intern(key[1:])
            for group in groups:
                if (sid << GROUP_BITS | group) not in self.transitions:
                    transition = self._learn(sid, group)
                    if transition is not None:
                        self.transitions[sid << GROUP_BITS | group] = transition
                if len(self.keys) >= limit:
                    break
            frontier += 1
        # Enumeration stopping at `limit` is not budget exhaustion: the
        # lazy path may still intern states up to `budget`.
        self.exhausted = len(self.keys) >= self.budget

    # -- persistence ---------------------------------------------------------

    def _groups_fingerprint(self) -> str:
        """Order-sensitive digest of the group-id -> trace-signature
        assignment. Group ids are handed out in formation order, so a
        model that scheduled before the tables were attached can number
        the same signatures differently than a freshly built one; a
        persisted table is only valid under the exact assignment it was
        compiled with."""
        import hashlib

        signatures = [
            self.model.group_trace(g).signature()
            for g in range(self.model.group_count)
        ]
        return hashlib.sha256(repr(signatures).encode()).hexdigest()[:16]

    def indexed_rows(self) -> tuple[list[tuple], list[list[int]]]:
        """The distinct rows, in first-use order, and every state key
        as a list of indices into them."""
        index: dict[tuple, int] = {}
        keys = [
            [index.setdefault(row, len(index)) for row in key]
            for key in self.keys
        ]
        return list(index), keys

    def payload(self) -> dict:
        """The JSON-serializable table content: every interned state and
        memoized transition, eager prefix and lazily learned alike.
        (The eager prefix is deterministic; learned states depend on
        what was scheduled, but every persisted transition was computed
        by the interpreted walker, so any superset is equally valid.)
        The layout mirrors the in-memory storage: each distinct row is
        written once and a state lists its rows by index."""
        rows, keys = self.indexed_rows()
        return {
            "version": _CACHE_VERSION,
            "window": self.window,
            "capacity": list(self.capacity),
            "groups": self.model.group_count,
            "groups_sig": self._groups_fingerprint(),
            "rows": [list(row) for row in rows],
            "keys": keys,
            "advance": self.advance,
            "transitions": sorted(
                [*divmod(key, 1 << GROUP_BITS), fit, next_sid]
                for key, (fit, next_sid) in self.transitions.items()
            ),
        }

    def load_payload(self, payload: dict) -> bool:
        """Adopt a persisted prefix; False when it does not match this
        model (stale format, different group set or unit inventory)."""
        if (
            payload.get("version") != _CACHE_VERSION
            or payload.get("window") != self.window
            or tuple(payload.get("capacity", ())) != self.capacity
            or payload.get("groups") != self.model.group_count
            or payload.get("groups_sig") != self._groups_fingerprint()
        ):
            return False
        rows = [tuple(row) for row in payload["rows"]]
        keys = [tuple(rows[index] for index in key) for key in payload["keys"]]
        if not keys or keys[0] != ():
            return False
        if len(keys) > self.budget:
            keys = keys[: self.budget]
        known = len(keys)
        self.keys = keys
        self.ids = {key: sid for sid, key in enumerate(keys)}
        self.rows = {row: row for row in rows}
        self.advance = [
            sid if sid is not None and sid < known else None
            for sid in payload["advance"][:known]
        ]
        self.advance[0] = 0
        self.transitions = {
            sid << GROUP_BITS | group: (
                fit,
                next_sid if (next_sid is None or next_sid < known) else None,
            )
            for sid, group, fit, next_sid in payload["transitions"]
            if sid < known
        }
        return True


class TableMiss(Exception):
    """A lean table walk hit a state the tables cannot serve; the
    stream continues on the interpreted walker (see
    :meth:`LeanPipeline.to_state`)."""


def _lean_accesses(
    timing: InstructionTiming,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int]:
    """The timing's register accesses with each :class:`Reg` replaced
    by a dense int code, plus the cycles from issue to pipeline exit,
    memoized on the timing object. The coding is a bijection, so the
    lean history dictionaries partition streams exactly as the
    Reg-keyed ones do."""
    try:
        return timing._lean
    except AttributeError:
        lean = (
            tuple((reg_code(reg), rel) for reg, rel in timing.reads),
            tuple((reg_code(reg), rel) for reg, rel in timing.writes),
            timing.trace.max_event_cycle + 1,
        )
        object.__setattr__(timing, "_lean", lean)
        return lean


class LeanPipeline:
    """Table-only pipeline stream: state id + register history, no
    occupancy timeline, no interval arithmetic.

    This is the promise of the compiled tables made literal — an issue
    is a couple of dictionary lookups plus register-history updates.
    No occupancy rows are maintained, so the moment a query cannot be
    served from the tables (:class:`TableMiss`) the caller continues on
    the :class:`~repro.pipeline.state.PipelineState` :meth:`to_state`
    rebuilds from this stream. The register
    lower-bound logic mirrors
    :func:`repro.pipeline.stalls._table_query`, and the commit mirrors
    :func:`repro.pipeline.stalls.issue`'s history updates, so lean and
    full runs are byte-identical where both complete.
    """

    __slots__ = ("tables", "sid", "origin", "write_cy", "read_cy", "drain")

    def __init__(self, tables: PipelineTables) -> None:
        self.tables = tables
        self.sid = 0
        self.origin = 0
        #: reg code -> cycle its latest written value becomes usable.
        self.write_cy: dict = {}
        #: reg code -> latest cycle the reg was read.
        self.read_cy: dict = {}
        #: cycle after the latest pipeline exit of any committed issue.
        self.drain = 0

    def query(self, cycle: int, timing: InstructionTiming) -> tuple[int, int | None]:
        """Earliest issue cycle >= ``cycle`` for ``timing``, plus the
        table state after committing there. Raises :class:`TableMiss`
        when the tables cannot answer."""
        reads, writes, _span = _lean_accesses(timing)
        lb = cycle
        write_cy = self.write_cy
        read_cy = self.read_cy
        for code, rel in reads:  # RAW
            t = write_cy.get(code, 0) - rel
            if t > lb:
                lb = t
        for code, rel in writes:  # WAW / WAR
            t = write_cy.get(code, 0) - rel
            if t > lb:
                lb = t
            t = read_cy.get(code, -1) + 1 - rel
            if t > lb:
                lb = t
        tables = self.tables
        sid = self.sid
        if lb > self.origin:
            sid = tables.advance_to(sid, lb - self.origin)
            if sid is None:
                raise TableMiss
        group = timing.group
        transition = tables.transitions.get(sid << GROUP_BITS | group)
        if transition is None:
            transition = tables.lookup(sid, group)
            if transition is None:
                raise TableMiss
        fit, next_sid = transition
        return lb + fit, next_sid

    def commit(
        self, timing: InstructionTiming, issue_cycle: int, next_sid: int | None
    ) -> None:
        """Commit an issue previously answered by :meth:`query` at the
        same stream position."""
        if next_sid is None:
            raise TableMiss  # successor was past the interning budget
        self.sid = next_sid
        self.origin = issue_cycle
        reads, writes, span = _lean_accesses(timing)
        read_cy = self.read_cy
        write_cy = self.write_cy
        for code, rel in reads:
            cycle = issue_cycle + rel
            if cycle > read_cy.get(code, -1):
                read_cy[code] = cycle
        for code, rel in writes:
            write_cy[code] = issue_cycle + rel
        if issue_cycle + span > self.drain:
            self.drain = issue_cycle + span

    def to_state(self, model: MachineModel) -> PipelineState:
        """The interpreted state this stream stands for, rebased so
        that its cycle 0 is absolute cycle ``origin``: the rows of
        ``keys[sid]`` placed from cycle 0 and the register history
        shifted by ``-origin``. Every query on the stream is at or
        after ``origin`` and every hazard bound is a difference of two
        cycles, so the interpreted walker gives the same answers,
        shifted, as this stream would have."""
        state = PipelineState(model)
        state._free = [list(row) for row in self.tables.keys[self.sid]]
        origin = self.origin
        state.write_cy = {
            code_reg(code): cycle - origin for code, cycle in self.write_cy.items()
        }
        state.read_cy = {
            code_reg(code): cycle - origin for code, cycle in self.read_cy.items()
        }
        if state.tables is not None:
            # Same tables: the state id stays valid; other tables must
            # relearn it from the rows.
            state.sid = self.sid if state.tables is self.tables else None
        return state


def _cache_path(digest: str, directory: str) -> str:
    return os.path.join(directory, f"tables-{digest}-v{_CACHE_VERSION}.json")


def _expand_variants(model: MachineModel) -> None:
    """Form every timing group the ISA can produce, so the group set —
    and therefore the compiled table content — is complete and
    deterministic before enumeration."""
    from ..isa.opcodes import all_mnemonics

    for mnemonic in all_mnemonics():
        if not model.evaluator.has_sem(mnemonic):
            continue
        for uses_imm in (False, True):
            model._variant(mnemonic, uses_imm)


def compile_tables(
    model: MachineModel,
    *,
    budget: int = DEFAULT_BUDGET,
    eager_states: int = DEFAULT_EAGER_STATES,
    cache_dir: str | None = None,
    use_disk_cache: bool = True,
) -> PipelineTables:
    """Compile (or load from the content-addressed disk cache) the
    transition tables for ``model``, without attaching them.

    The eager prefix is persisted under the model's content digest
    (:func:`repro.parallel.fingerprint.model_digest`) when the model
    records its SADL source, so parallel workers and later processes
    skip recompilation.
    """
    from ..parallel.fingerprint import model_digest

    _expand_variants(model)
    tables = PipelineTables(model, budget=budget)
    path = None
    if use_disk_cache and model.source is not None:
        path = _cache_path(model_digest(model), cache_dir or _default_cache_dir())
    loaded = False
    if path is not None and os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = tables.load_payload(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            loaded = False
        if not loaded:  # corrupt or stale: recompile below
            tables = PipelineTables(model, budget=budget)
    if not loaded:
        tables.enumerate(eager_states)
        if path is not None:
            _atomic_write(path, tables.payload())
    if path is not None:
        tables.cache_path = path
        tables.persisted_states = tables.states
    return tables


def attach_tables(
    model: MachineModel,
    *,
    budget: int = DEFAULT_BUDGET,
    eager_states: int = DEFAULT_EAGER_STATES,
    cache_dir: str | None = None,
    use_disk_cache: bool = True,
) -> PipelineTables:
    """Compile (or load) transition tables and attach them to ``model``.

    Every :class:`~repro.pipeline.state.PipelineState` built for the
    model afterwards routes stall walks through the tables; schedules
    are byte-identical to the interpreted walker. Re-attaching replaces
    any previous tables. See :func:`compile_tables` for the caching
    behavior.
    """
    tables = compile_tables(
        model,
        budget=budget,
        eager_states=eager_states,
        cache_dir=cache_dir,
        use_disk_cache=use_disk_cache,
    )
    model.tables = tables
    return tables


def detach_tables(model: MachineModel) -> None:
    """Return ``model`` to the interpreted walker."""
    model.tables = None


#: Don't bother persisting fewer than this many newly learned states:
#: re-learning them costs less than a cache write is worth.
PERSIST_MIN_GROWTH = 64


def persist_learned(
    model: MachineModel, *, min_growth: int = PERSIST_MIN_GROWTH
) -> bool:
    """Write states learned lazily *during scheduling* back to the
    disk cache, so the next process to attach this model's tables
    starts with them instead of re-learning.

    The eager BFS prefix covers the structurally common states, but a
    real workload's first pass still interns on the order of a thousand
    additional states (`pipeline.table_fallbacks` territory) — work
    that was previously redone by every fresh worker process. Persisting
    is last-writer-wins with a size guard: if the on-disk entry already
    holds at least as many states (another worker got there first),
    nothing is written. Returns True when a write happened. No-ops
    when the model's tables did not come through the disk cache, and
    after a successful persist until another ``min_growth`` states are
    learned — steady state writes nothing.
    """
    tables = model.tables
    if tables is None or tables.cache_path is None:
        return False
    if tables.states - tables.persisted_states < min_growth:
        return False
    try:
        with open(tables.cache_path, "r", encoding="utf-8") as handle:
            on_disk = len(json.load(handle).get("keys", ()))
    except (OSError, ValueError, TypeError):
        on_disk = 0
    if on_disk >= tables.states:
        tables.persisted_states = tables.states
        return False
    _atomic_write(tables.cache_path, tables.payload())
    tables.persisted_states = tables.states
    return True


def _atomic_write(path: str, payload: dict) -> None:
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        # A read-only or full cache directory only costs recompilation.
        pass
