"""Differential battery: the list scheduler's forward pass in every mode.

The forward pass answers its stall queries from compiled tables while
they answer, from the interpreted walker otherwise, and prices every
ready candidate when decision telemetry or a provenance log is attached.
None of that may change a pick. Over seeded random regions, every
priority policy on every shipped machine and on synthetic 1/2/4-wide
machines must give the identical ``order``, ``original_cycles``,
``scheduled_cycles`` and ``scheduler.*`` decision telemetry under each
setup below, and the identical ``exit_cycle`` when a random prefix is
threaded in as the entry state.
"""

import functools
import random

import pytest

from repro.core.dependence import PRIORITY_FUNCTIONS, SchedulingPolicy
from repro.core.list_scheduler import ListScheduler
from repro.isa import Instruction, f, r
from repro.obs.provenance import ProvenanceLog
from repro.obs.recorder import MetricsRecorder
from repro.pipeline.stream import IssueStream
from repro.pipeline.tables import attach_tables
from repro.spawn import load_superscalar
from repro.spawn.library import MACHINES, description_text, load_machine_from_source

WIDTHS = (1, 2, 4)
#: A budget the eager prefix fills at once, so the tables stop
#: answering part-way through a region.
TINY_BUDGET = 6
REGIONS = 14
SEED = 4099

#: (name, tables, recorder?, provenance?). ``tables`` is "default",
#: "tiny" or None (no tables attached).
SETUPS = (
    ("tables", "default", False, False),
    ("tables+recorder", "default", True, False),
    ("no-tables", None, False, False),
    ("no-tables+recorder", None, True, False),
    ("provenance", "default", False, True),
    ("provenance+recorder", "default", True, True),
    ("tiny", "tiny", False, False),
    ("tiny+recorder", "tiny", True, False),
)

_WORK = (1, 2, 3, 4, 5, 16, 17, 18)
_FP = (0, 2, 4, 6, 8)


def _instruction(rng: random.Random) -> Instruction:
    kind = rng.choice(
        ("alu", "alu", "imm", "ld", "st", "sethi", "cc", "fp", "fp", "fdiv")
    )
    g = [r(rng.choice(_WORK)) for _ in range(3)]
    d = [f(rng.choice(_FP)) for _ in range(3)]
    if kind == "alu":
        mnemonic = rng.choice(("add", "sub", "xor", "sll"))
        return Instruction(mnemonic, rd=g[0], rs1=g[1], rs2=g[2])
    if kind == "imm":
        return Instruction("add", rd=g[0], rs1=g[1], imm=rng.randrange(32))
    if kind in ("ld", "st"):
        return Instruction(kind, rd=g[0], rs1=r(30), imm=4 * rng.randrange(8))
    if kind == "sethi":
        return Instruction("sethi", rd=g[0], imm=rng.randrange(1, 0x1000))
    if kind == "cc":
        return Instruction("subcc", rd=r(0), rs1=g[1], imm=1)
    if kind == "fp":
        mnemonic = rng.choice(("faddd", "fmuld", "fsubd"))
        return Instruction(mnemonic, rd=d[0], rs1=d[1], rs2=d[2])
    return Instruction("fdivd", rd=d[0], rs1=d[1], rs2=d[2])


def _regions(seed: int) -> list[tuple[list[Instruction], list[Instruction]]]:
    """(prefix, region) pairs; the prefix is the entry state's history."""
    rng = random.Random(seed)
    out = []
    for _ in range(REGIONS):
        prefix = [_instruction(rng) for _ in range(rng.randrange(0, 6))]
        region = [_instruction(rng) for _ in range(rng.randrange(1, 15))]
        out.append((prefix, region))
    return out


@functools.cache
def _model(machine, tables):
    # A private model: attaching here must not leak into the shared
    # load_machine() instances other tests use. Setups share it: the
    # tables it learns can change the cost of a query, never its answer.
    if isinstance(machine, int):
        model = load_superscalar(machine)
    else:
        model = load_machine_from_source(description_text(machine), machine)
    if tables == "tiny":
        attach_tables(
            model, budget=TINY_BUDGET, eager_states=TINY_BUDGET, use_disk_cache=False
        )
    elif tables == "default":
        attach_tables(model, use_disk_cache=False)
    return model


def _schedule(scheduler, region, prefix):
    """Schedule ``region`` from an empty pipeline (``prefix`` None) or
    on an entry stream that has issued ``prefix``."""
    if prefix is None:
        return scheduler.schedule_region(list(region))
    entry = IssueStream(scheduler.model)
    for inst in prefix:
        entry.issue(inst)
    result = scheduler.schedule_region(list(region), entry=entry)
    assert entry.cycle == result.exit_cycle
    return result


def _decision_telemetry(recorder):
    snapshot = recorder.metrics.snapshot()
    return {
        kind: {
            name: cells
            for name, cells in snapshot[kind].items()
            if name.startswith("scheduler.")
        }
        for kind in ("counters", "histograms")
    }


def _run(machine, policy, setup, cases, threaded):
    _name, tables, with_recorder, with_log = setup
    model = _model(machine, tables)
    recorder = MetricsRecorder() if with_recorder else None
    log = ProvenanceLog() if with_log else None
    scheduling = SchedulingPolicy(priority=policy)
    scheduler = ListScheduler(model, scheduling, recorder, provenance=log)
    outcomes = []
    for prefix, region in cases:
        result = _schedule(scheduler, region, prefix if threaded else None)
        outcomes.append(
            (
                result.order,
                result.original_cycles,
                result.scheduled_cycles,
                result.exit_cycle,
            )
        )
    telemetry = _decision_telemetry(recorder) if recorder is not None else None
    return outcomes, telemetry, log


@pytest.fixture(scope="module")
def cases():
    return _regions(SEED)


@pytest.mark.parametrize("threaded", [False, True], ids=["empty", "entry"])
@pytest.mark.parametrize("policy", PRIORITY_FUNCTIONS)
@pytest.mark.parametrize("machine", [*MACHINES, *WIDTHS])
def test_forward_pass_identical_in_every_setup(machine, policy, threaded, cases):
    runs = {setup[0]: _run(machine, policy, setup, cases, threaded) for setup in SETUPS}
    reference, telemetry, _log = runs["tables+recorder"]
    assert telemetry["counters"], "decision telemetry was not recorded"
    for name, (outcomes, other_telemetry, log) in runs.items():
        assert outcomes == reference, f"{name} diverged from tables+recorder"
        if other_telemetry is not None:
            assert other_telemetry == telemetry, f"{name} decision telemetry diverged"
        if log is not None:
            # The log holds one placement per scheduled instruction, in
            # schedule order.
            picks = [[p.index for p in region.placements] for region in log.regions]
            assert picks == [order for order, *_ in outcomes]
    if threaded:
        assert all(exit_cycle is not None for *_, exit_cycle in reference)
    else:
        assert all(exit_cycle is None for *_, exit_cycle in reference)


def _ready_lists(graph, order):
    """The ready list before each pick, in the order its members
    became ready: the roots by index, then each pick's newly freed
    successors."""
    remaining = [len(preds) for preds in graph.preds]
    ready = [i for i in range(graph.size) if remaining[i] == 0]
    for pick in order:
        yield list(ready)
        ready.remove(pick)
        for succ in graph.succs[pick]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                ready.append(succ)


@pytest.mark.parametrize("policy", PRIORITY_FUNCTIONS)
@pytest.mark.parametrize("machine", MACHINES)
def test_provenance_lists_rejections_in_ready_order(machine, policy, cases):
    log = ProvenanceLog()
    scheduler = ListScheduler(
        _model(machine, "default"), SchedulingPolicy(priority=policy), provenance=log
    )
    for _prefix, region in cases:
        result = scheduler.schedule_region(list(region))
        placements = log.regions[-1].placements
        readies = _ready_lists(result.graph, result.order)
        for placement, ready in zip(placements, readies):
            assert [c.index for c in placement.rejected] == [
                i for i in ready if i != placement.index
            ]


@pytest.mark.parametrize("policy", PRIORITY_FUNCTIONS)
@pytest.mark.parametrize("machine", MACHINES)
def test_provenance_identical_with_and_without_tables(machine, policy, cases):
    """Rejected candidates and the hazards that priced them do not
    depend on which oracle answered the stall queries."""
    logs = []
    for tables in ("default", "tiny", None):
        setup = ("provenance", tables, False, True)
        _outcomes, _telemetry, log = _run(machine, policy, setup, cases, threaded=True)
        logs.append([region.placements for region in log.regions])
    assert logs[0] == logs[1] == logs[2]
    assert any(p.rejected for placements in logs[0] for p in placements)


@pytest.mark.parametrize("machine", [*MACHINES, *WIDTHS])
def test_tiny_budget_leaves_the_tables_mid_region(machine, cases):
    """The tiny-budget setup is not vacuous: some region's stream
    starts on the tables and leaves them before its end."""
    model = _model(machine, "tiny")
    left = False
    for _prefix, region in cases:
        stream = IssueStream(model)
        stream.issue(region[0])
        if stream.lean is None:
            continue
        for inst in region[1:]:
            stream.issue(inst)
        left = left or stream.lean is None
    assert left
