"""Differential battery: table-only trace and block timing vs the
interpreted walker.

With compiled tables attached and no recorder, ``timed_run`` and
``BlockSimulator.time_block`` issue every instruction on a
:class:`~repro.pipeline.tables.LeanPipeline` stream and move to the
interpreted walker on the first :class:`~repro.pipeline.tables.TableMiss`
(:class:`~repro.pipeline.stream.IssueStream`). Either way every field
must equal what a model without tables reports. Each machine runs twice:
with default tables, and with a budget so small that the miss path runs
on nearly every stream.
"""

import pytest

import repro.evaluation.experiment as experiment
from repro.evaluation.experiment import ExperimentConfig, run_profiling_experiment
from repro.pipeline import BlockSimulator, timed_run
from repro.pipeline.stream import IssueStream
from repro.pipeline.tables import attach_tables
from repro.spawn import load_superscalar
from repro.spawn.library import MACHINES, description_text, load_machine_from_source
from repro.workloads import WorkloadSpec, generate

WIDTHS = (1, 2, 4)
#: A budget the eager prefix fills at once, so lean streams miss.
TINY_BUDGET = 6

_SPECS = (
    WorkloadSpec(
        name="lean-int", seed=31, kind="int", avg_block_size=6.0, loops=3, trip_count=6
    ),
    WorkloadSpec(
        name="lean-fp", seed=32, kind="fp", avg_block_size=14.0, loops=3, trip_count=6
    ),
)


def _build(machine):
    if isinstance(machine, int):
        return load_superscalar(machine)
    # A private model: attaching here must not leak into the shared
    # load_machine() instances other tests use.
    return load_machine_from_source(description_text(machine), machine)


@pytest.fixture(scope="module")
def programs():
    return [generate(spec) for spec in _SPECS]


@pytest.fixture(scope="module", params=[*MACHINES, *WIDTHS])
def machine(request):
    return request.param


@pytest.fixture(scope="module", params=["default", "tiny"])
def models(request, machine):
    """(model with tables attached, model without tables)."""
    tabled = _build(machine)
    if request.param == "tiny":
        attach_tables(
            tabled, budget=TINY_BUDGET, eager_states=TINY_BUDGET, use_disk_cache=False
        )
    else:
        attach_tables(tabled, use_disk_cache=False)
    return tabled, _build(machine)


def _streams(programs):
    """The empty stream, then every block body of the programs, alone
    and back to back (the optimizer's steady-state score times a block
    twice)."""
    yield []
    for program in programs:
        for block in program.cfg.blocks:
            body = list(block.instructions())
            yield body
            yield body + body


def test_timed_run_matches_interpreted(models, programs):
    tabled, plain = models
    for program in programs:
        lean = timed_run(tabled, program.executable)
        reference = timed_run(plain, program.executable)
        assert lean.cycles == reference.cycles
        assert lean.instructions == reference.instructions


def test_time_block_matches_interpreted(models, programs):
    tabled, plain = models
    lean_sim = BlockSimulator(tabled)
    reference_sim = BlockSimulator(plain)
    for body in _streams(programs):
        lean = lean_sim.time_block(body)
        reference = reference_sim.time_block(body)
        assert lean.issue_cycles == reference.issue_cycles
        assert lean.drain_cycles == reference.drain_cycles
        assert lean.stall_cycles == reference.stall_cycles
        assert lean.issue_times == reference.issue_times


def test_streams_take_the_expected_path(models, programs):
    """Default tables carry every stream table-only; the tiny budget
    sends streams down the miss path (so the tests above cover it)."""
    tabled, _plain = models
    finished_lean = []
    for body in _streams(programs):
        stream = IssueStream(tabled)
        for inst in body:
            stream.issue(inst)
        finished_lean.append(stream.lean is not None)
    if tabled.tables.budget == TINY_BUDGET:
        assert not all(finished_lean)
    else:
        assert all(finished_lean)


@pytest.mark.parametrize("name", ["129.compress", "101.tomcatv"])
def test_experiment_cycles_identical_with_and_without_tables(name, monkeypatch):
    """The paper's experiment attaches tables on first use; cycle triples
    must equal a run that is kept on the interpreted walker."""
    attached = _build("ultrasparc")
    with_tables = run_profiling_experiment(
        name, ExperimentConfig(machine=attached, trip_count=10)
    )
    assert attached.tables is not None

    monkeypatch.setattr(experiment, "attach_tables", lambda model: None)
    detached = _build("ultrasparc")
    without = run_profiling_experiment(
        name, ExperimentConfig(machine=detached, trip_count=10)
    )
    assert detached.tables is None

    def triple(row):
        return (row.uninstrumented_cycles, row.instrumented_cycles, row.scheduled_cycles)

    assert triple(with_tables) == triple(without)
