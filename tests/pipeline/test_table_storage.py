"""Compact storage of the compiled stall-transition tables.

States share their per-cycle row tuples, transitions live in one flat
map keyed by the packed ``(state, group)`` pair, and the on-disk payload
mirrors that layout. These tests pin the layout's consequences: shared
rows, a payload that round-trips exactly, a stale cache file that is
recompiled rather than misread, and a generated ``codegen --tables``
module that still answers like the library walker.
"""

import json

import pytest

from repro.parallel.fingerprint import model_digest
from repro.pipeline import PipelineState, issue
from repro.pipeline.tables import (
    _CACHE_VERSION,
    DEFAULT_EAGER_STATES,
    GROUP_BITS,
    PipelineTables,
    _cache_path,
    attach_tables,
    compile_tables,
)
from repro.spawn.codegen import compile_machine
from repro.spawn.library import MACHINES, description_text, load_machine_from_source
from repro.workloads import WorkloadSpec, generate


def _fresh_model(machine="ultrasparc"):
    return load_machine_from_source(description_text(machine), machine)


def _straight_line(length=300):
    program = generate(
        WorkloadSpec(name="storage", seed=41, kind="fp", avg_block_size=12.0, loops=4)
    )
    body = [
        inst
        for block in program.cfg.blocks
        for inst in block.instructions()
        if not inst.is_control
    ]
    return body[:length]


def _interpreted_cycles(model, instructions):
    state = PipelineState(model, use_tables=False)
    cycle = 0
    cycles = []
    for inst in instructions:
        cycle = issue(cycle, state, inst).issue_cycle
        cycles.append(cycle)
    return cycles


def _learned_tables():
    """A model whose tables learned states past the eager prefix."""
    model = _fresh_model()
    tables = attach_tables(model, use_disk_cache=False)
    state = PipelineState(model)
    cycle = 0
    for inst in _straight_line():
        cycle = issue(cycle, state, inst).issue_cycle
    assert tables.states > DEFAULT_EAGER_STATES
    return model, tables


def test_state_keys_share_row_objects():
    _model, tables = _learned_tables()
    refs = [row for key in tables.keys for row in key]
    assert len({id(row) for row in refs}) == len(tables.rows) < len(refs)
    for row in refs:
        assert tables.rows[row] is row


def test_payload_round_trips_exactly():
    model, tables = _learned_tables()
    payload = json.loads(json.dumps(tables.payload()))
    assert payload["version"] == _CACHE_VERSION
    assert len(payload["keys"]) == tables.states
    loaded = PipelineTables(model)
    assert loaded.load_payload(payload)
    assert loaded.keys == tables.keys
    assert loaded.advance == tables.advance
    assert loaded.transitions == tables.transitions


def _old_layout_payload(tables, version):
    """The per-state layout the cache used before rows were shared."""
    table_of = [{} for _ in tables.keys]
    for key, (fit, next_sid) in tables.transitions.items():
        sid, group = divmod(key, 1 << GROUP_BITS)
        table_of[sid][group] = (fit, next_sid)
    return {
        "version": version,
        "window": tables.window,
        "capacity": list(tables.capacity),
        "groups": tables.model.group_count,
        "groups_sig": tables._groups_fingerprint(),
        "keys": [[list(row) for row in key] for key in tables.keys],
        "advance": tables.advance,
        "transitions": [
            sorted((g, fit, nxt) for g, (fit, nxt) in table.items())
            for table in table_of
        ],
    }


@pytest.mark.parametrize("version", [_CACHE_VERSION - 1, _CACHE_VERSION])
def test_stale_cache_file_is_recompiled(tmp_path, version):
    """A cache file in the previous layout — whether it says so in its
    version field or not — is recompiled and overwritten, never read
    as if it were current."""
    _model, learned = _learned_tables()
    model = _fresh_model()
    path = _cache_path(model_digest(model), str(tmp_path))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_old_layout_payload(learned, version), handle)

    tables = compile_tables(model, cache_dir=str(tmp_path))
    assert tables.states == DEFAULT_EAGER_STATES
    with open(path, encoding="utf-8") as handle:
        rewritten = json.load(handle)
    assert rewritten["version"] == _CACHE_VERSION
    assert "rows" in rewritten

    model.tables = tables
    sequence = _straight_line(120)
    expected = _interpreted_cycles(model, sequence)
    state = PipelineState(model)
    cycle = 0
    for inst, want in zip(sequence, expected):
        cycle = issue(cycle, state, inst).issue_cycle
        assert cycle == want


@pytest.mark.parametrize("machine", MACHINES)
def test_generated_table_module_matches_library(machine):
    """``codegen --tables`` renders the compact storage; the generated
    module must name the same states and issue at the same cycles."""
    model = _fresh_model(machine)
    module = compile_machine(model, tables=True, use_disk_cache=False)
    tables = compile_tables(model, use_disk_cache=False)
    assert list(module.TABLE_KEYS) == tables.keys
    assert len(module.TABLE_ROWS) == len(set(module.TABLE_ROWS))

    sequence = _straight_line()
    expected = _interpreted_cycles(model, sequence)
    state = module.GeneratedPipelineState()
    cycle = 0
    hits = 0
    for inst, want in zip(sequence, expected):
        hits += state.sid is not None
        cycle = module.issue(cycle, state, inst)
        assert cycle == want, str(inst)
    assert hits > 0
