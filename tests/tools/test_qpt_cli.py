"""CLI tests: every subcommand end to end, on real RXE files."""

import json

import pytest

from repro.tools.qpt_cli import main
from repro.workloads import sum_loop


@pytest.fixture
def program(tmp_path):
    kernel = sum_loop(12)
    path = tmp_path / "sum.rxe"
    path.write_bytes(kernel.executable.to_bytes())
    return path, kernel


def test_instrument_and_run_with_profile(tmp_path, program, capsys):
    path, kernel = program
    out = tmp_path / "sum.qpt.rxe"
    assert main(["instrument", str(path), "-o", str(out), "--schedule"]) == 0
    captured = capsys.readouterr().out
    assert "instrumented" in captured
    assert out.exists() and (tmp_path / "sum.qpt.rxe.json").exists()

    sidecar = json.loads((tmp_path / "sum.qpt.rxe.json").read_text())
    assert sidecar["counters"]

    assert (
        main(["run", str(out), "--profile", str(out) + ".json"]) == 0
    )
    captured = capsys.readouterr().out
    assert "block execution counts" in captured
    # The loop block ran 12 times.
    assert any(": 12" in line for line in captured.splitlines())
    # %o1 holds the sum 1..12 = 78 = 0x4e.
    assert "%o1 = 0x0000004e" in captured


def test_instrument_no_schedule(tmp_path, program):
    path, _ = program
    out = tmp_path / "plain.rxe"
    assert main(["instrument", str(path), "-o", str(out), "--no-skip"]) == 0


def test_time_command(program, capsys):
    path, _ = program
    assert main(["time", str(path), "--machine", "supersparc"]) == 0
    out = capsys.readouterr().out
    assert "cycles on supersparc" in out
    assert "IPC" in out


def test_disasm_command(program, capsys):
    path, _ = program
    assert main(["disasm", str(path)]) == 0
    out = capsys.readouterr().out
    assert "subcc" in out
    assert "bne" in out


def test_validate_command(capsys):
    assert main(["validate", "--machine", "hypersparc"]) == 0
    assert "clean" in capsys.readouterr().out


def test_codegen_command(tmp_path, capsys):
    out = tmp_path / "ps.py"
    assert main(["codegen", "--machine", "ultrasparc", "-o", str(out)]) == 0
    source = out.read_text()
    compile(source, str(out), "exec")
    assert "GROUP_ACQUIRES" in source


def test_scheduled_binary_is_faster(tmp_path, program, capsys):
    path, _ = program
    plain = tmp_path / "plain.rxe"
    sched = tmp_path / "sched.rxe"
    main(["instrument", str(path), "-o", str(plain)])
    main(["instrument", str(path), "-o", str(sched), "--schedule"])
    capsys.readouterr()

    main(["time", str(plain)])
    plain_cycles = int(capsys.readouterr().out.split()[1])
    main(["time", str(sched)])
    sched_cycles = int(capsys.readouterr().out.split()[1])
    assert sched_cycles <= plain_cycles


def test_run_profile_missing_sidecar_fails_clearly(program, capsys):
    path, _ = program
    missing = str(path) + ".json"
    assert main(["run", str(path), "--profile", missing]) == 2
    err = capsys.readouterr().err
    assert "profile sidecar" in err
    assert missing in err  # names the expected <out>.json path
    assert "instrument" in err


def test_time_stats_prints_attribution_and_phases(program, capsys):
    path, _ = program
    assert main(["time", str(path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "stall attribution" in out
    for kind in ("structural=", "raw=", "waw=", "war="):
        assert kind in out
    assert "phase timings" in out
    assert "pipeline.timed_run" in out


def test_time_trace_writes_chrome_trace(tmp_path, program, capsys):
    path, _ = program
    trace = tmp_path / "t.json"
    assert main(["time", str(path), "--trace", str(trace)]) == 0
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e.get("name") == "pipeline.timed_run" for e in events)
    assert all({"ph", "pid", "tid"} <= e.keys() for e in events)


def test_time_stats_does_not_change_cycles(program, capsys):
    path, _ = program
    main(["time", str(path)])
    plain_cycles = capsys.readouterr().out.split()[1]
    main(["time", str(path), "--stats"])
    stats_cycles = capsys.readouterr().out.split()[1]
    assert plain_cycles == stats_cycles


@pytest.mark.parametrize("machine", ["hypersparc", "supersparc", "ultrasparc"])
def test_time_stats_matches_table_timing(tmp_path, machine, capsys, monkeypatch):
    """With compiled tables attached, plain ``qpt time`` times the run
    table-only while ``--stats`` keeps the interpreted walker for hazard
    attribution; both must report the same cycle count."""
    import repro.tools.qpt_cli as qpt_cli
    from repro.pipeline.tables import attach_tables
    from repro.spawn.library import description_text, load_machine_from_source
    from repro.workloads import WorkloadSpec, generate

    model = load_machine_from_source(description_text(machine), machine)
    attach_tables(model, use_disk_cache=False)
    monkeypatch.setattr(qpt_cli, "load_machine", lambda name: model)
    program = generate(
        WorkloadSpec(name="cli-time", seed=7, kind="fp", avg_block_size=10.0, loops=3)
    )
    path = tmp_path / "prog.rxe"
    path.write_bytes(program.executable.to_bytes())

    assert main(["time", str(path), "--machine", machine]) == 0
    plain_cycles = capsys.readouterr().out.split()[1]
    assert main(["time", str(path), "--machine", machine, "--stats"]) == 0
    stats_out = capsys.readouterr().out
    assert "stall attribution" in stats_out
    assert stats_out.split()[1] == plain_cycles


def test_instrument_stats_reports_scheduler_decisions(tmp_path, program, capsys):
    path, _ = program
    out = tmp_path / "sum.qpt.rxe"
    assert (
        main(["instrument", str(path), "-o", str(out), "--schedule", "--stats"])
        == 0
    )
    captured = capsys.readouterr().out
    assert "scheduler decisions" in captured
    assert "decided by" in captured
    assert "core.forward_pass" in captured


def test_chart_command(program, capsys):
    path, _ = program
    assert main(["chart", str(path), "--block", "1"]) == 0
    out = capsys.readouterr().out
    assert "issue cycles" in out
    assert "LSU" in out


def test_chart_block_out_of_range(program, capsys):
    path, _ = program
    assert main(["chart", str(path), "--block", "99"]) == 1
    assert "out of range" in capsys.readouterr().out


def test_garbage_input_prints_typed_error(tmp_path, capsys):
    bad = tmp_path / "bad.rxe"
    bad.write_bytes(b"this is not an executable image")
    assert main(["disasm", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "RXE" in err
    assert "Traceback" not in err


def test_truncated_input_prints_typed_error(tmp_path, program, capsys):
    path, _ = program
    bad = tmp_path / "trunc.rxe"
    bad.write_bytes(path.read_bytes()[:-7])
    assert main(["time", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "truncated" in err


def test_safe_requires_schedule(tmp_path, program, capsys):
    path, _ = program
    out = tmp_path / "x.rxe"
    assert main(["instrument", str(path), "-o", str(out), "--safe"]) == 2
    assert "--safe/--strict require --schedule" in capsys.readouterr().err


def test_instrument_safe_reports_clean_guard(tmp_path, program, capsys):
    path, _ = program
    out = tmp_path / "safe.rxe"
    assert (
        main(["instrument", str(path), "-o", str(out), "--schedule", "--safe"])
        == 0
    )
    captured = capsys.readouterr().out
    assert "guarded scheduling: 0 quarantined" in captured
    assert out.exists()

    # --safe and --schedule produce byte-identical output when nothing
    # is quarantined.
    plain = tmp_path / "plain.rxe"
    assert (
        main(["instrument", str(path), "-o", str(plain), "--schedule"]) == 0
    )
    capsys.readouterr()
    assert out.read_bytes() == plain.read_bytes()


def test_instrument_safe_custom_seed(tmp_path, program, capsys):
    path, _ = program
    out = tmp_path / "seeded.rxe"
    assert (
        main(
            [
                "instrument", str(path), "-o", str(out),
                "--schedule", "--safe", "--verify-seed", "42",
            ]
        )
        == 0
    )
    assert "verify seed 42" in capsys.readouterr().out


def test_faults_command_synthetic(capsys):
    assert main(["faults", "--synthetic-width", "2"]) == 0
    out = capsys.readouterr().out
    assert "all injected faults caught" in out
    assert "bit-flip" in out


def test_lint_description_clean(capsys):
    assert main(["lint", "--machine", "hypersparc", "--fail-on", "warning"]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) >= 8
    assert any(line.startswith("sadl/") for line in lines)
    assert any(line.startswith("image/") for line in lines)
    assert any(line.startswith("isa/") for line in lines)


def test_lint_image_json(program, capsys):
    path, _ = program
    assert main(["lint", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert set(payload["summary"]) == {"info", "warning", "error"}
    assert any(rule.startswith("image/") for rule in payload["rules"])


def test_lint_sarif_output_file(tmp_path, program, capsys):
    path, _ = program
    out = tmp_path / "lint.sarif"
    assert main(["lint", str(path), "--format", "sarif", "-o", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    sarif = json.loads(out.read_text())
    assert sarif["version"] == "2.1.0"
    rules = sarif["runs"][0]["tool"]["driver"]["rules"]
    assert any(r["id"].startswith("image/") for r in rules)


def test_lint_sadl_file_fails_on_leak(tmp_path, capsys):
    bad = tmp_path / "leaky.sadl"
    bad.write_text("unit Group 1\nsem [ nop ] is A Group, D 1\n")
    assert main(["lint", "--sadl", str(bad), "--partial"]) == 1
    out = capsys.readouterr().out
    assert "sadl/unit-leak" in out


def test_lint_fail_on_threshold(tmp_path, capsys):
    # Only warnings: default --fail-on error passes, warning fails.
    warn = tmp_path / "warn.sadl"
    warn.write_text("unit ALU 1\nsem [ nop ] is AR ALU, D 1\n")
    assert main(["lint", "--sadl", str(warn), "--partial"]) == 0
    capsys.readouterr()
    assert (
        main(["lint", "--sadl", str(warn), "--partial", "--fail-on", "warning"])
        == 1
    )


def test_lint_disable_rule(tmp_path, capsys):
    warn = tmp_path / "warn.sadl"
    warn.write_text("unit ALU 1\nsem [ nop ] is AR ALU, D 1\n")
    assert (
        main(
            [
                "lint", "--sadl", str(warn), "--partial",
                "--fail-on", "warning",
                "--disable", "sadl/unbounded-width",
            ]
        )
        == 0
    )


def test_lint_unknown_rule_is_typed_error(capsys):
    assert main(["lint", "--disable", "sadl/typo"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown rule" in err


def test_lint_stats_reports_findings(tmp_path, capsys):
    warn = tmp_path / "warn.sadl"
    warn.write_text("unit ALU 1\nsem [ nop ] is AR ALU, D 1\n")
    assert main(["lint", "--sadl", str(warn), "--partial", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "lint findings" in out


def test_instrument_safe_counts_static_passes(tmp_path, program, capsys):
    path, _ = program
    out = tmp_path / "safe.rxe"
    assert (
        main(
            [
                "instrument", str(path), "-o", str(out),
                "--schedule", "--safe", "--stats",
            ]
        )
        == 0
    )
    captured = capsys.readouterr().out
    assert "static pre-verifier" in captured
    assert "blocks proven statically" in captured


def test_docstring_covers_every_subcommand_and_new_flags():
    import argparse

    import repro.tools.qpt_cli as cli

    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name in subparsers.choices:
        assert name in cli.__doc__, f"docstring does not mention {name!r}"
    for flag in ("--jobs", "--cache", "--safe", "--fail-on"):
        assert flag in cli.__doc__, f"docstring does not mention {flag!r}"


def test_every_registered_flag_in_subcommand_help():
    import argparse

    import repro.tools.qpt_cli as cli

    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in subparsers.choices.items():
        text = sub.format_help()
        for action in sub._actions:
            for option in action.option_strings:
                assert option in text, f"{name} --help misses {option}"


def test_instrument_superblock(tmp_path, program, capsys):
    path, kernel = program
    out = tmp_path / "sb.rxe"
    assert (
        main(
            [
                "instrument",
                str(path),
                "-o",
                str(out),
                "--schedule",
                "--superblock",
            ]
        )
        == 0
    )
    captured = capsys.readouterr().out
    assert "superblocks:" in captured
    assert out.exists()
    assert main(["run", str(out)]) == 0
    captured = capsys.readouterr().out
    # Still computes sum(1..12) = 78 = 0x4e.
    assert "%o1 = 0x0000004e" in captured


def test_superblock_requires_schedule(tmp_path, program, capsys):
    path, _ = program
    out = tmp_path / "sb.rxe"
    assert main(["instrument", str(path), "-o", str(out), "--superblock"]) == 2
    assert "--superblock requires --schedule" in capsys.readouterr().err


# -- observability: explain / report / gate / ledger ------------------------------


def test_explain_names_rejected_candidate_with_hazard(program, capsys):
    path, _ = program
    assert main(["explain", str(path), "--block", "0"]) == 0
    out = capsys.readouterr().out
    assert "block 0" in out
    assert "issued cycle" in out
    assert "rejected" in out
    # At least one rejection priced by a named hazard or an explicit
    # priority loss — the decision log explains every loser.
    assert "hazard" in out or "lost on priority" in out


def test_explain_json_is_machine_readable(program, capsys):
    path, _ = program
    assert main(["explain", str(path), "--block", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    placements = [
        p for r in payload["regions"] for p in r["placements"]
    ]
    assert placements
    assert any(p["rejected"] for p in placements)


def test_explain_block_out_of_range(program, capsys):
    path, _ = program
    assert main(["explain", str(path), "--block", "99"]) == 1
    assert "out of range" in capsys.readouterr().out


def test_stats_format_json(program, capsys):
    path, _ = program
    assert main(["time", str(path), "--stats", "--stats-format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert "hazards" in payload and "counters" in payload
    assert set(payload["hazards"]) == {"structural", "raw", "waw", "war"}


def _seed_ledger(path, values, metric="scheduled_cycles"):
    from repro.obs import append_record, make_record

    for i, value in enumerate(values):
        append_record(
            path,
            make_record(
                "benchmarks",
                run={"benchmark": "seed 11", "machine": "ultrasparc"},
                wall_s=1.0,
                results={metric: value},
                sha="0" * 40,
                unix=float(i),
            ),
        )


def test_benchmarks_gate_passes_in_band(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _seed_ledger(ledger, [1000, 1001, 999, 1002, 1000])
    assert main(["benchmarks", "gate", "--ledger", str(ledger)]) == 0
    assert "within their noise bands" in capsys.readouterr().out


def test_benchmarks_gate_fails_on_injected_regression(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _seed_ledger(ledger, [1000, 1001, 999, 1002, 1400])
    assert main(["benchmarks", "gate", "--ledger", str(ledger)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "scheduled_cycles" in out


def test_benchmarks_gate_warn_only_exits_zero(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _seed_ledger(ledger, [1000, 1001, 999, 1002, 1400])
    assert (
        main(["benchmarks", "gate", "--ledger", str(ledger), "--warn-only"])
        == 0
    )
    assert "warn-only" in capsys.readouterr().out


def test_benchmarks_gate_missing_ledger(tmp_path, capsys):
    missing = tmp_path / "none.jsonl"
    assert main(["benchmarks", "gate", "--ledger", str(missing)]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_report_text_and_html(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _seed_ledger(ledger, [1000, 1001, 999])
    assert main(["report", "--ledger", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "run ledger: 3 record(s)" in out
    assert "seed 11@ultrasparc" in out

    html = tmp_path / "obs.html"
    assert (
        main(
            [
                "report",
                "--ledger",
                str(ledger),
                "--format",
                "html",
                "-o",
                str(html),
            ]
        )
        == 0
    )
    text = html.read_text()
    assert text.startswith("<!doctype html>")
    assert "regression observatory" in text


def test_report_missing_ledger(tmp_path, capsys):
    assert main(["report", "--ledger", str(tmp_path / "no.jsonl")]) == 2
    assert "does not exist" in capsys.readouterr().err


def _tear_tail(path, nbytes=25):
    with open(path, "r+b") as handle:
        handle.truncate(path.stat().st_size - nbytes)


def test_report_recovers_torn_ledger_with_warning(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _seed_ledger(ledger, [1000, 1001, 999])
    _tear_tail(ledger)
    assert main(["report", "--ledger", str(ledger)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "warning: recovered ledger" in captured.err
    assert "torn trailing record" in captured.err
    assert "run ledger: 2 record(s)" in captured.out
    assert (tmp_path / "ledger.quarantine.jsonl").exists()


def test_benchmarks_gate_recovers_torn_ledger_with_warning(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _seed_ledger(ledger, [1000, 1001, 999, 1002, 1000])
    _tear_tail(ledger)
    assert main(["benchmarks", "gate", "--ledger", str(ledger)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "warning: recovered ledger" in captured.err
    assert "within their noise bands" in captured.out


def test_chaos_command_storage_classes(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    rc = main(
        [
            "chaos",
            "--only", "torn-ledger", "bitflip-cache",
            "--ledger", str(ledger),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "contained" in out
    assert "appended chaos record" in out

    from repro.obs import read_ledger

    records = read_ledger(ledger)
    assert len(records) == 1
    record = records[0]
    assert record["kind"] == "chaos"
    assert record["results"]["clean"] is True
    assert record["results"]["escaped"] == 0
    assert record["results"]["injected"] >= 2


def test_chaos_rejects_unknown_fault_class(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "--only", "not-a-fault"])
    assert "invalid choice" in capsys.readouterr().err


def test_faults_chaos_flag_parses():
    import repro.tools.qpt_cli as cli

    args = cli.build_parser().parse_args(["faults", "--chaos"])
    assert args.chaos is True
    args = cli.build_parser().parse_args(["faults"])
    assert args.chaos is False


def test_faults_ledger_appends_record(tmp_path, capsys):
    from repro.obs import read_ledger

    ledger = tmp_path / "ledger.jsonl"
    rc = main(
        [
            "faults",
            "--synthetic-width",
            "2",
            "--ledger",
            str(ledger),
        ]
    )
    out = capsys.readouterr().out
    assert "appended faults record" in out
    records = read_ledger(ledger)
    assert len(records) == 1
    record = records[0]
    assert record["kind"] == "faults"
    assert record["results"]["injected"] > 0
    assert record["results"]["clean"] == (rc == 0)
    assert set(record["digests"]) == {"model", "policy", "context"}
    assert record["wall_s"] > 0


# -- verify: the static → symbolic → dynamic ladder as a command ------------------


def test_verify_reports_proven_rate(program, capsys):
    path, _ = program
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "statically-proven rate" in out
    assert "symbolic pass rate" in out
    assert "verification wall time" in out


def test_verify_json_payload(program, capsys):
    path, _ = program
    assert main(["verify", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["blocks"] > 0
    assert payload["refuted"] == 0
    assert payload["statically_proven_rate"] >= 0.97
    for key in ("symbolic_pass_rate", "wall_static_s", "wall_symbolic_s",
                "wall_dynamic_s"):
        assert key in payload


def test_verify_no_symbolic_still_verifies(program, capsys):
    path, _ = program
    assert main(["verify", str(path), "--no-symbolic"]) == 0
    payload_args = ["verify", str(path), "--no-symbolic", "--json"]
    capsys.readouterr()
    assert main(payload_args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["symbolic"] is False
    assert payload["symbolic_proven"] == 0


def test_verify_min_proven_gate_fails(program, capsys):
    path, _ = program
    assert main(["verify", str(path), "--min-proven", "1.01"]) == 1
    assert "below --min-proven" in capsys.readouterr().err


def test_verify_writes_ledger_record(tmp_path, program, capsys):
    path, _ = program
    ledger = tmp_path / "ledger.jsonl"
    assert main(["verify", str(path), "--ledger", str(ledger)]) == 0
    records = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert len(records) == 1
    record = records[0]
    assert record["kind"] == "verify"
    results = record["results"]
    assert results["statically_proven_rate"] >= 0.97
    assert {"blocks", "symbolic_pass_rate", "refuted"} <= set(results)


# -- lint --baseline: suppress known findings, fail only on new ones --------------


@pytest.fixture
def findings_image(tmp_path):
    # One image, two symex-powered findings: a dead store (info) and a
    # guaranteed misaligned trap (warning) — enough to trip --fail-on.
    from repro.workloads.kernels import _assemble

    exe = _assemble(
        """
            set 0x30000, %o2
            set 7, %o0
            st %o0, [%o2]
            st %o0, [%o2]
            set 0x30001, %o3
            lduh [%o3], %o1
            retl
            nop
        """
    )
    path = tmp_path / "findings.rxe"
    path.write_bytes(exe.to_bytes())
    return path


def test_lint_baseline_roundtrip(tmp_path, findings_image, capsys):
    baseline = tmp_path / "base.json"
    assert (
        main(
            [
                "lint",
                str(findings_image),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    assert "wrote baseline" in capsys.readouterr().out
    payload = json.loads(baseline.read_text())
    assert any("image/dead-store" in key for key in payload["findings"])
    assert any("image/guaranteed-trap" in key for key in payload["findings"])

    # With the baseline applied the known findings no longer trip the gate.
    assert (
        main(
            [
                "lint",
                str(findings_image),
                "--baseline",
                str(baseline),
                "--fail-on",
                "warning",
            ]
        )
        == 0
    )
    assert "suppressed by baseline" in capsys.readouterr().out


def test_lint_without_baseline_fails_on_warning(findings_image, capsys):
    assert main(["lint", str(findings_image), "--fail-on", "warning"]) == 1
    assert "image/guaranteed-trap" in capsys.readouterr().out


def test_lint_missing_baseline_is_an_error(tmp_path, findings_image, capsys):
    missing = tmp_path / "absent.json"
    assert main(["lint", str(findings_image), "--baseline", str(missing)]) != 0
