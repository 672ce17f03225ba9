import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdistill import cli, protocol
from hyperdistill import (
    FidelityVector,
    RunConfig,
    Transcript,
    audit,
    execute_run,
    parse_config,
)
from hyperdistill.cli import (
    CONFIG_KEY_TYPES,
    CSV_COLUMNS,
    _build_parser,
    main,
    run_sweep,
    serialize_report,
    write_transcript,
)

MIXED = FidelityVector(0.7, 0.1, 0.15, 0.05)


# --- parsing -----------------------------------------------------------------


def test_defaults():
    cfg = parse_config([])
    assert cfg.pairs == 1000
    assert cfg.fidelities.as_tuple() == (0.7, 0.1, 0.1, 0.1)
    assert cfg.dephase_p == 0.0
    assert cfg.homodyne_error == 0.0
    assert cfg.evil_bob_flip_p == 0.0
    assert cfg.seed == 0
    assert cfg.output_format == "json"
    assert cfg.emit_transcript is False
    assert cfg.sweep is None


def test_flag_parsing():
    cfg = parse_config(
        [
            "--pairs", "10",
            "--fidelities", "1,0,0,0",
            "--seed", "41",
            "--format", "csv",
            "--dephase-p", "0.25",
            "--evil-bob-flip-p", "0.5",
            "--homodyne-error", "0.1",
        ]
    )
    assert cfg.pairs == 10
    assert cfg.fidelities.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    assert cfg.seed == 41
    assert cfg.output_format == "csv"
    assert cfg.dephase_p == 0.25
    assert cfg.evil_bob_flip_p == 0.5
    assert cfg.homodyne_error == 0.1


def test_unnormalizable_fidelities_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["--fidelities", "0.5,0.5,0.5,0.5"])
    assert exc.value.code == 2
    assert "--fidelities" in capsys.readouterr().err


def test_out_of_range_value_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["--dephase-p", "1.5"])
    assert exc.value.code == 2
    assert "dephase_p 1.5 outside [0, 1]" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    # --theta, --alpha and --allow-audit-fail are listed because they were
    # removed for having no effect on a run
    for flag in ("--bogus", "--theta", "--alpha", "--allow-audit-fail"):
        with pytest.raises(SystemExit) as exc:
            parse_config([flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_non_numeric_fidelities_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["--fidelities", "a,b,c,d"])
    assert exc.value.code == 2
    assert "--fidelities: not numeric: 'a,b,c,d'" in capsys.readouterr().err


def test_config_file_holding_an_array_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps([{"pairs": 5}]))
    with pytest.raises(SystemExit) as exc:
        parse_config(["--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "--config: file must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ValueError, match=f"seed {seed} outside unsigned 64-bit range"):
        RunConfig(seed=seed)


def test_entropy_seed_is_printed_and_reproduces_the_run(tmp_path, capsys):
    drawn, rerun = tmp_path / "drawn.json", tmp_path / "rerun.json"
    assert main(["--pairs", "20", "--entropy", "--out", str(drawn)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("entropy seed: ")
    seed = int(err.splitlines()[0].removeprefix("entropy seed: "))
    assert json.loads(drawn.read_text())["config"]["seed"] == seed
    assert main(["--pairs", "20", "--seed", str(seed), "--out", str(rerun)]) == 0
    assert drawn.read_bytes() == rerun.read_bytes()


#: A non-default value of every RunConfig field that the run itself reads.
RUN_INPUTS = [
    ("pairs", 2001),
    ("fidelities", FidelityVector(0.6, 0.2, 0.1, 0.1)),
    ("dephase_p", 0.2),
    ("homodyne_error", 0.1),
    ("evil_bob_flip_p", 0.1),
    ("seed", 1),
]


def run_results(cfg: RunConfig) -> dict:
    doc = execute_run(cfg)[0]
    del doc["run_id"], doc["config"]
    return doc


def test_config_keys_match_the_run_flags():
    dests = {action.dest for action in _build_parser()._actions}
    assert set(CONFIG_KEY_TYPES) == dests - {"help", "config", "entropy", "sweep"}
    outputs = {"output_format", "out_path", "transcript_path", "sweep"}
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert fields - outputs == {name for name, _ in RUN_INPUTS}


@pytest.mark.parametrize("name, value", RUN_INPUTS)
def test_every_run_input_changes_the_results(name, value):
    base = RunConfig(pairs=2000)
    assert run_results(dataclasses.replace(base, **{name: value})) != run_results(base)


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps({"pairs": 77, "seed": 5, "fidelities": [0.9, 0.1, 0, 0]})
    )
    cfg = parse_config(["--config", str(cfg_path)])
    assert cfg.pairs == 77
    assert cfg.seed == 5
    assert cfg.fidelities.as_tuple() == (0.9, 0.1, 0.0, 0.0)
    overridden = parse_config(["--config", str(cfg_path), "--pairs", "11"])
    assert overridden.pairs == 11
    assert overridden.seed == 5


def test_sweep_with_transcript_rejected(tmp_path):
    with pytest.raises(SystemExit):
        parse_config(["--sweep", "3", "--transcript", "t.log"])
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"transcript": "t.log"}))
    with pytest.raises(SystemExit) as exc:
        parse_config(["--config", str(cfg_path), "--sweep", "3"])
    assert exc.value.code == 2


# --- execution ----------------------------------------------------------------


def test_noiseless_end_to_end():
    cfg = RunConfig(pairs=100, fidelities=FidelityVector(1, 0, 0, 0), seed=2)
    report, transcript = execute_run(cfg)
    assert report["phi_class_count"] == 100
    assert report["psi_class_count"] == 0
    assert report["mean_phi_pair_fidelity_phi_plus"] == pytest.approx(1.0, abs=1e-12)
    assert report["mean_psi_pair_fidelity_psi_plus"] is None
    assert report["analytic_phi_probability"] == pytest.approx(1.0, abs=1e-12)
    assert report["audit_passed"]
    assert report["class_mismatch_count"] == 0
    assert len(transcript.messages) == 6 * 100 + 1


def test_mixed_run_statistics():
    cfg = RunConfig(pairs=10_000, fidelities=MIXED, seed=1)
    report, _ = execute_run(cfg)
    assert report["analytic_phi_probability"] == pytest.approx(0.8, abs=1e-12)
    sigma = math.sqrt(0.8 * 0.2 / cfg.pairs)
    assert abs(report["phi_class_frequency"] - 0.8) <= 3 * sigma
    assert sum(report["angle_counts"].values()) == cfg.pairs


def test_evil_bob_report_semantics():
    cfg = RunConfig(
        pairs=60,
        fidelities=FidelityVector(1, 0, 0, 0),
        evil_bob_flip_p=1.0,
        seed=4,
    )
    report, _ = execute_run(cfg)
    # Alice sees only Psi-class pairs, yet the photons are perfect PhiPlus.
    assert report["psi_class_count"] == 60
    assert report["phi_class_count"] == 0
    assert report["class_mismatch_count"] == 60
    assert report["mean_phi_pair_fidelity_phi_plus"] == pytest.approx(1.0, abs=1e-12)
    assert report["mean_psi_pair_fidelity_psi_plus"] is None


def test_dephasing_degrades_phase_but_not_class():
    cfg = RunConfig(
        pairs=400,
        fidelities=FidelityVector(1, 0, 0, 0),
        dephase_p=0.5,
        seed=6,
    )
    report, _ = execute_run(cfg)
    assert report["phi_class_count"] == 400
    # dephased pairs distill into the other Phi state
    plus = report["mean_phi_pair_fidelity_phi_plus"]
    minus = report["mean_phi_pair_fidelity_phi_minus"]
    assert plus + minus == pytest.approx(1.0, abs=1e-12)
    assert 0.3 < minus < 0.7


# --- serialization ---------------------------------------------------------------


def test_json_report_roundtrip():
    cfg = RunConfig(pairs=50, fidelities=MIXED, seed=9)
    report, _ = execute_run(cfg)
    payload = serialize_report(report, "json")
    parsed = json.loads(payload.decode("utf-8"))
    assert parsed == report


def test_csv_report_schema_and_values():
    cfg = RunConfig(pairs=50, fidelities=MIXED, seed=9, output_format="csv")
    report, _ = execute_run(cfg)
    payload = serialize_report(report, "csv").decode("utf-8")
    rows = list(csv.reader(io.StringIO(payload)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert int(record["pairs"]) == 50
    assert float(record["f"]) == 0.7
    assert int(record["phi_class_count"]) == report["phi_class_count"]
    # numeric round trip at full precision
    assert float(record["analytic_phi_probability"]) == (
        report["analytic_phi_probability"]
    )
    assert float(record["phi_class_frequency"]) == report["phi_class_frequency"]
    assert record["audit_passed"] == "true"


def test_reports_and_transcripts_are_byte_identical():
    cfg = RunConfig(pairs=120, fidelities=MIXED, dephase_p=0.1, seed=33)
    report_a, transcript_a = execute_run(cfg)
    report_b, transcript_b = execute_run(cfg)
    assert serialize_report(report_a, "json") == serialize_report(report_b, "json")
    assert serialize_report(report_a, "csv") == serialize_report(report_b, "csv")
    assert transcript_a.to_bytes() == transcript_b.to_bytes()


def test_transcript_file_reparses_and_audits(tmp_path):
    cfg = RunConfig(pairs=25, fidelities=MIXED, seed=13)
    _, transcript = execute_run(cfg)
    path = tmp_path / "messages.log"
    write_transcript(transcript, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    reparsed = Transcript.from_lines(lines)
    assert audit(reparsed).passed
    assert reparsed.to_bytes() == transcript.to_bytes()


def test_emit_report_unwritable_destination():
    cfg = RunConfig(pairs=5, fidelities=MIXED, seed=1)
    report, _ = execute_run(cfg)
    from hyperdistill import emit_report

    with pytest.raises(OSError, match="no/such/dir"):
        emit_report(report, "json", "no/such/dir/report.json")


# --- main entry point ----------------------------------------------------------------


def test_main_writes_report_and_transcript(tmp_path):
    out = tmp_path / "report.json"
    log = tmp_path / "run.log"
    code = main(
        [
            "--pairs", "40",
            "--fidelities", "0.7,0.1,0.15,0.05",
            "--seed", "3",
            "--out", str(out),
            "--transcript", str(log),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pair_count"] == 40
    assert doc["audit_passed"] is True
    reparsed = Transcript.from_lines(log.read_text().splitlines())
    assert audit(reparsed).passed


def test_main_is_deterministic(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["--pairs", "30", "--seed", "17", "--out"]
    assert main(args + [str(out_a)]) == 0
    assert main(args + [str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_main_reports_io_failure(tmp_path, capsys):
    code = main(["--pairs", "5", "--out", str(tmp_path / "no" / "dir" / "x.json")])
    assert code == 1
    assert "cannot write report" in capsys.readouterr().err


def test_main_reports_transcript_io_failure(tmp_path, capsys):
    code = main(["--pairs", "5", "--transcript", str(tmp_path)])
    assert code == 1
    assert "cannot write transcript" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--sweep", "1"]])
def test_main_exits_1_when_the_audit_fails(monkeypatch, capsys, mode):
    failed = protocol.AuditReport(
        passed=False,
        violations=(protocol.Violation(protocol.VIOLATION_BOB_TO_BOB, 1, "Bob1 messaged Bob2"),),
    )
    monkeypatch.setattr(protocol, "audit", lambda transcript: failed)
    assert main(["--pairs", "5"] + mode) == 1
    assert "security audit FAILED" in capsys.readouterr().err


def test_main_reports_memory_error(monkeypatch, capsys):
    def out_of_memory(**kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli, "run_protocol", out_of_memory)
    assert main(["--pairs", "5"]) == 1
    assert "error: Unable to allocate 7.45 GiB" in capsys.readouterr().err


def test_main_csv_to_stdout(capsys):
    code = main(["--pairs", "20", "--seed", "8", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 2


# --- sweep ------------------------------------------------------------------------


def test_sweep_aggregate_and_audit():
    cfg = RunConfig(pairs=200, fidelities=MIXED, seed=0, sweep=3)
    doc = run_sweep(cfg)
    agg = doc["sweep_aggregate"]
    assert agg["seeds"] == 3
    assert len(doc["runs"]) == 3
    assert agg["audit_all_passed"] is True
    assert [r["config"]["seed"] for r in doc["runs"]] == [0, 1, 2]
    assert agg["analytic_phi_probability"] == pytest.approx(0.8, abs=1e-12)


def test_hundred_seed_sweep_within_four_sigma():
    # empirical frequency fluctuates with the seed; the analytic value
    # does not, and every run stays inside the 4-sigma band
    cfg = RunConfig(pairs=400, fidelities=MIXED, seed=0, sweep=100)
    doc = run_sweep(cfg)
    agg = doc["sweep_aggregate"]
    analytics = {r["analytic_phi_probability"] for r in doc["runs"]}
    assert analytics == {agg["analytic_phi_probability"]}
    freqs = [r["phi_class_frequency"] for r in doc["runs"]]
    assert len(set(freqs)) > 1
    assert agg["all_within_four_sigma"] is True


def test_sweep_verdict_tests_the_inferred_frequency():
    # homodyne misreads move Alice's Phi frequency from F + F1 = 0.8 to
    # 0.8 (1 - q) + 0.2 q with q = 2e(1 - e) = 0.32
    cfg = RunConfig(pairs=2000, homodyne_error=0.2, sweep=4)
    agg = run_sweep(cfg)["sweep_aggregate"]
    assert agg["analytic_phi_probability"] == pytest.approx(0.8, abs=1e-12)
    assert agg["expected_phi_frequency"] == pytest.approx(0.608, abs=1e-12)
    assert agg["four_sigma_band"] == pytest.approx(
        4 * math.sqrt(0.608 * 0.392 / 2000), abs=1e-12
    )
    assert agg["all_within_four_sigma"] is True


def test_sweep_parent_reads_the_runs_not_the_pair_table(monkeypatch):
    # the parent takes the analytic probability from the workers' reports,
    # so it never builds the table the workers run from
    cfg = RunConfig(
        pairs=300, fidelities=MIXED, dephase_p=0.05, homodyne_error=0.1,
        evil_bob_flip_p=0.1, sweep=3,
    )
    expected = run_sweep(cfg)
    reports = expected["runs"]

    class PrecomputedPool:
        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            assert [seed for _, seed in jobs] == [0, 1, 2]
            return iter(reports)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", PrecomputedPool)
    protocol.pair_table.cache_clear()
    assert run_sweep(cfg) == expected
    assert protocol.pair_table.cache_info().currsize == 0


def test_main_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["--pairs", "50", "--seed", "1", "--sweep", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["sweep_aggregate"]["seeds"] == 2


# --- input hardening ----------------------------------------------------------------


def test_sweep_seed_range_checked_before_running(capsys):
    argv = ["--seed", str(2**64 - 1), "--sweep", "2", "--pairs", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "64-bit" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--sweep", "2"]])
def test_pairs_beyond_one_draw_block_exit_2(capsys, mode):
    # four float64 uniforms per pair must fit one array; 10**20 pairs
    # fails the check before anything is allocated
    with pytest.raises(SystemExit) as exc:
        main(["--pairs", str(10**20)] + mode)
    assert exc.value.code == 2
    assert f"pairs {10**20} exceeds {protocol.MAX_PAIRS}" in capsys.readouterr().err
    assert protocol.MAX_PAIRS * protocol.DRAWS_PER_PAIR * 8 <= np.iinfo(np.intp).max
    RunConfig(pairs=protocol.MAX_PAIRS)
    with pytest.raises(ValueError, match="exceeds"):
        RunConfig(pairs=protocol.MAX_PAIRS + 1)


def test_sweep_may_end_on_the_last_seed():
    cfg = RunConfig(pairs=5, fidelities=MIXED, seed=2**64 - 2, sweep=2)
    doc = run_sweep(cfg)
    assert [r["config"]["seed"] for r in doc["runs"]] == [2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize(
    "content, message",
    [
        ({"fidelities": 0.5}, "'fidelities' must be list or str, got float"),
        ({"fidelities": [0.5, None, 0.25, 0.25]}, "'fidelities' must list numbers"),
        ({"fidelities": [True, 0, 0, 0]}, "'fidelities' must list numbers"),
        ({"fidelities": [1e400, 0, 0, 0]}, "outside [0, 1]"),
        ({"pair": 5, "sede": 3}, "unknown key 'pair'"),
        ({"sweep": 3}, "unknown key 'sweep'"),
        ({"pairs": None}, "'pairs' must be int, got NoneType"),
        ({"pairs": 5.5}, "'pairs' must be int, got float"),
        ({"pairs": True}, "'pairs' must be int, got bool"),
        ({"seed": "7"}, "'seed' must be int, got str"),
        ({"dephase_p": [1]}, "'dephase_p' must be int or float, got list"),
        ({"dephase_p": 10**400}, "int too large"),
        ({"out": 5}, "'out' must be str or null, got int"),
        ({"allow_audit_fail": False}, "unknown key 'allow_audit_fail'"),
        ({"theta": 0.5}, "unknown key 'theta'"),
        ({"alpha": 1000.0}, "unknown key 'alpha'"),
    ],
)
def test_bad_config_file_exits_2_naming_the_problem(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    with pytest.raises(SystemExit) as exc:
        parse_config(["--config", str(path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_undecodable_config_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(SystemExit) as exc:
        parse_config(["--config", str(path)])
    assert exc.value.code == 2


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
config_keys = st.sampled_from(sorted(CONFIG_KEY_TYPES)) | st.text(max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(config_keys, json_values, max_size=4))
def test_parse_config_fuzz_exits_0_or_2(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(content))
    try:
        cfg = parse_config(["--config", str(path)])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert isinstance(cfg, RunConfig)


def test_importing_the_package_leaves_the_cli_unloaded():
    code = (
        "import sys, hyperdistill\n"
        "assert 'hyperdistill.cli' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "from hyperdistill import RunConfig, emit_report, execute_run, main, parse_config\n"
        "from hyperdistill import cli\n"
        "assert (RunConfig, emit_report, execute_run, main, parse_config) == (\n"
        "    cli.RunConfig, cli.emit_report, cli.execute_run, cli.main, cli.parse_config)\n"
        "assert all(hasattr(hyperdistill, name) for name in hyperdistill.__all__)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
