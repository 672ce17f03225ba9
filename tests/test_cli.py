import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdistill import cli, protocol, wire
from hyperdistill import (
    DeviceParams,
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


#: A checked record, a field change its check refuses, the message, and the
#: record's repr, which is the one its fields were first declared with.
CHECKED_RECORDS = [
    (FidelityVector(0.7, 0.1, 0.1, 0.1), {"f": 0.8}, "weights sum to",
     "FidelityVector(f=0.7, f1=0.1, f2=0.1, f3=0.1)"),
    (DeviceParams(), {"homodyne_error": 0.5}, r"homodyne_error 0.5 outside \[0, 0.5\)",
     "DeviceParams(homodyne_error=0.0)"),
    (RunConfig(), {"pairs": 0}, "pairs 0 must be >= 1",
     "RunConfig(pairs=1000, fidelities=FidelityVector(f=0.7, f1=0.1, f2=0.1, f3=0.1), "
     "dephase_p=0.0, homodyne_error=0.0, evil_bob_flip_p=0.0, seed=0, output_format='json', "
     "out_path=None, transcript_path=None, sweep=None)"),
    (RunConfig(), {"homodyne_error": 0.5}, r"homodyne_error 0.5 outside \[0, 0.5\)", None),
]


@pytest.mark.parametrize("record, change, message, text", CHECKED_RECORDS,
                         ids=["FidelityVector", "DeviceParams", "RunConfig", "RunConfig device"])
def test_records_check_every_instance_and_stay_immutable(record, change, message, text):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **change}.values())
    with pytest.raises(ValueError, match=message):
        type(record)(**{**record._asdict(), **change})
    (name, value), = change.items()
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = value
    assert text is None or repr(record) == text


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


@pytest.mark.parametrize("source", ["flag", "config"])
def test_entropy_with_an_explicit_seed_rejected(tmp_path, source):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"seed": 5}))
    seed_args = ["--seed", "5"] if source == "flag" else ["--config", str(cfg_path)]
    code = (
        "import runpy, sys\n"
        "sys.argv = ['hyperdistill', *sys.argv[1:]]\n"
        "runpy.run_module('hyperdistill', run_name='__main__')\n"
    )
    result = run_python(code, "--pairs", "2", *seed_args, "--entropy")
    assert result.returncode == 2
    assert "--entropy: cannot be combined with a seed from --seed or --config" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


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
    fields = set(RunConfig._fields)
    assert fields - outputs == {name for name, _ in RUN_INPUTS}


def test_config_echoes_the_engine_version():
    # Not a config key: a run's outputs depend on it, so its run_id does.
    cfg = RunConfig(pairs=5, sweep=2)
    assert cfg.echo()["engine_version"] == protocol.ENGINE_VERSION == 2
    assert "engine_version" not in CONFIG_KEY_TYPES
    doc = run_sweep(cfg)
    assert [r["config"]["engine_version"] for r in doc["runs"]] == [2, 2]
    run_id = cfg.run_id()
    with mock.patch.object(cli, "ENGINE_VERSION", 3):
        assert cfg.echo()["engine_version"] == 3 and cfg.run_id() != run_id


@pytest.mark.parametrize("name, value", RUN_INPUTS)
def test_every_run_input_changes_the_results(name, value):
    base = RunConfig(pairs=2000)
    assert run_results(base._replace(**{name: value})) != run_results(base)


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
    cfg = RunConfig(pairs=100, fidelities=FidelityVector(1, 0, 0, 0), seed=2,
                    transcript_path="t.log")
    report, transcript = execute_run(cfg)
    assert report["phi_class_count"] == 100
    assert report["psi_class_count"] == 0
    assert report["mean_phi_pair_fidelity_phi_plus"] == pytest.approx(1.0, abs=1e-12)
    assert report["mean_psi_pair_fidelity_psi_plus"] is None
    assert report["analytic_phi_probability"] == pytest.approx(1.0, abs=1e-12)
    assert report["audit_passed"]
    assert report["class_mismatch_count"] == 0
    assert b"".join(transcript).count(b"\n") == 6 * 100 + 1


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
    cfg = RunConfig(pairs=120, fidelities=MIXED, dephase_p=0.1, seed=33,
                    transcript_path="t.log")
    report_a, transcript_a = execute_run(cfg)
    report_b, transcript_b = execute_run(cfg)
    assert serialize_report(report_a, "json") == serialize_report(report_b, "json")
    assert serialize_report(report_a, "csv") == serialize_report(report_b, "csv")
    assert b"".join(transcript_a) == b"".join(transcript_b)


@pytest.mark.parametrize("size", [1, 7])
def test_outputs_do_not_depend_on_the_chunk_size(size):
    # 1000 pairs are one chunk at the program's size.
    cfg = RunConfig(pairs=1000, fidelities=FidelityVector(0.5, 0, 0.5, 0),
                    homodyne_error=0.1, evil_bob_flip_p=0.1, seed=21, transcript_path="t.log")
    report, transcript = execute_run(cfg)
    with mock.patch.object(wire, "_BLOCK_LINES", size):
        chunked_report, chunked_transcript = execute_run(cfg)
        chunked_bytes = b"".join(chunked_transcript)  # rendered at the patched size
    assert serialize_report(chunked_report, "json") == serialize_report(report, "json")
    assert chunked_bytes == b"".join(transcript)


def test_transcript_file_reparses_and_audits(tmp_path):
    cfg = RunConfig(pairs=25, fidelities=MIXED, seed=13, transcript_path="t.log")
    path = tmp_path / "messages.log"
    write_transcript(execute_run(cfg)[1], str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    reparsed = Transcript.from_lines(lines)
    assert audit(reparsed).passed
    assert reparsed.to_bytes() == path.read_bytes() == b"".join(execute_run(cfg)[1])


def test_emit_report_unwritable_destination():
    cfg = RunConfig(pairs=5, fidelities=MIXED, seed=1)
    report, _ = execute_run(cfg)
    from hyperdistill.cli import emit_report

    with pytest.raises(OSError, match="no/such/dir"):
        emit_report(report, "json", "no/such/dir/report.json")


def test_report_to_a_closed_stdout_exits_1():
    # ``>&-`` starts the run with no file descriptor 1, so sys.stdout is None.
    code = (
        "import shlex, subprocess, sys\n"
        "command = shlex.quote(sys.executable) + ' -m hyperdistill --pairs 5 >&-'\n"
        "sys.exit(subprocess.run(command, shell=True).returncode)\n"
    )
    result = run_python(code)
    assert result.returncode == 1
    assert result.stderr == "error: cannot write report to stdout: it is closed\n"


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
    monkeypatch.setattr(cli, "run_audit", lambda m: failed)
    assert main(["--pairs", "5"] + mode) == 1
    assert "security audit FAILED" in capsys.readouterr().err


def test_main_reports_memory_error(monkeypatch, capsys):
    def out_of_memory(**kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli, "run_chunks", out_of_memory)
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
        def __init__(self, max_workers):
            pass

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


def limit_cpus(monkeypatch, cpus):
    """Let this process run on ``cpus`` CPUs; None stands for a platform
    that reports neither an affinity nor a CPU count."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("seeds, cpus, workers", [(2, 8, 2), (3, 2, 2), (3, None, 1)])
def test_sweep_pool_has_no_more_workers_than_seeds_or_cpus(
        tmp_path, monkeypatch, seeds, cpus, workers):
    # A pool forks all of its workers at once, whatever the task count.
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    out = tmp_path / "sweep.json"
    limit_cpus(monkeypatch, cpus)
    with mock.patch.object(cli, "ProcessPoolExecutor", SerialPool):
        assert main(["--pairs", "20", "--sweep", str(seeds), "--out", str(out)]) == 0
    assert asked == [workers]
    assert json.loads(out.read_text())["sweep_aggregate"]["seeds"] == seeds


def test_main_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["--pairs", "50", "--seed", "1", "--sweep", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["sweep_aggregate"]["seeds"] == 2


class SerialPool:
    """The pool's seam, mapped in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fork_pool_gives_the_serial_bytes_in_seed_order(monkeypatch, workers):
    # 5 seeds over 2 or 3 workers make uneven shares
    cfg = RunConfig(
        pairs=300, fidelities=MIXED, dephase_p=0.05, homodyne_error=0.1,
        evil_bob_flip_p=0.1, seed=11, sweep=5,
    )
    with mock.patch.object(cli, "ProcessPoolExecutor", SerialPool):
        serial = run_sweep(cfg)
    limit_cpus(monkeypatch, workers)
    forked = run_sweep(cfg)
    for output_format in ("json", "csv"):
        assert serialize_report(forked, output_format) == serialize_report(serial, output_format)
    assert_no_child_left()

    def tagged(job):  # a closure: only results are pickled
        return job + cfg.seed, os.getpid()

    with cli.ProcessPoolExecutor(max_workers=workers) as pool:
        values, pids = zip(*pool.map(tagged, range(5)))
    assert values == (11, 12, 13, 14, 15)
    assert os.getpid() not in pids
    # each worker ran one contiguous share
    assert len(set(pids)) == workers
    assert sum(a != b for a, b in zip(pids, pids[1:])) == workers - 1
    assert_no_child_left()


def _fail_on_seed_one(failure):
    def run(args):
        if args[1] == 1:
            if failure is None:
                os._exit(3)
            raise failure
        return cli.execute_run(args[0]._replace(seed=args[1], sweep=None))[0]

    return run


@pytest.mark.parametrize("failure", [OSError(5, "disk gone"), MemoryError("no room")])
def test_fork_pool_raises_a_worker_exception_again(failure):
    with pytest.raises(type(failure)) as raised:
        with cli.ProcessPoolExecutor(max_workers=2) as pool:
            pool.map(_fail_on_seed_one(failure), [(RunConfig(pairs=5), s) for s in range(4)])
    assert type(raised.value) is type(failure)
    assert str(raised.value) == str(failure)
    assert_no_child_left()


def test_fork_pool_worker_that_exits_without_results():
    with pytest.raises(ChildProcessError, match=r"^sweep worker \d+ .* \(exit status 3\)$"):
        with cli.ProcessPoolExecutor(max_workers=2) as pool:
            pool.map(_fail_on_seed_one(None), [(RunConfig(pairs=5), s) for s in range(4)])
    assert_no_child_left()


@pytest.mark.parametrize(
    "failure, message",
    [(OSError(5, "disk gone"), "disk gone"), (MemoryError("no room"), "no room"),
     (None, "(exit status 3)")],
    ids=["OSError", "MemoryError", "os._exit(3)"],
)
def test_main_sweep_worker_failure_exits_1(tmp_path, capsys, failure, message):
    out = tmp_path / "sweep.json"
    with mock.patch.object(cli, "_sweep_single", _fail_on_seed_one(failure)):
        assert main(["--pairs", "20", "--sweep", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()
    assert_no_child_left()


# --- input hardening ----------------------------------------------------------------


def test_sweep_seed_range_checked_before_running(capsys):
    argv = ["--seed", str(2**64 - 1), "--sweep", "2", "--pairs", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "64-bit" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--sweep", "2"]])
def test_pairs_beyond_max_pairs_exit_2(capsys, mode):
    # MAX_PAIRS keeps a run's 6 m + 1 transcript seqs, and every count
    # derived from the pair count, within intp; 10**20 pairs fails the
    # check before anything is allocated
    with pytest.raises(SystemExit) as exc:
        main(["--pairs", str(10**20)] + mode)
    assert exc.value.code == 2
    assert f"pairs {10**20} exceeds {protocol.MAX_PAIRS}" in capsys.readouterr().err
    assert 6 * protocol.MAX_PAIRS + 1 <= np.iinfo(np.intp).max
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


@pytest.mark.parametrize(
    "text", ["[" * 100_000 + "]" * 100_000, '{"pairs": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["nested array", "nested value under pairs"],
)
def test_deeply_nested_config_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        parse_config(["--config", str(path)])
    assert exc.value.code == 2
    assert "--config: cannot read" in capsys.readouterr().err


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
        "from hyperdistill import RunConfig, execute_run, main, parse_config\n"
        "from hyperdistill import cli\n"
        "from hyperdistill.cli import emit_report\n"
        "assert (RunConfig, emit_report, execute_run, main, parse_config) == (\n"
        "    cli.RunConfig, cli.emit_report, cli.execute_run, cli.main, cli.parse_config)\n"
        "assert all(hasattr(hyperdistill, name) for name in hyperdistill.__all__)\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr


#: Oracle internals and a CLI helper that the package does not serve;
#: their modules do.
UNSERVED_NAMES = ("EPS_NORM", "EPS_ORACLE", "DensityMatrix", "StateVector", "partial_trace",
                  "reorder_subsystems", "tensor", "emit_report")


def test_package_serves_its_names_lazily_from_their_modules():
    code = (
        "import importlib, sys, hyperdistill\n"
        "loaded = [name for name in sys.modules\n"
        "          if name.partition('.')[0] == 'numpy' or name.startswith('hyperdistill.')]\n"
        "assert not loaded, loaded\n"
        f"for name in {UNSERVED_NAMES!r}:\n"
        "    assert not hasattr(hyperdistill, name), name\n"
        "assert len(hyperdistill.__all__) == len(set(hyperdistill.__all__)) == 29\n"
        "assert set(hyperdistill.__all__) <= set(dir(hyperdistill))\n"
        "for name in hyperdistill.__all__:\n"
        "    module = importlib.import_module('hyperdistill.' + hyperdistill._MODULE_OF[name])\n"
        "    value = getattr(hyperdistill, name)\n"
        "    assert value is vars(module)[name], name\n"
        "    assert getattr(value, '__module__', module.__name__) == module.__name__, name\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports the package from where
    this process imported it: ``src``, or the copy that a mutant was applied to."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=60,
    )


#: Code that fails a fresh process which has loaded a module of the tensor
#: oracle: a run, a sweep's coordinator and a replay read only ``model``.
ORACLE_UNLOADED = (
    "oracle = {'hyperdistill.linalg', 'hyperdistill.states', 'hyperdistill.qnd'}\n"
    "assert not oracle & set(sys.modules), sorted(oracle & set(sys.modules))\n"
)


def test_single_run_leaves_the_process_pool_unloaded(tmp_path):
    # Run the package as ``python -m hyperdistill`` does, then look at what
    # the start imported: only a sweep needs the pool, and only a written
    # transcript needs the renderer.
    code = (
        "import runpy, sys\n"
        "sys.argv = ['hyperdistill', '--pairs', '1', '--out', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('hyperdistill', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "assert 'hyperdistill.cli' in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'hyperdistill.render' not in sys.modules\n"
        + ORACLE_UNLOADED
    )
    result = run_python(code, str(tmp_path / "report.json"))
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "report.json").read_text())["pair_count"] == 1


@pytest.mark.parametrize("seeds", [1, 2])
def test_sweep_coordinator_leaves_openssl_unloaded(tmp_path, seeds):
    # The parent of a sweep, of one seed too, parses the arguments, forks
    # the workers and writes the report: it hashes no run id and draws no
    # entropy, so OpenSSL (and numpy.random, which loads it) stays in the
    # workers.
    code = (
        "import runpy, sys\n"
        "sys.argv = ['hyperdistill', '--sweep', sys.argv[2], '--pairs', '50',\n"
        "            '--out', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('hyperdistill', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "found = loaded('_hashlib', 'hashlib', 'hmac', 'secrets', 'numpy.random')\n"
        "assert not found, found\n"
        + ORACLE_UNLOADED
    )
    result = run_python(LOADED + code, str(tmp_path / "report.json"), str(seeds))
    assert result.returncode == 0, result.stderr
    assert len(json.loads((tmp_path / "report.json").read_text())["runs"]) == seeds


#: Code that defines ``loaded(*names)``: the modules of ``names`` that this
#: process has loaded, and "libcrypto" when ``/proc/self/maps`` shows
#: OpenSSL mapped. A None entry in ``sys.modules`` blocks an import, so
#: it is not a loaded module.
LOADED = (
    "import os, sys\n"
    "def loaded(*names):\n"
    "    found = [name for name in names if sys.modules.get(name) is not None]\n"
    "    if os.path.exists('/proc/self/maps'):\n"
    "        with open('/proc/self/maps') as fh:\n"
    "            found += ['libcrypto'] * ('libcrypto' in fh.read())\n"
    "    return found\n"
)

#: What no process of a run with a JSON report loads: OpenSSL, the
#: dataclass machinery, the CSV writer and the transcript reader.
UNUSED_BY_A_RUN = ("_hashlib", "dataclasses", "csv", "hyperdistill.reader")

#: Code that runs the package as ``python -m hyperdistill`` does, with the
#: process's arguments, and requires exit status 0.
RUN_AS_PROGRAM = (
    "import runpy\n"
    "sys.argv = ['hyperdistill', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('hyperdistill', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
)


def in_process_bytes(tmp_path, args, *outputs):
    """The bytes that ``main`` called in this process writes to ``outputs``
    given ``args``, in which each output's name stands for its path."""
    paths = {name: str(tmp_path / f"in-process-{name}") for name in outputs}
    assert main([paths.get(arg, arg) for arg in args]) == 0
    return [Path(paths[name]).read_bytes() for name in outputs]


@pytest.mark.parametrize("flags", [
    ["--pairs", "1"],
    ["--pairs", "20", "--dephase-p", "0.1", "--transcript", "t.log"],
    ["--pairs", "20", "--entropy"],
], ids=["pairs 1", "transcript", "entropy"])
def test_program_run_loads_only_what_it_runs(tmp_path, flags):
    # A run's one digest is run_id's sha256, from the builtin module that
    # ``__main__`` leaves hashlib with, so its report is the report of the
    # same run made in this process.
    args = [*flags, "--out", "r.json"]
    outputs = [name for name in ("r.json", "t.log") if name in args]
    result = run_python(
        LOADED + RUN_AS_PROGRAM
        + f"found = loaded(*{UNUSED_BY_A_RUN!r})\nassert not found, found\n",
        *[str(tmp_path / arg) if arg in outputs else arg for arg in args])
    assert result.returncode == 0, result.stderr
    if "--entropy" in args:
        seed = result.stderr.splitlines()[0].removeprefix("entropy seed: ")
        args = [arg for arg in args if arg != "--entropy"] + ["--seed", seed]
    written = [(tmp_path / name).read_bytes() for name in outputs]
    assert written == in_process_bytes(tmp_path, args, *outputs)


def test_sweep_worker_loads_only_what_it_runs(tmp_path):
    # Each forked worker checks what it has loaded once it has run its seed;
    # a failed check is raised again in the coordinator.
    code = (
        LOADED
        + "from hyperdistill import cli\n"
        "run_seed = cli._sweep_single\n"
        "def checked(job):\n"
        "    report = run_seed(job)\n"
        f"    found = loaded(*{UNUSED_BY_A_RUN!r})\n"
        "    assert not found, found\n"
        "    return report\n"
        "cli._sweep_single = checked\n"
        + RUN_AS_PROGRAM
    )
    args = ["--sweep", "2", "--pairs", "50", "--homodyne-error", "0.1", "--out", "r.json"]
    result = run_python(code, *args[:-1], str(tmp_path / "r.json"))
    assert result.returncode == 0, result.stderr
    assert [(tmp_path / "r.json").read_bytes()] == in_process_bytes(tmp_path, args, "r.json")


def test_program_without_the_builtin_sha256_runs_on_openssl(tmp_path):
    # With no builtin sha256 module to fall back to, ``__main__`` leaves
    # hashlib its OpenSSL digests, which give the same run id.
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        + RUN_AS_PROGRAM
        + "assert sys.modules.get('_hashlib') is not None\n"
    )
    result = run_python(code, "--pairs", "3", "--out", str(tmp_path / "r.json"))
    assert result.returncode == 0, result.stderr
    assert [(tmp_path / "r.json").read_bytes()] == in_process_bytes(
        tmp_path, ["--pairs", "3", "--out", "r.json"], "r.json")


def test_replay_leaves_the_oracle_unloaded(tmp_path):
    # Read and audit a saved transcript as the benchmark's replay does.
    path = tmp_path / "t.log"
    out = tmp_path / "r.json"
    assert main(["--pairs", "50", "--transcript", str(path), "--out", str(out)]) == 0
    code = (
        "import sys\n"
        "from hyperdistill import Transcript, audit\n"
        "with open(sys.argv[1], encoding='utf-8') as fh:\n"
        "    assert audit(Transcript.from_lines(fh)).passed\n"
        + ORACLE_UNLOADED
    )
    result = run_python(code, str(path))
    assert result.returncode == 0, result.stderr


def test_program_entry_freezes_the_start_up_objects(tmp_path):
    # ``python -m hyperdistill`` freezes what the imports made; ``main``
    # called in-process, as the tests and the traced benchmark call it,
    # leaves the collector as it found it.
    code = (
        "import gc, runpy, sys\n"
        "from hyperdistill.cli import main\n"
        "before = gc.get_freeze_count()\n"
        "assert main(['--pairs', '1', '--out', sys.argv[1]]) == 0\n"
        "assert gc.get_freeze_count() == before, (before, gc.get_freeze_count())\n"
        "sys.argv = ['hyperdistill', '--pairs', '1', '--out', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('hyperdistill', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "assert gc.get_freeze_count() > before, gc.get_freeze_count()\n"
    )
    result = run_python(code, str(tmp_path / "report.json"))
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "report.json").read_text())["pair_count"] == 1
