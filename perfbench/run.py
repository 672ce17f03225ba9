"""Closed-loop benchmark of the hyperdistill CLI and its transcript auditor.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

One client drives the program in a closed loop: each operation starts only
after the previous one has finished. The workloads are

* ``bulk``: one large audited CLI run that writes a JSON report and a
  transcript, in a subprocess;
* ``sweep``: a 32-seed noisy ``--sweep`` with CSV output, through the CLI's
  own process pool, in a subprocess;
* ``replay-audit``: read, parse and audit a saved transcript and a tampered
  copy of it alternately, each time in a fresh child process (``replay.py``).

``--seed`` fixes every input: the ``--seed`` given to the program and the
positions of the injected transcript lines. Every output is checked against
closed-form expectations, and an operation whose output is wrong counts as
failed. With ``--trace 0`` the last line of stdout is one JSON object with
the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
holds the per-layer metrics of a separate in-process run whose module
functions are wrapped by ``tracer.Tracer``, and the spans are written to
``perfbench/traces/``. Details go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / "_work"
TRACE_DIR = BENCH / "traces"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: A run that has not finished by then is stopped with a non-zero exit.
DEADLINE_S = 170
#: Fresh CLI starts per run after one warm-up start; setup_s is their median.
SETUP_SAMPLES = 9
#: Timed operations per run even when --seconds has already passed; two
#: are needed to compare outputs for the same seed.
MIN_OPS = 3
#: Untraced and traced executions per traced run, each, after a warm-up.
TRACE_REPEATS = 2

BULK_PAIRS = 20_000
BULK_FIDELITIES = (0.7, 0.1, 0.15, 0.05)
SWEEP_SEEDS = 32
SWEEP_PAIRS = 2000
REPLAY_PAIRS = 20_000
NOISY_FIDELITIES = (0.6, 0.15, 0.15, 0.1)
HOMODYNE_ERROR = 0.1
DEPHASE_P = 0.05
MISREPORT_P = 0.1
NOISE_FLAGS = [
    "--fidelities", ",".join(map(str, NOISY_FIDELITIES)),
    "--homodyne-error", str(HOMODYNE_ERROR),
    "--dephase-p", str(DEPHASE_P),
    "--evil-bob-flip-p", str(MISREPORT_P),
]

#: One valid message body per audit rule, (a) to (d), with the violation
#: kind the auditor must report for it.
INJECTED = (
    ("bob_to_bob", "Distillation|Bob1|Bob2|qnd_outcome|Shift"),
    ("alice_feedback", "Distillation|Alice|Bob1|qnd_outcome|NoShift"),
    ("angle_to_bob2", "AngleAnnouncement|Alice|Bob2|angle|0.7853981633974483"),
    ("result_from_bob2", "ResultReport|Bob2|Alice|result_bit|0"),
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def messages_for(pairs: int) -> int:
    """Transcript length of a run: six messages per pair plus the handoff."""
    return 6 * pairs + 1


# --- closed forms -------------------------------------------------------------


def phi_probability(fidelities) -> float:
    """Probability that both servers record the same readout: F + F1.

    A Phi-kind pair always gives equal readouts and a Psi-kind pair never
    does, for either spatial sign, so spatial dephasing leaves it unchanged.
    """
    return fidelities[0] + fidelities[1]


def inferred_phi_probability(fidelities, homodyne_error, misreport_p) -> float:
    """Probability that Alice infers Phi when readouts may be flipped.

    Her inference flips when an odd number of the two homodyne errors and
    Bob1's misreport happen, which has probability
    q = (1 - (1 - 2e)^2 (1 - 2b)) / 2; then p' = p(1 - q) + (1 - p)q.
    """
    p = phi_probability(fidelities)
    q = (1.0 - (1.0 - 2.0 * homodyne_error) ** 2 * (1.0 - 2.0 * misreport_p)) / 2.0
    return p * (1.0 - q) + (1.0 - p) * q


def z_score(count: int, n: int, p: float) -> float:
    return (count / n - p) / math.sqrt(p * (1.0 - p) / n)


# --- output checks ------------------------------------------------------------


def check_run_counts(row: dict, pairs: int, where: str) -> list[str]:
    """Checks shared by a JSON report and a CSV row of one run."""
    problems = []
    phi, psi = int(row["phi_class_count"]), int(row["psi_class_count"])
    if phi + psi != pairs:
        problems.append(f"{where}: phi {phi} + psi {psi} != {pairs} pairs")
    if row["angles"] != pairs:
        problems.append(f"{where}: angle counts sum to {row['angles']}, not {pairs}")
    if not row["audit_passed"]:
        problems.append(f"{where}: audit failed on an honest run")
    return problems


def check_single_report(path: Path, pairs: int, fidelities) -> tuple[list[str], dict]:
    """Problems with one run's JSON report, and the report itself."""
    doc = json.loads(path.read_bytes())
    row = {
        **doc,
        "angles": sum(doc["angle_counts"].values()),
        "audit_passed": doc["audit_passed"] and doc["audit_violation_count"] == 0,
    }
    problems = check_run_counts(row, pairs, "report")
    if doc["pair_count"] != pairs:
        problems.append(f"report: pair_count {doc['pair_count']} != {pairs}")
    if abs(doc["analytic_phi_probability"] - phi_probability(fidelities)) > 1e-12:
        problems.append(
            f"report: analytic_phi_probability {doc['analytic_phi_probability']!r}"
            f" != F+F1 = {phi_probability(fidelities)!r}"
        )
    return problems, doc


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def check_bulk(report: Path, transcript: Path) -> list[str]:
    problems, doc = check_single_report(report, BULK_PAIRS, BULK_FIDELITIES)
    z = z_score(doc["phi_class_count"], BULK_PAIRS, phi_probability(BULK_FIDELITIES))
    if abs(z) > 4.0:
        problems.append(f"Phi frequency is {z:+.2f} sigma from F+F1")
    lines = count_lines(transcript)
    if lines != messages_for(BULK_PAIRS):
        problems.append(f"transcript has {lines} lines, not {messages_for(BULK_PAIRS)}")
    return problems


def check_sweep(csv_path: Path, first_seed: int) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text(encoding="utf-8"))))
    if len(rows) != SWEEP_SEEDS:
        return [f"sweep CSV has {len(rows)} runs, not {SWEEP_SEEDS}"]
    problems = []
    for i, raw in enumerate(rows):
        row = {
            **raw,
            "angles": sum(int(raw[f"angle_count_k{k}"]) for k in range(8)),
            "audit_passed": raw["audit_passed"] == "true",
        }
        where = f"sweep run {i}"
        problems += check_run_counts(row, SWEEP_PAIRS, where)
        if int(raw["pairs"]) != SWEEP_PAIRS or int(raw["seed"]) != first_seed + i:
            problems.append(f"{where}: pairs {raw['pairs']} seed {raw['seed']}")
    phi = sum(int(row["phi_class_count"]) for row in rows)
    expected = inferred_phi_probability(NOISY_FIDELITIES, HOMODYNE_ERROR, MISREPORT_P)
    z = z_score(phi, SWEEP_SEEDS * SWEEP_PAIRS, expected)
    if abs(z) > 4.0:
        problems.append(f"pooled Phi frequency is {z:+.2f} sigma from p'")
    return problems


def check_replay(result: dict, expected: list[list]) -> list[str]:
    """The audit must report exactly the `expected` (kind, seq) pairs."""
    if result["passed"] == (not expected) and sorted(result["violations"]) == expected:
        return []
    return [f"audit found {result['violations']}, expected {expected}"]


# --- processes ----------------------------------------------------------------


def run_process(argv: list[str], work: Path) -> tuple[float, int, int]:
    """Run argv to completion; return wall seconds, peak RSS bytes, exit code.

    The peak comes from wait4 on this child, so it covers the child and the
    descendants it waited for (the sweep's pool workers), not every child
    this process ever had, as RUSAGE_CHILDREN would.
    """
    with open(work / "child.log", "wb") as child_log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=child_log,
            stderr=subprocess.STDOUT, env=ENV, cwd=work,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (work / "child.log").read_text(errors="replace")[-2000:]
        log(f"{argv[1:4]} exited {proc.returncode}:\n{tail}")
    return wall, usage.ru_maxrss * 1024, proc.returncode


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "hyperdistill", *args]


def bulk_args(seed: int, report: Path, transcript: Path) -> list[str]:
    return [
        "--pairs", str(BULK_PAIRS),
        "--fidelities", ",".join(map(str, BULK_FIDELITIES)),
        "--seed", str(seed),
        "--transcript", str(transcript),
        "--out", str(report),
    ]


def sweep_args(seed: int, out: Path) -> list[str]:
    return [
        "--sweep", str(SWEEP_SEEDS), "--pairs", str(SWEEP_PAIRS), *NOISE_FLAGS,
        "--seed", str(seed), "--format", "csv", "--out", str(out),
    ]


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


class Tally:
    """Operations attempted and failed; a failed one has a problem listed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                log(f"FAILED {what}: {problem}")


def fresh_start_seconds(argv: list[str], work: Path, check, tally: Tally) -> float:
    """Median wall time of SETUP_SAMPLES fresh processes, after a warm-up."""
    walls = []
    for i in range(SETUP_SAMPLES + 1):
        wall, _, code = run_process(argv, work)
        tally.record("fresh start", [f"exit {code}"] if code else check())
        if i:
            walls.append(wall)
    return statistics.median(walls)


def program_seed(workload: str, seed: int) -> tuple[int, random.Random]:
    rng = random.Random(f"{workload}:{seed}")
    return rng.randrange(2**32), rng


# --- workloads, untraced ------------------------------------------------------


def closed_loop(seconds: float, op) -> list[dict]:
    """Run op back to back for `seconds`; start none that would end after,
    judged by the median op so far, once MIN_OPS have run."""
    ops, walls = [], []
    started = time.perf_counter()
    while len(ops) < MIN_OPS or (
        time.perf_counter() - started + statistics.median(walls) <= seconds
    ):
        op_started = time.perf_counter()
        ops.append(op())
        walls.append(time.perf_counter() - op_started)
    return ops


def cli_loop(seconds, argv, outputs, check, work, pairs, messages) -> list[dict]:
    """Closed loop of CLI runs of `pairs` pairs and `messages` transcript
    messages each; each op is checked and its outputs digested."""

    def op():
        for path in outputs:
            path.unlink(missing_ok=True)
        wall, rss, code = run_process(argv, work)
        done = code == 0
        return {
            "completed": done, "wall": wall, "rss": rss, "pairs": pairs,
            "messages": messages, "problems": check() if done else [f"exit {code}"],
            "digest": digest(*outputs) if done else None,
        }

    ops = closed_loop(seconds, op)
    for op in ops[1:]:
        if op["digest"] != ops[0]["digest"]:
            op["problems"].append("outputs differ from the first run with this seed")
    return ops


def replay(path: Path, expected: list[list], work: Path) -> dict:
    """One read, parse and audit of `path` in a fresh child, checked."""
    out = work / "replay.json"
    out.unlink(missing_ok=True)
    _, rss, code = run_process(
        [sys.executable, str(BENCH / "replay.py"), "--out", str(out), str(path)], work)
    if code:
        return {"completed": False, "rss": rss, "problems": [f"exit {code}"]}
    result = json.loads(out.read_text())
    return {"completed": True, "rss": rss, "wall": result["seconds"],
            "problems": check_replay(result, expected)}


def bulk(seed, seconds, work, tally) -> list[dict]:
    pseed, _ = program_seed("bulk", seed)
    report, transcript = work / "bulk.json", work / "bulk.log"
    ops = cli_loop(
        seconds, cli_argv(bulk_args(pseed, report, transcript)),
        [report, transcript], lambda: check_bulk(report, transcript), work,
        BULK_PAIRS, messages_for(BULK_PAIRS),
    )
    # Every op wrote the same bytes (checked above), so re-parsing the last
    # transcript checks all that match it.
    reparse_problems = replay(transcript, [], work)["problems"]
    last = ops[-1]["digest"]
    for op in ops:
        if op["digest"] == last:
            op["problems"] += reparse_problems
    return ops


def sweep(seed, seconds, work, tally) -> list[dict]:
    pseed, _ = program_seed("sweep", seed)
    out = work / "sweep.csv"
    ops = cli_loop(
        seconds, cli_argv(sweep_args(pseed, out)), [out],
        lambda: check_sweep(out, pseed), work,
        SWEEP_SEEDS * SWEEP_PAIRS, SWEEP_SEEDS * messages_for(SWEEP_PAIRS),
    )
    if ops[-1]["completed"]:
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
        pooled = sum(int(r["phi_class_count"]) for r in rows) / (SWEEP_SEEDS * SWEEP_PAIRS)
        log(
            f"sweep: pooled inferred Phi frequency {pooled:.4f}; closed form p' = "
            f"{inferred_phi_probability(NOISY_FIDELITIES, HOMODYNE_ERROR, MISREPORT_P):.4f};"
            f" the report compares it with analytic_phi_probability = "
            f"{rows[0]['analytic_phi_probability']}"
        )
    return ops


def replay_setup(seed, work, tally) -> tuple[list[Path], list[list]]:
    """Write a noisy run's transcript and a copy with one injected line per
    audit rule at seed-chosen positions; return both files and the
    violations expected in each."""
    pseed, rng = program_seed("replay-audit", seed)
    clean, report = work / "clean.log", work / "clean.json"
    _, _, code = run_process(cli_argv([
        "--pairs", str(REPLAY_PAIRS), *NOISE_FLAGS, "--seed", str(pseed),
        "--transcript", str(clean), "--out", str(report),
    ]), work)
    problems = [f"exit {code}"] if code else check_single_report(
        report, REPLAY_PAIRS, NOISY_FIDELITIES)[0]
    tally.record("replay set-up run", problems)
    if problems:
        raise RuntimeError("the transcript to replay could not be written")

    bodies = [line.split("|", 1)[1] for line in clean.read_text().splitlines()]
    if len(bodies) != messages_for(REPLAY_PAIRS):
        raise RuntimeError(f"transcript has {len(bodies)} lines")
    slots = sorted(rng.sample(range(len(bodies) + 1), len(INJECTED)))
    injected = []
    for offset, (slot, (kind, body)) in enumerate(
        zip(slots, rng.sample(INJECTED, len(INJECTED)))
    ):
        bodies.insert(slot + offset, body)
        injected.append([kind, slot + offset + 1])
    tampered = work / "tampered.log"
    tampered.write_text("".join(f"{i}|{b}\n" for i, b in enumerate(bodies, 1)))
    return [clean, tampered], [[], sorted(injected)]


def replay_audit(seed, seconds, work, tally) -> list[dict]:
    files, expected = replay_setup(seed, work, tally)
    lines = [count_lines(path) for path in files]
    turns = itertools.cycle(range(len(files)))

    def op():
        i = next(turns)
        return {**replay(files[i], expected[i], work), "pairs": REPLAY_PAIRS,
                "messages": lines[i]}

    return closed_loop(seconds, op)


def run_untraced(workload, seed, seconds, work) -> tuple[Tally, dict]:
    tally = Tally()
    setup_report = work / "setup.json"
    setup_s = fresh_start_seconds(
        cli_argv(["--pairs", "1", "--out", str(setup_report)]), work,
        lambda: check_single_report(setup_report, 1, (0.7, 0.1, 0.1, 0.1))[0], tally,
    )
    workloads = {"bulk": bulk, "sweep": sweep, "replay-audit": replay_audit}
    ops = workloads[workload](seed, seconds, work, tally)
    for i, op in enumerate(ops):
        tally.record(f"{workload} op {i}", op["problems"])
    done = [op for op in ops if op["completed"]]
    if not done:
        raise RuntimeError("no operation completed")
    walls = [op["wall"] for op in done]
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    log(f"{workload}: {len(walls)} ops, wall time median {q[1]:.4f} s, "
        f"quartiles {q[0]:.4f} s and {q[2]:.4f} s; setup_s {setup_s:.4f} s, "
        f"median of {SETUP_SAMPLES}")
    # Throughput over the whole run: all the work done divided by all the
    # time it took. Per-op times vary by about 15% from one op to the next
    # on a shared host, and the ratio of sums averages that out better than
    # a median of per-op rates.
    return tally, {
        "setup_s": setup_s,
        "pairs_per_s": sum(op["pairs"] for op in done) / sum(walls),
        "messages_per_s": sum(op["messages"] for op in done) / sum(walls),
        "peak_rss_bytes": statistics.median(op["rss"] for op in done),
    }


# --- traced run ---------------------------------------------------------------


@contextlib.contextmanager
def serial_pool(cli):
    """Run the sweep's jobs in this process, where spans are recorded.

    Spans recorded in forked pool workers would be lost.
    """

    class SerialPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    original = cli.ProcessPoolExecutor
    cli.ProcessPoolExecutor = SerialPool
    try:
        yield
    finally:
        cli.ProcessPoolExecutor = original


def oracle_problems(qnd, states) -> list[str]:
    """Evolve all 8 (Bell kind, spatial sign) cases through the oracle and
    compare the same-readout probability with its closed form."""
    problems = []
    for kind in states.PolarizationBell:
        for sign in (1, -1):
            rho = qnd.oracle_evolve(states.HyperComponent(kind, 1.0, sign), qnd.DeviceParams())
            dist = qnd.oracle_outcome_distribution(rho)
            same = sum(p for (a, b), p in dist.items() if a is b)
            expected = 1.0 if kind.value.startswith("Phi") else 0.0
            if abs(same - expected) > 1e-10:
                problems.append(f"oracle {kind.value} sign {sign}: P(same) = {same!r}")
    return problems


def traced_execution(workload, seed, work, tally):
    """The in-process operation a traced run times, as a callable that
    returns its problems and the digest of its outputs."""
    from hyperdistill import cli, protocol

    if workload == "bulk":
        pseed, _ = program_seed("bulk", seed)
        report, transcript = work / "bulk.json", work / "bulk.log"
        argv = bulk_args(pseed, report, transcript)

        def execute():
            code = cli.main(argv)
            if code:
                return [f"exit {code}"], None
            return check_bulk(report, transcript), digest(report, transcript)

        return execute

    if workload == "sweep":
        pseed, _ = program_seed("sweep", seed)
        out = work / "sweep.csv"
        argv = sweep_args(pseed, out)

        def execute():
            with serial_pool(cli):
                code = cli.main(argv)
            if code:
                return [f"exit {code}"], None
            return check_sweep(out, pseed), digest(out)

        return execute

    files, expected = replay_setup(seed, work, tally)

    def execute():
        problems, h = [], hashlib.sha256()
        for path, violations in zip(files, expected):
            with open(path, "r", encoding="utf-8") as fh:
                report = protocol.audit(protocol.Transcript.from_lines(fh))
            found = [[v.kind, v.seq] for v in report.violations]
            problems += check_replay(
                {"passed": report.passed, "violations": found}, violations)
            h.update(json.dumps(found).encode())
        return problems, h.hexdigest()

    return execute


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".hit_ratio")) or name in (
        "protocol.transcript.bytes", "protocol.audit.violations")


def run_traced(workload, seed, work) -> tuple[Tally, dict]:
    sys.path.insert(0, str(SRC))
    import tracer as tr
    from hyperdistill import cli, qnd, states

    tally = Tally()
    import_s = fresh_start_seconds(
        [sys.executable, "-c", "import hyperdistill"], work, lambda: [], tally)
    execute = traced_execution(workload, seed, work, tally)

    def fresh_state():
        # As in a fresh process: empty caches and no garbage left for the
        # cyclic collector, whose pauses would otherwise land differently
        # in untraced and traced executions.
        tr.clear_caches()
        gc.collect()

    # A warm-up first: the first execution in a process also pays for
    # growing the heap. Then untraced and traced executions alternate.
    fresh_state()
    problems, first_digest = execute()
    tally.record("warm-up execution", problems)
    untraced_walls, runs = [], []
    for i in range(TRACE_REPEATS):
        fresh_state()
        started = time.perf_counter()
        problems, output = execute()
        untraced_walls.append(time.perf_counter() - started)
        if output != first_digest:
            problems.append("outputs differ from the first execution with this seed")
        tally.record(f"untraced execution {i}", problems)

        fresh_state()
        tracer = tr.Tracer()
        with tracer.installed():
            started = time.perf_counter()
            problems, output = execute()
            wall = time.perf_counter() - started
            ratios = tr.hit_ratios()
            problems += oracle_problems(qnd, states)
        metrics = {**tracer.layer_metrics(), **ratios}
        if output != first_digest:
            problems.append("outputs differ from the first execution with this seed")
        if runs:
            problems += [
                f"{name} = {metrics[name]!r}, first traced run gave {runs[0][1][name]!r}"
                for name in metrics
                if is_count(name) and metrics[name] != runs[0][1][name]
            ]
        tally.record(f"traced execution {i}", problems)
        runs.append((wall, metrics, tracer))
    if tracer.missing:
        log(f"not traced, absent from the program: {', '.join(tracer.missing)}")

    metrics = {
        name: (runs[0][1][name] if is_count(name)
               else statistics.fmean(run[1][name] for run in runs))
        for name in runs[0][1]
    }
    untraced_s = statistics.fmean(untraced_walls)
    traced_s = statistics.fmean(run[0] for run in runs)
    metrics.update({
        "cli.import_s": import_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "cli.run_sweep.parallel_efficiency": 0.0,
    })
    if workload == "sweep":
        # Serial in-process work over the same seeds, against the wall time
        # of the CLI's own process pool with os.cpu_count() workers.
        pseed, _ = program_seed("sweep", seed)
        out = work / "sweep.csv"
        walls = []
        for i in range(3):
            wall, _, code = run_process(cli_argv(sweep_args(pseed, out)), work)
            tally.record(f"pooled sweep {i}", [f"exit {code}"] if code else check_sweep(out, pseed))
            walls.append(wall)
        workers = os.cpu_count() or 1
        metrics["cli.run_sweep.parallel_efficiency"] = untraced_s / (
            workers * statistics.median(walls))
        log(f"sweep: report all_within_four_sigma = "
            f"{runs[0][2].info.get('report_all_within_four_sigma')!r} (recorded, not gated)")

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "runs": [{"wall_s": wall, **tracer.dump()} for wall, _, tracer in runs],
    }, indent=1))
    log(f"spans written to {trace_path.relative_to(ROOT)}")
    log(f"tracing overhead: {traced_s - untraced_s:.4f} s on {untraced_s:.4f} s untraced")
    return tally, metrics


# --- entry point --------------------------------------------------------------


def on_deadline(signum, frame):
    raise TimeoutError(f"benchmark did not finish within {DEADLINE_S} s")


def on_terminate(signum, frame):
    # Unwind, so that the running child is killed and waited for and the
    # work directory is removed.
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk", "sweep", "replay-audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hyperdistill" / "__init__.py").is_file():
        log(f"no program to benchmark: {SRC / 'hyperdistill'} is missing")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    signal.signal(signal.SIGALRM, on_deadline)
    signal.signal(signal.SIGTERM, on_terminate)
    signal.alarm(DEADLINE_S)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            tally, values = run_traced(args.workload, args.seed, work)
        else:
            tally, values = run_untraced(args.workload, args.seed, args.seconds, work)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
