"""Command-line front end: seeded runs, reports, transcripts, audit.

A run is fully determined by its configuration and seed: reports and
transcripts are byte-identical across invocations. Wall-clock timing is
kept off the serialized artifacts for exactly that reason; it is printed
to stderr instead.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .protocol import (
    ANGLE_COUNT,
    ENGINE_VERSION,
    MAX_PAIRS,
    PHI_KIND,
    ProtocolRun,
    analytic_phi_probability,
    inferred_phi_probability,
    pair_chunks,
    pair_table,
    run_protocol,
)
from .model import DeviceParams, FidelityVector
from .wire import Transcript

DEFAULT_PAIRS = 1000
DEFAULT_FIDELITIES = (0.7, 0.1, 0.1, 0.1)
DEFAULT_SEED = 0
DEFAULT_FORMAT = "json"

#: Flat column order of the CSV report.
CSV_COLUMNS = (
    "run_id",
    "pairs",
    "f",
    "f1",
    "f2",
    "f3",
    "dephase_p",
    "homodyne_error",
    "evil_bob_flip_p",
    "seed",
    "phi_class_count",
    "psi_class_count",
    "phi_class_frequency",
    "psi_class_frequency",
    "analytic_phi_probability",
    "class_mismatch_count",
    "mean_phi_pair_fidelity_phi_plus",
    "mean_phi_pair_fidelity_phi_minus",
    "mean_psi_pair_fidelity_psi_plus",
    "mean_psi_pair_fidelity_psi_minus",
    "angle_count_k0",
    "angle_count_k1",
    "angle_count_k2",
    "angle_count_k3",
    "angle_count_k4",
    "angle_count_k5",
    "angle_count_k6",
    "angle_count_k7",
    "audit_passed",
    "audit_violation_count",
)


@dataclass(frozen=True)
class RunConfig:
    pairs: int = DEFAULT_PAIRS
    fidelities: FidelityVector = FidelityVector(*DEFAULT_FIDELITIES)
    dephase_p: float = 0.0
    homodyne_error: float = 0.0
    evil_bob_flip_p: float = 0.0
    seed: int = DEFAULT_SEED
    output_format: str = DEFAULT_FORMAT
    out_path: str | None = None
    transcript_path: str | None = None
    sweep: int | None = None

    def __post_init__(self):
        if self.pairs < 1:
            raise ValueError(f"pairs {self.pairs} must be >= 1")
        if self.pairs > MAX_PAIRS:
            raise ValueError(
                f"pairs {self.pairs} exceeds {MAX_PAIRS}: a run's 6 m + 1 "
                "transcript seqs must fit in intp"
            )
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed {self.seed} outside unsigned 64-bit range")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.output_format!r}")
        for name, value in (
            ("dephase_p", self.dephase_p),
            ("evil_bob_flip_p", self.evil_bob_flip_p),
        ):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} {value!r} outside [0, 1]")
        if self.sweep is not None and self.sweep < 1:
            raise ValueError(f"sweep {self.sweep} must be >= 1")
        if self.sweep is not None and self.seed + self.sweep - 1 >= 2**64:
            raise ValueError(
                f"sweep of {self.sweep} seeds from {self.seed} runs past the "
                "unsigned 64-bit seed range"
            )
        self.device_params()  # DeviceParams checks the homodyne_error range

    @property
    def emit_transcript(self) -> bool:
        return self.transcript_path is not None

    def device_params(self) -> DeviceParams:
        return DeviceParams(self.homodyne_error)

    def echo(self) -> dict:
        return {
            "pairs": self.pairs,
            "fidelities": list(self.fidelities.as_tuple()),
            "dephase_p": self.dephase_p,
            "homodyne_error": self.homodyne_error,
            "evil_bob_flip_p": self.evil_bob_flip_p,
            "seed": self.seed,
            "output_format": self.output_format,
            "emit_transcript": self.emit_transcript,
            "engine_version": ENGINE_VERSION,
        }

    def run_id(self) -> str:
        """Deterministic run identifier from the seed and a config digest."""
        # Imported here: hashlib maps OpenSSL, which a sweep's parent never uses.
        import hashlib

        payload = json.dumps(self.echo(), sort_keys=True)
        digest = hashlib.sha256(f"{self.seed}:{payload}".encode("utf-8")).hexdigest()
        return f"run-{digest[:12]}"


def execute_run(cfg: RunConfig) -> tuple[dict, Transcript]:
    """Run the full protocol once; return the report document and transcript.

    The document's key order is that of the JSON report. The fidelity
    means are grouped by the ground-truth class of each surviving state;
    the class counts are Alice's view, inferred from the readouts as
    reported. The two diverge under readout misclassification or
    misreporting, counted in ``class_mismatch_count``.

    The report is read from the run's columns one chunk of pairs at a
    time, as a count of pairs by case and label and a count by angle
    index. A case's pair survives as one Bell kind, ``pair_table().kind``,
    so its ground-truth class is that kind's and each of its fidelities is
    exactly 0 or 1: a fidelity mean is the count of pairs of one kind over
    the count of its class, or None when no pair has the class.
    """
    run: ProtocolRun = run_protocol(
        m=cfg.pairs,
        fv=cfg.fidelities,
        params=cfg.device_params(),
        dephase_p=cfg.dephase_p,
        evil_bob_flip_p=cfg.evil_bob_flip_p,
        seed=cfg.seed,
    )
    labels = np.zeros(16, dtype=np.int64)  # pairs by case, then inferred Phi
    angle_counts = np.zeros(ANGLE_COUNT, dtype=np.int64)
    for pairs in pair_chunks(cfg.pairs):
        labels += np.bincount(2 * run.case[pairs] + run.inferred_phi[pairs], minlength=16)
        angle_counts += np.bincount(run.theta_index[pairs], minlength=ANGLE_COUNT)
    of_kind = [0] * 4  # pairs that survive as each Bell kind, in ENSEMBLE_ORDER
    phi_count = mismatch_count = 0
    for kind, (psi, phi) in zip(pair_table().kind.tolist(), labels.reshape(-1, 2).tolist()):
        of_kind[kind] += psi + phi
        phi_count += phi
        mismatch_count += psi if PHI_KIND[kind] else phi
    # Phi+ and Phi- fidelities of Phi-class states, Psi+ and Psi- of Psi-class.
    of_class = [sum(n for n, p in zip(of_kind, PHI_KIND) if p == phi) for phi in PHI_KIND]
    means = [n / total if total else None for n, total in zip(of_kind, of_class)]
    psi_count = cfg.pairs - phi_count
    violations = [
        {"kind": v.kind, "seq": v.seq, "description": v.description}
        for v in run.audit_report.violations
    ]
    doc = {
        "run_id": cfg.run_id(),
        "config": cfg.echo(),
        "pair_count": cfg.pairs,
        "phi_class_count": phi_count,
        "psi_class_count": psi_count,
        "phi_class_frequency": phi_count / cfg.pairs,
        "psi_class_frequency": psi_count / cfg.pairs,
        "analytic_phi_probability": analytic_phi_probability(
            cfg.fidelities, cfg.dephase_p
        ),
        "class_mismatch_count": mismatch_count,
        "mean_phi_pair_fidelity_phi_plus": means[0],
        "mean_phi_pair_fidelity_phi_minus": means[1],
        "mean_psi_pair_fidelity_psi_plus": means[2],
        "mean_psi_pair_fidelity_psi_minus": means[3],
        "angle_counts": {str(k): int(n) for k, n in enumerate(angle_counts)},
        "audit_passed": run.audit_report.passed,
        "audit_violation_count": len(violations),
        "audit_violations": violations,
    }
    return doc, run.transcript


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_row(doc: dict) -> list[str]:
    """Flatten one report document and pick the CSV columns from it."""
    config = doc["config"]
    flat = {**doc, **config}
    flat.update(zip(("f", "f1", "f2", "f3"), config["fidelities"]))
    flat.update((f"angle_count_k{k}", n) for k, n in doc["angle_counts"].items())
    return [_csv_cell(flat[col]) for col in CSV_COLUMNS]


def serialize_report(doc: dict, output_format: str) -> bytes:
    """Render a report document (or a sweep document) to bytes."""
    if output_format == "json":
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    if output_format != "csv":
        raise ValueError(f"unknown format {output_format!r}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    if "runs" in doc:
        for row in doc["runs"]:
            writer.writerow(_csv_row(row))
    else:
        writer.writerow(_csv_row(doc))
    return buffer.getvalue().encode("utf-8")


def emit_report(doc: dict, output_format: str, destination: str | None) -> None:
    """Serialize a report (or sweep document) to a path, or stdout when None."""
    payload = serialize_report(doc, output_format)
    if destination is None:
        if sys.stdout is None:
            raise OSError("cannot write report to stdout: it is closed")
        sys.stdout.write(payload.decode("utf-8"))
        return
    try:
        with open(destination, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write report to {destination!r}: {exc}") from exc


def write_transcript(transcript: Transcript, destination: str) -> None:
    try:
        with open(destination, "wb") as fh:
            transcript.write(fh)
    except OSError as exc:
        raise OSError(f"cannot write transcript to {destination!r}: {exc}") from exc


# --- seed sweep --------------------------------------------------------------


class ProcessPoolExecutor:
    """A map-only pool of forked workers, one contiguous share of the jobs each.

    Called as ``ProcessPoolExecutor(max_workers=k)``, used as a context
    manager and mapped with ``.map``, as a ``concurrent.futures`` pool is:
    ``serial_pool`` in ``perfbench/run.py`` and the tests replace it by this
    name with a pool that maps in-process, so keep the name and the shape.

    ``map`` splits the jobs into at most ``max_workers`` contiguous shares
    and forks one child per share, all at once. Only each share's results
    cross a pipe, so ``fn`` may be a closure and nothing is pickled on the
    way in. The results come back in job order. An exception raised by
    ``fn`` in a child is raised again here, with its type and message; a
    child that exits without sending its results raises
    ``ChildProcessError``. Every child is reaped before ``map`` returns or
    raises. Needs POSIX ``os.fork``.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, jobs) -> list:
        import pickle
        import signal

        jobs = list(jobs)
        shares = min(self.max_workers, len(jobs))
        bounds = [len(jobs) * i // shares for i in range(shares + 1)] if jobs else []
        children = []  # (pid, read end of its pipe), in share order, until reaped
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                children.append(_fork_worker(fn, jobs[lo:hi]))
            results = []
            while children:
                pid, pipe = children[0]
                with pipe:
                    data = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if code or not data:
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    raise ChildProcessError(
                        f"sweep worker {pid} ended without sending its results ({how})"
                    )
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results.extend(value)
            return results
        finally:
            # Reached with children left only when something failed: stop
            # and reap them, so that no worker outlives the sweep.
            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_worker(fn, share: list):
    """Fork a child that sends ``fn`` over ``share``, pickled, down a pipe;
    return the child's pid and the read end of the pipe."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    # The child: whatever happens, it leaves by os._exit and never returns
    # into the caller's code. Exit status 0 means the whole result was sent.
    status = 1
    try:
        os.close(read_fd)
        try:
            payload = (True, [fn(job) for job in share])
        except Exception as exc:
            payload = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        status = 0
    finally:
        os._exit(status)


def _sweep_single(args: tuple[RunConfig, int]) -> dict:
    cfg, seed = args
    return execute_run(dataclasses.replace(cfg, seed=seed, sweep=None))[0]


def run_sweep(cfg: RunConfig) -> dict:
    """Run ``cfg.sweep`` consecutive seeds and aggregate their reports.

    The seeds run in forked workers, one per CPU that this process may run
    on and at most one per seed, each over one contiguous share of the
    seeds; the reports come back in seed order, so the document is the same
    at every worker count. The analytic probability is read from the first
    report, so the coordinator builds no ``pair_table()`` and imports no
    ``numpy.random``.
    """
    n = int(cfg.sweep or 1)
    jobs = [(cfg, cfg.seed + i) for i in range(n)]
    affinity = getattr(os, "sched_getaffinity", None)  # not on macOS or Windows
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    with ProcessPoolExecutor(max_workers=min(n, cpus)) as pool:
        runs = list(pool.map(_sweep_single, jobs))
    analytic = runs[0]["analytic_phi_probability"]
    expected = inferred_phi_probability(
        analytic, cfg.homodyne_error, cfg.evil_bob_flip_p
    )
    freqs = [r["phi_class_frequency"] for r in runs]
    sigma = math.sqrt(max(expected * (1.0 - expected), 0.0) / cfg.pairs)
    within = [abs(f - expected) <= 4.0 * sigma for f in freqs]
    aggregate = {
        "seeds": n,
        "first_seed": cfg.seed,
        "pairs_per_run": cfg.pairs,
        "analytic_phi_probability": analytic,
        "expected_phi_frequency": expected,
        "empirical_phi_frequency_mean": float(sum(freqs) / n),
        "empirical_phi_frequency_min": min(freqs),
        "empirical_phi_frequency_max": max(freqs),
        "four_sigma_band": 4.0 * sigma,
        "all_within_four_sigma": all(within),
        "audit_all_passed": all(r["audit_passed"] for r in runs),
    }
    return {"sweep_aggregate": aggregate, "runs": runs}


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdistill",
        description=(
            "Seeded simulation of two-server Bell-pair distillation with "
            "transcript auditing."
        ),
    )
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file; flags override its keys")
    parser.add_argument("--pairs", type=int, default=None,
                        help=f"number of pairs per run (default {DEFAULT_PAIRS})")
    parser.add_argument("--fidelities", default=None, metavar="F,F1,F2,F3",
                        help="four comma-separated mixture weights summing to 1")
    parser.add_argument("--dephase-p", type=float, default=None,
                        help="spatial phase-flip probability per pair (default 0)")
    parser.add_argument("--homodyne-error", type=float, default=None,
                        help="probability of misreading a probe shift (default 0)")
    parser.add_argument("--evil-bob-flip-p", type=float, default=None,
                        help="probability that Bob1 misreports a readout (default 0)")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"64-bit run seed (default {DEFAULT_SEED})")
    parser.add_argument("--entropy", action="store_true",
                        help="draw the seed from OS entropy and print it")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="report format (default json)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="report destination (default stdout)")
    parser.add_argument("--transcript", metavar="PATH", default=None,
                        help="also write the message transcript to PATH")
    parser.add_argument("--sweep", type=int, default=None, metavar="N",
                        help="run N consecutive seeds in parallel workers")
    return parser


#: JSON types each config-file key accepts; a bool is not a number here.
CONFIG_KEY_TYPES = {
    "pairs": (int,),
    "fidelities": (list, str),
    "dephase_p": (int, float),
    "homodyne_error": (int, float),
    "evil_bob_flip_p": (int, float),
    "seed": (int,),
    "format": (str,),
    "out": (str, type(None)),
    "transcript": (str, type(None)),
}


def _config_problem(file_cfg: dict) -> str | None:
    """What is wrong with the keys or value types of a config file, if anything."""
    for key, value in file_cfg.items():
        types = CONFIG_KEY_TYPES.get(key)
        if types is None:
            return f"unknown key {key!r}"
        if (isinstance(value, bool) and bool not in types) or not isinstance(value, types):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            return f"key {key!r} must be {names}, got {type(value).__name__}"
        if key == "fidelities" and isinstance(value, list) and not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            return f"key {key!r} must list numbers, got {value!r}"
    return None


def parse_config(argv=None) -> RunConfig:
    """Resolve the run configuration: flag > config-file key > default."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    file_cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            parser.error(f"--config: cannot read {args.config!r}: {exc}")
        if not isinstance(file_cfg, dict):
            parser.error("--config: file must hold a JSON object")
        problem = _config_problem(file_cfg)
        if problem is not None:
            parser.error(f"--config: {problem}")

    def resolve(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return default

    raw_fidelities = resolve(args.fidelities, "fidelities", DEFAULT_FIDELITIES)
    if isinstance(raw_fidelities, str):
        parts = raw_fidelities.split(",")
        try:
            raw_fidelities = [float(p) for p in parts]
        except ValueError:
            parser.error(f"--fidelities: not numeric: {raw_fidelities!r}")
    try:
        fidelities = FidelityVector.from_components(raw_fidelities)
    except (ValueError, OverflowError) as exc:
        parser.error(f"--fidelities: {exc}")

    seed = resolve(args.seed, "seed", DEFAULT_SEED)
    if args.entropy:
        if args.seed is not None or "seed" in file_cfg:
            parser.error("--entropy: cannot be combined with a seed from --seed or --config")
        # Imported here: secrets maps OpenSSL, which a seeded start does not need.
        import secrets

        seed = secrets.randbits(64)
        print(f"entropy seed: {seed}", file=sys.stderr)

    transcript_path = resolve(args.transcript, "transcript", None)
    if args.sweep is not None and transcript_path is not None:
        parser.error("--transcript: not available in --sweep mode")

    try:
        return RunConfig(
            pairs=int(resolve(args.pairs, "pairs", DEFAULT_PAIRS)),
            fidelities=fidelities,
            dephase_p=float(resolve(args.dephase_p, "dephase_p", 0.0)),
            homodyne_error=float(
                resolve(args.homodyne_error, "homodyne_error", 0.0)
            ),
            evil_bob_flip_p=float(
                resolve(args.evil_bob_flip_p, "evil_bob_flip_p", 0.0)
            ),
            seed=int(seed),
            output_format=str(resolve(args.format, "format", DEFAULT_FORMAT)),
            out_path=resolve(args.out, "out", None),
            transcript_path=transcript_path,
            sweep=args.sweep if args.sweep is None else int(args.sweep),
        )
    except (ValueError, OverflowError) as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    cfg = parse_config(argv)
    started = time.perf_counter()
    try:
        if cfg.sweep is not None:
            doc = run_sweep(cfg)
            emit_report(doc, cfg.output_format, cfg.out_path)
            audit_ok = doc["sweep_aggregate"]["audit_all_passed"]
        else:
            report, transcript = execute_run(cfg)
            if cfg.transcript_path is not None:
                write_transcript(transcript, cfg.transcript_path)
            emit_report(report, cfg.output_format, cfg.out_path)
            audit_ok = report["audit_passed"]
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    duration = time.perf_counter() - started
    print(f"completed in {duration:.3f} s", file=sys.stderr)
    if not audit_ok:
        print("security audit FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
