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
import hashlib
import io
import json
import math
import secrets
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .protocol import (
    ANGLE_COUNT,
    DRAWS_PER_PAIR,
    MAX_PAIRS,
    ProtocolRun,
    Transcript,
    analytic_phi_probability,
    inferred_phi_probability,
    run_protocol,
)
from .qnd import DeviceParams
from .states import FidelityVector

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
                f"pairs {self.pairs} exceeds {MAX_PAIRS}: a run holds up to "
                f"{DRAWS_PER_PAIR} float64 uniforms per pair in one array"
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
        }

    def run_id(self) -> str:
        """Deterministic run identifier from the seed and a config digest."""
        payload = json.dumps(self.echo(), sort_keys=True)
        digest = hashlib.sha256(f"{self.seed}:{payload}".encode("utf-8")).hexdigest()
        return f"run-{digest[:12]}"


def _mean_or_none(values: np.ndarray) -> float | None:
    """Mean of the values added one by one in pair order, or None if empty."""
    if not values.size:
        return None
    return float(np.cumsum(values)[-1] / values.size)


def execute_run(cfg: RunConfig) -> tuple[dict, Transcript]:
    """Run the full protocol once; return the report document and transcript.

    The document's key order is that of the JSON report. The fidelity
    means are grouped by the ground-truth class of each surviving state;
    the class counts are Alice's view, inferred from the readouts as
    reported. The two diverge under readout misclassification or
    misreporting, counted in ``class_mismatch_count``.
    """
    run: ProtocolRun = run_protocol(
        m=cfg.pairs,
        fv=cfg.fidelities,
        params=cfg.device_params(),
        dephase_p=cfg.dephase_p,
        evil_bob_flip_p=cfg.evil_bob_flip_p,
        seed=cfg.seed,
    )
    inferred_phi = run.inferred_phi
    true_phi = run.true_phi
    fidelities = run.fidelities
    phi_fidelities = fidelities[true_phi]
    psi_fidelities = fidelities[~true_phi]
    phi_count = int(np.count_nonzero(inferred_phi))
    psi_count = cfg.pairs - phi_count
    angle_counts = np.bincount(run.theta_index, minlength=ANGLE_COUNT)
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
        "class_mismatch_count": int(np.count_nonzero(inferred_phi != true_phi)),
        "mean_phi_pair_fidelity_phi_plus": _mean_or_none(phi_fidelities[:, 0]),
        "mean_phi_pair_fidelity_phi_minus": _mean_or_none(phi_fidelities[:, 1]),
        "mean_psi_pair_fidelity_psi_plus": _mean_or_none(psi_fidelities[:, 2]),
        "mean_psi_pair_fidelity_psi_minus": _mean_or_none(psi_fidelities[:, 3]),
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
            fh.writelines(transcript.iter_bytes())
    except OSError as exc:
        raise OSError(f"cannot write transcript to {destination!r}: {exc}") from exc


# --- seed sweep --------------------------------------------------------------


def _sweep_single(args: tuple[RunConfig, int]) -> dict:
    cfg, seed = args
    return execute_run(dataclasses.replace(cfg, seed=seed, sweep=None))[0]


def run_sweep(cfg: RunConfig) -> dict:
    """Run ``cfg.sweep`` consecutive seeds in parallel worker processes."""
    n = int(cfg.sweep or 1)
    seeds = [cfg.seed + i for i in range(n)]
    jobs = [(cfg, seed) for seed in seeds]
    if n == 1:
        runs = [_sweep_single(jobs[0])]
    else:
        with ProcessPoolExecutor() as pool:
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
        except (OSError, ValueError) as exc:
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
