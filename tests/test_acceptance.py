"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success) and pins its tolerance and runtime budget explicitly.
"""

import math
import time

import numpy as np

from hyperdistill import (
    BellClass,
    DeviceParams,
    FidelityVector,
    HyperComponent,
    PolarizationBell,
    QndOutcome,
    RunConfig,
    Transcript,
    analytic_phi_probability,
    audit,
    bell_vector,
    bob1_measure,
    build_branch_table,
    conditional_pol_state,
    execute_run,
    fidelity,
    measure_probes,
    oracle_conditional_pol_state,
    oracle_evolve,
    oracle_outcome_distribution,
    outcome_distribution,
    projector,
    run_protocol,
    trace_distance,
)
from hyperdistill.cli import serialize_report
from hyperdistill.protocol import (
    VIOLATION_ALICE_FEEDBACK,
    VIOLATION_ANGLE_TO_BOB2,
    VIOLATION_BOB_TO_BOB,
    VIOLATION_RESULT_FROM_BOB2,
    Message,
    Phase,
    Party,
    run_distillation,
    run_distribution,
)

S = QndOutcome.SHIFT
N = QndOutcome.NO_SHIFT
MIXED = FidelityVector(0.7, 0.1, 0.15, 0.05)

ALL_CASES = [
    HyperComponent(kind, 1.0, spatial_sign=sign)
    for kind in PolarizationBell
    for sign in (1, -1)
]


def report(number, name, ok):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_agreement_probability_law():
    started = time.perf_counter()
    maker = np.random.default_rng(2024)
    analytic_ok = True
    for _ in range(50):
        weights = maker.dirichlet((1.0, 1.0, 1.0, 1.0))
        fv = FidelityVector.from_components(weights.tolist())
        deviation = abs(analytic_phi_probability(fv) - (fv.f + fv.f1))
        analytic_ok &= deviation <= 1e-12
    doc, _ = execute_run(RunConfig(pairs=10_000, fidelities=MIXED, seed=1))
    empirical_ok = abs(doc["phi_class_frequency"] - 0.8) <= 0.012
    runtime_ok = time.perf_counter() - started < 5.0
    report(1, "agreement probability law", analytic_ok and empirical_ok and runtime_ok)


def test_criterion_2_deterministic_success():
    started = time.perf_counter()
    m = 100_000
    transcript = Transcript()
    components = run_distribution(
        m, MIXED, 0.0, np.random.default_rng(202), transcript
    )
    records = run_distillation(
        components, DeviceParams(), np.random.default_rng(203), transcript
    )
    complete = len(records) == m
    definite = all(
        r.inferred_class in (BellClass.PHI, BellClass.PSI) for r in records
    )
    normalized = all(
        abs(float(np.sum(np.abs(r.pair.pol_state.amplitudes) ** 2)) - 1.0) <= 1e-12
        for r in records
    )
    runtime_ok = time.perf_counter() - started < 30.0
    report(
        2,
        "deterministic success, no discarded pairs",
        complete and definite and normalized and runtime_ok,
    )


def test_criterion_3_component_state_checks():
    ok = True
    phi_plus_table = build_branch_table(HyperComponent(PolarizationBell.PHI_PLUS, 1.0))
    for pair in ((S, S), (N, N)):
        state = conditional_pol_state(phi_plus_table, pair)
        ok &= (
            abs(
                fidelity(projector(state), bell_vector(PolarizationBell.PHI_PLUS))
                - 1.0
            )
            <= 1e-12
        )
    psi_plus_table = build_branch_table(HyperComponent(PolarizationBell.PSI_PLUS, 1.0))
    for pair in ((S, N), (N, S)):
        state = conditional_pol_state(psi_plus_table, pair)
        ok &= (
            abs(
                fidelity(projector(state), bell_vector(PolarizationBell.PSI_PLUS))
                - 1.0
            )
            <= 1e-12
        )
    # minus components: class span preserved, exact phases match the oracle
    for kind, pairs, outside in (
        (PolarizationBell.PHI_MINUS, ((S, S), (N, N)), (1, 2)),
        (PolarizationBell.PSI_MINUS, ((S, N), (N, S)), (0, 3)),
    ):
        component = HyperComponent(kind, 1.0)
        table = build_branch_table(component)
        rho = oracle_evolve(component, DeviceParams())
        for pair in pairs:
            state = conditional_pol_state(table, pair)
            ok &= all(abs(state.amplitudes[i]) <= 1e-12 for i in outside)
            oracle_state = oracle_conditional_pol_state(rho, pair)
            ok &= fidelity(oracle_state, state) >= 1.0 - 1e-12
    report(3, "component state checks", ok)


def test_criterion_4_routing_rule():
    rng = np.random.default_rng(404)
    params = DeviceParams()
    exceptions = 0
    per_component = 2500  # 4 components x 2500 = 1e4 sampled pairs
    for kind in PolarizationBell:
        table = build_branch_table(HyperComponent(kind, 1.0))
        for _ in range(per_component):
            pair = measure_probes(table, params, rng)
            if (pair.outcome_a is N) != (pair.output_mode_a == "a5"):
                exceptions += 1
            if (pair.outcome_b is N) != (pair.output_mode_b == "b5"):
                exceptions += 1
    report(4, "upper-mode routing rule", exceptions == 0)


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    params = DeviceParams()
    ok = True
    for component in ALL_CASES:
        table = build_branch_table(component)
        dist = outcome_distribution(table)
        rho = oracle_evolve(component, params)
        oracle_dist = oracle_outcome_distribution(rho)
        ok &= all(abs(dist[k] - oracle_dist[k]) <= 1e-10 for k in dist)
        for pair, prob in dist.items():
            if prob < 1e-12:
                continue
            engine_state = projector(conditional_pol_state(table, pair))
            oracle_state = oracle_conditional_pol_state(rho, pair)
            ok &= trace_distance(engine_state, oracle_state) <= 1e-10
    runtime_ok = time.perf_counter() - started < 1.0
    report(5, "branch engine vs full-Hilbert oracle", ok and runtime_ok)


def _violation_message(kind, seq):
    if kind == VIOLATION_BOB_TO_BOB:
        return Message(seq, Phase.DISTILLATION, Party.BOB1, Party.BOB2,
                       "qnd_outcome", "Shift")
    if kind == VIOLATION_ALICE_FEEDBACK:
        return Message(seq, Phase.DISTRIBUTION, Party.ALICE, Party.BOB1,
                       "quantum_marker", "0")
    if kind == VIOLATION_ANGLE_TO_BOB2:
        return Message(seq, Phase.ANGLE_ANNOUNCEMENT, Party.ALICE, Party.BOB2,
                       "angle", "0.0")
    return Message(seq, Phase.RESULT_REPORT, Party.BOB2, Party.ALICE,
                   "result_bit", "0")


def _inject(transcript, kind, position):
    messages = list(transcript.messages)
    position = position % (len(messages) + 1)
    lines = []
    seq = 1
    for i in range(len(messages) + 1):
        if i == position:
            lines.append(_violation_message(kind, seq).to_line())
            seq += 1
        if i < len(messages):
            msg = messages[i]
            lines.append(
                Message(seq, msg.phase, msg.sender, msg.recipient,
                        msg.payload_kind, msg.payload).to_line()
            )
            seq += 1
    return Transcript.from_lines(lines)


def test_criterion_6_security_audit():
    kinds = (
        VIOLATION_BOB_TO_BOB,
        VIOLATION_ALICE_FEEDBACK,
        VIOLATION_ANGLE_TO_BOB2,
        VIOLATION_RESULT_FROM_BOB2,
    )
    position_rng = np.random.default_rng(606)
    clean_ok = True
    tamper_ok = True
    for seed in range(1000):
        run = run_protocol(m=2, fv=MIXED, seed=seed)
        clean_ok &= audit(run.transcript).passed
        kind = kinds[seed % 4]
        tampered = _inject(
            run.transcript, kind, int(position_rng.integers(10_000))
        )
        verdict = audit(tampered)
        tamper_ok &= (
            not verdict.passed
            and len(verdict.violations) == 1
            and verdict.violations[0].kind == kind
        )
    report(6, "security audit", clean_ok and tamper_ok)


def test_criterion_7_delegated_measurement_statistics():
    table = build_branch_table(HyperComponent(PolarizationBell.PHI_PLUS, 1.0))
    pair = measure_probes(table, DeviceParams(), np.random.default_rng(40))
    n = 10_000
    three_sigma = 3.0 * math.sqrt(0.25 / n)
    frequencies_ok = True
    residuals_ok = True
    for k in range(8):
        angle = k * math.pi / 4
        rng = np.random.default_rng(1000 + k)
        transcript = Transcript()
        zeros = 0
        for _ in range(n):
            a_bit, residual = bob1_measure(pair, angle, rng, transcript)
            zeros += a_bit == 0
            # projection-algebra oracle: full 4x4 projector, then reduce
            sign = 1.0 if a_bit == 0 else -1.0
            phi = np.array([1.0, sign * np.exp(-1j * angle)]) / math.sqrt(2.0)
            proj = np.kron(np.outer(phi, phi.conj()), np.eye(2))
            rho = np.outer(pair.pol_state.amplitudes,
                           np.conj(pair.pol_state.amplitudes))
            post = proj @ rho @ proj
            post /= np.trace(post).real
            reduced = np.einsum("ijik->jk", post.reshape(2, 2, 2, 2))
            overlap = np.vdot(residual.amplitudes,
                              reduced @ residual.amplitudes).real
            residuals_ok &= overlap > 1.0 - 1e-10
        frequencies_ok &= abs(zeros / n - 0.5) <= three_sigma
    report(
        7,
        "delegated measurement statistics",
        frequencies_ok and residuals_ok,
    )


def test_criterion_8_byte_identical_reports():
    cfg = RunConfig(
        pairs=1000, fidelities=MIXED, dephase_p=0.05, seed=88,
    )
    report_a, transcript_a = execute_run(cfg)
    report_b, transcript_b = execute_run(cfg)
    same_json = serialize_report(report_a, "json") == serialize_report(report_b, "json")
    same_csv = serialize_report(report_a, "csv") == serialize_report(report_b, "csv")
    same_transcript = transcript_a.to_bytes() == transcript_b.to_bytes()
    report(8, "byte-identical reports and transcripts", same_json and same_csv
           and same_transcript)
