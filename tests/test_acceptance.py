"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success) and pins its tolerance and runtime budget explicitly.
"""

import math
import time

import numpy as np

from hyperdistill import (
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
    execute_run,
    fidelity,
    oracle_conditional_pol_state,
    oracle_evolve,
    oracle_outcome_distribution,
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
    SIGNED_ANGLES,
    pair_table,
)
from hyperdistill.qnd import CASES, OUTCOME_PAIRS

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
    run = run_protocol(m, MIXED, seed=202)
    table = pair_table()
    complete = len(run.case) == len(run.readout) == len(run.inferred_phi) == m
    definite = run.inferred_phi.dtype == np.dtype(bool)
    # Every (case, readout) the run meets has a surviving, normalised state.
    met = np.unique(4 * run.case.astype(int) + run.readout)
    normalized = all(
        table.survives[c // 4, c % 4]
        and abs(float(np.sum(np.abs(table.states[c // 4][c % 4].amplitudes) ** 2)) - 1.0)
        <= 1e-12
        for c in met.tolist()
    )
    runtime_ok = time.perf_counter() - started < 30.0
    report(
        2,
        "deterministic success, no discarded pairs",
        complete and definite and normalized and runtime_ok,
    )


def test_criterion_3_component_state_checks():
    table = pair_table()
    ok = True
    for kind, pairs in (
        (PolarizationBell.PHI_PLUS, ((S, S), (N, N))),
        (PolarizationBell.PSI_PLUS, ((S, N), (N, S))),
    ):
        states = table.states[CASES.index((kind, 1))]
        for pair in pairs:
            state = states[OUTCOME_PAIRS.index(pair)]
            ok &= abs(fidelity(projector(state), bell_vector(kind)) - 1.0) <= 1e-12
    # minus components: class span preserved, exact phases match the oracle
    for kind, pairs, outside in (
        (PolarizationBell.PHI_MINUS, ((S, S), (N, N)), (1, 2)),
        (PolarizationBell.PSI_MINUS, ((S, N), (N, S)), (0, 3)),
    ):
        states = table.states[CASES.index((kind, 1))]
        rho = oracle_evolve(HyperComponent(kind, 1.0), DeviceParams())
        for pair in pairs:
            state = states[OUTCOME_PAIRS.index(pair)]
            ok &= all(abs(state.amplitudes[i]) <= 1e-12 for i in outside)
            oracle_state = oracle_conditional_pol_state(rho, pair)
            ok &= fidelity(oracle_state, state) >= 1.0 - 1e-12
    report(3, "component state checks", ok)


def test_criterion_4_routing_rule():
    # In the oracle's 64 indices (pol-A, port-A, pol-B, port-B, outcome-A,
    # outcome-B), port 0 is the upper port (a5, b5) and outcome 0 is
    # NoShift: every photon must leave by the port its outcome names.
    exceptions = 0
    for component in ALL_CASES:
        rho = oracle_evolve(component, DeviceParams())
        diag = np.diag(rho.entries).real.reshape(2, 2, 2, 2, 2, 2)
        _, port_a, _, port_b, out_a, out_b = np.indices(diag.shape)
        exceptions += np.count_nonzero(diag[(port_a != out_a) | (port_b != out_b)])
    report(4, "upper-mode routing rule", exceptions == 0)


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    table = pair_table()
    params = DeviceParams()
    ok = True
    for c, (kind, sign) in enumerate(CASES):
        rho = oracle_evolve(HyperComponent(kind, 1.0, sign), params)
        oracle_dist = oracle_outcome_distribution(rho)
        for r, pair in enumerate(OUTCOME_PAIRS):
            ok &= abs(table.probs[c, r] - oracle_dist[pair]) <= 1e-10
            if table.probs[c, r] < 1e-12:
                continue
            engine_state = projector(table.states[c][r])
            oracle_state = oracle_conditional_pol_state(rho, pair)
            ok &= trace_distance(engine_state, oracle_state) <= 1e-10
    runtime_ok = time.perf_counter() - started < 1.0
    report(5, "pair table vs full-Hilbert oracle", ok and runtime_ok)


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
    run = run_protocol(80_000, MIXED, seed=40)
    table = pair_table()
    frequencies_ok = True
    for k in range(8):
        bits = run.a_bit[run.theta_index == k]
        n = len(bits)
        three_sigma = 3.0 * math.sqrt(0.25 / n)
        frequencies_ok &= abs(np.count_nonzero(bits == 0) / n - 0.5) <= three_sigma
    residuals_ok = True
    # Every (case, readout, angle, bit) the run meets: Bob2's residual from
    # the full 4x4 projector is (|H> +- e^{i theta}|V>)/sqrt(2).
    met = {
        (c, r, a, bit) for c, r, a, bit in zip(
            run.case.tolist(), run.readout.tolist(),
            run.signed_angle_index.tolist(), run.a_bit.tolist(),
        )
    }
    for c, r, a, a_bit in met:
        theta = (a % 8) * math.pi / 4
        amplitudes = table.states[c][r].amplitudes
        sign = 1.0 if a_bit == 0 else -1.0
        phi = np.array([1.0, sign * np.exp(-1j * SIGNED_ANGLES[a])]) / math.sqrt(2.0)
        proj = np.kron(np.outer(phi, phi.conj()), np.eye(2))
        rho = np.outer(amplitudes, np.conj(amplitudes))
        post = proj @ rho @ proj
        post /= np.trace(post).real
        reduced = np.einsum("ijik->jk", post.reshape(2, 2, 2, 2))
        overlap = max(
            np.vdot(residual, reduced @ residual).real
            for residual in (
                np.array([1.0, s * np.exp(1j * theta)]) / math.sqrt(2.0) for s in (1.0, -1.0)
            )
        )
        residuals_ok &= overlap > 1.0 - 1e-10
    # Four Bell kinds, two readouts each, eight angles of the right sign, two bits.
    residuals_ok &= len(met) == 4 * 2 * 8 * 2
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
