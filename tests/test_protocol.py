import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdistill import (
    BellClass,
    DeviceParams,
    FidelityVector,
    HyperComponent,
    Message,
    Party,
    Phase,
    PolarizationBell,
    QndOutcome,
    Transcript,
    alice_announce_angles,
    analytic_phi_probability,
    audit,
    bob1_measure,
    build_branch_table,
    handoff_single_server,
    infer_bell_class,
    measure_probes,
    run_distillation,
    run_distribution,
    run_protocol,
)
from hyperdistill.protocol import (
    VIOLATION_ALICE_FEEDBACK,
    VIOLATION_ANGLE_TO_BOB2,
    VIOLATION_BOB_TO_BOB,
    VIOLATION_RESULT_FROM_BOB2,
)
from hyperdistill.qnd import OUTCOME_PAIRS

S = QndOutcome.SHIFT
N = QndOutcome.NO_SHIFT
MIXED_FV = FidelityVector(0.7, 0.1, 0.15, 0.05)


def fresh_transcript():
    return Transcript()


# --- independent projection oracle for the rotated-basis measurement ----------


def projection_oracle(state_amps, sent_angle, bit):
    """Probability and Bob2 residual via full density-matrix algebra."""
    sign = 1.0 if bit == 0 else -1.0
    phi = np.array([1.0, sign * np.exp(-1j * sent_angle)], dtype=complex)
    phi /= math.sqrt(2.0)
    proj = np.kron(np.outer(phi, phi.conj()), np.eye(2, dtype=complex))
    rho = np.outer(state_amps, np.conj(state_amps))
    post = proj @ rho @ proj
    p = float(np.trace(post).real)
    if p < 1e-12:
        return p, None
    residual = np.einsum("ijik->jk", (post / p).reshape(2, 2, 2, 2))
    return p, residual


# --- distribution ---------------------------------------------------------------


def test_noiseless_distribution_single_pair():
    transcript = fresh_transcript()
    comps = run_distribution(
        1, FidelityVector(1, 0, 0, 0), 0.0, np.random.default_rng(0), transcript
    )
    assert len(comps) == 1
    assert comps[0].pol is PolarizationBell.PHI_PLUS
    assert comps[0].spatial_sign == 1


def test_distribution_rejects_zero_pairs():
    with pytest.raises(ValueError, match=">= 1"):
        run_distribution(
            0, MIXED_FV, 0.0, np.random.default_rng(0), fresh_transcript()
        )


def test_distribution_counts_within_three_sigma():
    transcript = fresh_transcript()
    m = 10_000
    comps = run_distribution(m, MIXED_FV, 0.0, np.random.default_rng(7), transcript)
    counts = collections.Counter(c.pol for c in comps)
    for kind, weight in zip(
        (PolarizationBell.PHI_PLUS, PolarizationBell.PHI_MINUS,
         PolarizationBell.PSI_PLUS, PolarizationBell.PSI_MINUS),
        MIXED_FV.as_tuple(),
    ):
        sigma = math.sqrt(m * weight * (1.0 - weight))
        assert abs(counts[kind] - m * weight) <= 3 * sigma


def test_distribution_message_shape():
    transcript = fresh_transcript()
    m = 25
    run_distribution(m, MIXED_FV, 0.0, np.random.default_rng(3), transcript)
    msgs = transcript.messages
    assert len(msgs) == 2 * m
    assert all(msg.phase is Phase.DISTRIBUTION for msg in msgs)
    assert all(msg.sender is Party.SOURCE for msg in msgs)
    recipients = collections.Counter(msg.recipient for msg in msgs)
    assert recipients == {Party.BOB1: m, Party.BOB2: m}


# --- distillation ---------------------------------------------------------------


def test_clean_input_distills_perfect_phi_pairs():
    transcript = fresh_transcript()
    comps = run_distribution(
        50, FidelityVector(1, 0, 0, 0), 0.0, np.random.default_rng(1), transcript
    )
    records = run_distillation(
        comps, DeviceParams(), np.random.default_rng(2), transcript
    )
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for record in records:
        assert record.inferred_class is BellClass.PHI
        assert record.true_class is BellClass.PHI
        np.testing.assert_allclose(
            record.pair.pol_state.amplitudes,
            [inv_sqrt2, 0, 0, inv_sqrt2],
            atol=1e-12,
        )


def test_distillation_class_fraction_within_three_sigma():
    transcript = fresh_transcript()
    m = 10_000
    comps = run_distribution(m, MIXED_FV, 0.0, np.random.default_rng(7), transcript)
    records = run_distillation(
        comps, DeviceParams(), np.random.default_rng(8), transcript
    )
    phi = sum(r.inferred_class is BellClass.PHI for r in records)
    sigma = math.sqrt(0.8 * 0.2 / m)
    assert abs(phi / m - 0.8) <= 3 * sigma


def test_distillation_message_shape():
    transcript = fresh_transcript()
    m = 30
    comps = run_distribution(m, MIXED_FV, 0.0, np.random.default_rng(5), transcript)
    before = len(transcript.messages)
    run_distillation(comps, DeviceParams(), np.random.default_rng(6), transcript)
    distill_msgs = transcript.messages[before:]
    assert len(distill_msgs) == 2 * m
    assert all(msg.phase is Phase.DISTILLATION for msg in distill_msgs)
    assert all(msg.recipient is Party.ALICE for msg in distill_msgs)
    senders = collections.Counter(msg.sender for msg in distill_msgs)
    assert senders == {Party.BOB1: m, Party.BOB2: m}


def test_distillation_rejects_empty_input():
    with pytest.raises(ValueError, match="nonempty"):
        run_distillation(
            [], DeviceParams(), np.random.default_rng(0), fresh_transcript()
        )


def test_homodyne_misreads_diverge_from_physical_class():
    transcript = fresh_transcript()
    comps = run_distribution(
        2000, FidelityVector(1, 0, 0, 0), 0.0, np.random.default_rng(51), transcript
    )
    records = run_distillation(
        comps,
        DeviceParams(homodyne_error=0.1),
        np.random.default_rng(52),
        transcript,
    )
    mismatches = sum(r.inferred_class is not r.true_class for r in records)
    # every state is physically Phi-class; a single-sided misread flips
    # the inferred class, so P(mismatch) = 2 p (1-p) = 0.18
    assert all(r.true_class is BellClass.PHI for r in records)
    p = 2 * 0.1 * 0.9
    sigma = math.sqrt(p * (1 - p) / 2000)
    assert abs(mismatches / 2000 - p) <= 3 * sigma


def test_evil_bob_inverts_inferred_classes():
    transcript = fresh_transcript()
    comps = run_distribution(
        40, FidelityVector(1, 0, 0, 0), 0.0, np.random.default_rng(1), transcript
    )
    records = run_distillation(
        comps,
        DeviceParams(),
        np.random.default_rng(2),
        transcript,
        evil_bob_flip_p=1.0,
    )
    for record in records:
        assert record.true_class is BellClass.PHI
        assert record.inferred_class is BellClass.PSI
        assert record.reported_a is record.pair.outcome_a.flipped()
        assert record.reported_b is record.pair.outcome_b


# --- class inference -------------------------------------------------------------


def test_inference_rule():
    assert infer_bell_class(S, S) is BellClass.PHI
    assert infer_bell_class(N, N) is BellClass.PHI
    assert infer_bell_class(S, N) is BellClass.PSI
    assert infer_bell_class(N, S) is BellClass.PSI


@given(st.sampled_from([S, N]), st.sampled_from([S, N]))
def test_inference_is_symmetric(a, b):
    assert infer_bell_class(a, b) is infer_bell_class(b, a)


@settings(max_examples=50)
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda vs: sum(vs) > 1e-3
))
def test_analytic_phi_probability_equals_f_plus_f1(raw):
    total = sum(raw)
    fv = FidelityVector.from_components([v / total for v in raw])
    assert analytic_phi_probability(fv) == pytest.approx(
        fv.f + fv.f1, abs=1e-12
    )
    # dephasing does not change the readout statistics
    assert analytic_phi_probability(fv, dephase_p=0.3) == pytest.approx(
        fv.f + fv.f1, abs=1e-12
    )


# --- angle announcement ------------------------------------------------------------


def test_angle_sign_follows_class():
    transcript = fresh_transcript()
    classes = [BellClass.PHI, BellClass.PSI] * 500
    rounds = alice_announce_angles(classes, np.random.default_rng(11), transcript)
    for bell_class, bqc_round in zip(classes, rounds):
        assert bqc_round.theta == bqc_round.theta_index * math.pi / 4
        if bell_class is BellClass.PHI:
            assert bqc_round.sent_angle == bqc_round.theta
        else:
            assert bqc_round.sent_angle == pytest.approx(-bqc_round.theta)
    # spot the concrete cases: 3pi/4 for a Phi pair, -pi/4 for a Psi pair
    phi_example = next(
        r for r in rounds if r.bell_class is BellClass.PHI and r.theta_index == 3
    )
    assert phi_example.sent_angle == pytest.approx(3 * math.pi / 4)
    psi_example = next(
        r for r in rounds if r.bell_class is BellClass.PSI and r.theta_index == 1
    )
    assert psi_example.sent_angle == pytest.approx(-math.pi / 4)


def test_angle_messages_target_bob1_only():
    transcript = fresh_transcript()
    rounds = alice_announce_angles(
        [BellClass.PHI] * 20, np.random.default_rng(0), transcript
    )
    msgs = transcript.messages
    assert len(msgs) == 20
    assert all(msg.phase is Phase.ANGLE_ANNOUNCEMENT for msg in msgs)
    assert all(
        (msg.sender, msg.recipient) == (Party.ALICE, Party.BOB1) for msg in msgs
    )
    for msg, bqc_round in zip(msgs, rounds):
        assert float(msg.payload) == bqc_round.sent_angle


def test_angle_frequencies_uniform_within_three_sigma():
    transcript = fresh_transcript()
    m = 10_000
    rounds = alice_announce_angles(
        [BellClass.PHI] * m, np.random.default_rng(9), transcript
    )
    counts = collections.Counter(r.theta_index for r in rounds)
    sigma = math.sqrt(0.125 * 0.875 / m)
    for k in range(8):
        assert abs(counts[k] / m - 0.125) <= 3 * sigma


# --- Bob1 measurement -------------------------------------------------------------


def distilled_pair_for(kind):
    table = build_branch_table(HyperComponent(kind, 1.0))
    return measure_probes(table, DeviceParams(), np.random.default_rng(14))


def test_phi_pair_measurement_is_unbiased():
    pair = distilled_pair_for(PolarizationBell.PHI_PLUS)
    n = 4_000
    rng = np.random.default_rng(15)
    ones = 0
    for _ in range(n):
        a_bit, _ = bob1_measure(pair, math.pi / 4, rng, fresh_transcript())
        ones += a_bit
    sigma = math.sqrt(0.25 / n)
    assert abs(ones / n - 0.5) <= 3 * sigma
    # exact Born weights from the independent oracle
    p0, _ = projection_oracle(pair.pol_state.amplitudes, math.pi / 4, 0)
    assert p0 == pytest.approx(0.5, abs=1e-12)


def test_phi_pair_residual_matches_projection_oracle():
    pair = distilled_pair_for(PolarizationBell.PHI_PLUS)
    theta = 3 * math.pi / 4
    rng = np.random.default_rng(16)
    seen_bits = set()
    for _ in range(30):
        transcript = fresh_transcript()
        a_bit, residual = bob1_measure(pair, theta, rng, transcript)
        seen_bits.add(a_bit)
        _, oracle_dm = projection_oracle(pair.pol_state.amplitudes, theta, a_bit)
        overlap = np.vdot(
            residual.amplitudes, oracle_dm @ residual.amplitudes
        ).real
        assert overlap >= 1.0 - 1e-10
        if a_bit == 0:
            expected = np.array([1.0, np.exp(1j * theta)]) / math.sqrt(2.0)
            assert abs(np.vdot(expected, residual.amplitudes)) ** 2 == pytest.approx(
                1.0, abs=1e-12
            )
    assert seen_bits == {0, 1}


def test_psi_pair_residual_with_negative_angle():
    pair = distilled_pair_for(PolarizationBell.PSI_PLUS)
    theta = math.pi / 4
    rng = np.random.default_rng(17)
    expected = np.array([np.exp(-1j * theta), 1.0]) / math.sqrt(2.0)
    for _ in range(30):
        a_bit, residual = bob1_measure(pair, -theta, rng, fresh_transcript())
        if a_bit == 0:
            assert abs(np.vdot(expected, residual.amplitudes)) ** 2 == pytest.approx(
                1.0, abs=1e-12
            )
            break
    else:
        pytest.fail("bit 0 never sampled in 30 draws")


def test_bob1_reports_one_bit_per_round():
    pair = distilled_pair_for(PolarizationBell.PHI_MINUS)
    transcript = fresh_transcript()
    a_bit, _ = bob1_measure(pair, 0.0, np.random.default_rng(18), transcript)
    msgs = transcript.messages
    assert len(msgs) == 1
    assert msgs[0].phase is Phase.RESULT_REPORT
    assert (msgs[0].sender, msgs[0].recipient) == (Party.BOB1, Party.ALICE)
    assert msgs[0].payload == str(a_bit)


# --- handoff ----------------------------------------------------------------------


def inferred_phi_count(run):
    """Pairs whose reported readouts Alice labels Phi-class, one by one."""
    return sum(
        infer_bell_class(*OUTCOME_PAIRS[r]) is BellClass.PHI
        for r in run.reported.tolist()
    )


def test_handoff_summary_and_marker():
    run = run_protocol(m=3, fv=MIXED_FV, seed=12)
    assert len(run.case) == 3
    phi_count = int(np.count_nonzero(run.inferred_phi))
    assert phi_count + int(np.count_nonzero(~run.inferred_phi)) == 3
    assert len(run.signed_angle_index) == len(run.a_bit) == 3
    assert phi_count == inferred_phi_count(run)
    handoff_msgs = [
        m for m in run.transcript.messages if m.phase is Phase.HANDOFF
    ]
    assert len(handoff_msgs) == 1
    assert (handoff_msgs[0].sender, handoff_msgs[0].recipient) == (
        Party.ALICE,
        Party.BOB2,
    )


def test_handoff_rejects_incomplete_rounds():
    transcript = fresh_transcript()
    rounds = alice_announce_angles(
        [BellClass.PHI, BellClass.PSI], np.random.default_rng(0), transcript
    )
    pair = distilled_pair_for(PolarizationBell.PHI_PLUS)
    a_bit, residual = bob1_measure(
        pair, rounds[0].sent_angle, np.random.default_rng(1), transcript
    )
    rounds[0].a_bit = a_bit
    with pytest.raises(ValueError, match="no reported bit"):
        handoff_single_server(rounds, (residual, residual), transcript)


# --- audit ------------------------------------------------------------------------


def test_engine_transcript_passes_audit():
    run = run_protocol(m=10, fv=MIXED_FV, seed=1)
    report = audit(run.transcript)
    assert report.passed
    assert report.violations == ()


def make_violation_message(kind, seq):
    if kind == VIOLATION_BOB_TO_BOB:
        return Message(seq, Phase.DISTILLATION, Party.BOB1, Party.BOB2,
                       "qnd_outcome", "Shift")
    if kind == VIOLATION_ALICE_FEEDBACK:
        return Message(seq, Phase.DISTILLATION, Party.ALICE, Party.BOB1,
                       "qnd_outcome", "NoShift")
    if kind == VIOLATION_ANGLE_TO_BOB2:
        return Message(seq, Phase.ANGLE_ANNOUNCEMENT, Party.ALICE, Party.BOB2,
                       "angle", "0.0")
    if kind == VIOLATION_RESULT_FROM_BOB2:
        return Message(seq, Phase.RESULT_REPORT, Party.BOB2, Party.ALICE,
                       "result_bit", "1")
    raise AssertionError(kind)


def inject(transcript, kind, position):
    """Rebuild a transcript with one forbidden message spliced in."""
    messages = list(transcript.messages)
    position = position % (len(messages) + 1)
    lines = []
    seq = 1
    for i in range(len(messages) + 1):
        if i == position:
            lines.append(make_violation_message(kind, seq).to_line())
            seq += 1
        if i < len(messages):
            msg = messages[i]
            lines.append(
                Message(seq, msg.phase, msg.sender, msg.recipient,
                        msg.payload_kind, msg.payload).to_line()
            )
            seq += 1
    return Transcript.from_lines(lines)


ALL_VIOLATION_KINDS = (
    VIOLATION_BOB_TO_BOB,
    VIOLATION_ALICE_FEEDBACK,
    VIOLATION_ANGLE_TO_BOB2,
    VIOLATION_RESULT_FROM_BOB2,
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL_VIOLATION_KINDS),
    st.integers(0, 10_000),
    st.integers(0, 2**16),
)
def test_injected_violations_are_detected(kind, position, seed):
    run = run_protocol(m=2, fv=MIXED_FV, seed=seed)
    tampered = inject(run.transcript, kind, position)
    report = audit(tampered)
    assert not report.passed
    assert len(report.violations) == 1
    assert report.violations[0].kind == kind


def test_transcript_line_roundtrip():
    run = run_protocol(m=4, fv=MIXED_FV, seed=3)
    lines = run.transcript.to_lines()
    reparsed = Transcript.from_lines(lines)
    assert reparsed.to_lines() == lines
    assert audit(reparsed).passed


def test_message_payload_kind_must_match_phase():
    with pytest.raises(ValueError, match="carries"):
        Message(1, Phase.DISTILLATION, Party.BOB1, Party.ALICE, "angle", "0.0")


def test_transcript_rejects_non_monotone_seq():
    run = run_protocol(m=2, fv=MIXED_FV, seed=3)
    lines = run.transcript.to_lines()
    with pytest.raises(ValueError, match="increasing"):
        Transcript.from_lines([lines[0], lines[0]])


# --- whole-run determinism -----------------------------------------------------------


def test_identical_seed_gives_identical_transcript():
    first = run_protocol(m=200, fv=MIXED_FV, dephase_p=0.2, seed=99)
    second = run_protocol(m=200, fv=MIXED_FV, dephase_p=0.2, seed=99)
    assert first.transcript.to_bytes() == second.transcript.to_bytes()
    for column in ("case", "reported", "theta_index", "signed_angle_index", "a_bit"):
        assert getattr(first, column).tolist() == getattr(second, column).tolist()


def test_class_counts_conserved():
    run = run_protocol(m=500, fv=MIXED_FV, seed=5)
    phi = int(np.count_nonzero(run.inferred_phi))
    psi = int(np.count_nonzero(~run.inferred_phi))
    assert phi + psi == 500
    assert phi == inferred_phi_count(run)
