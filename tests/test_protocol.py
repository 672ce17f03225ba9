import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdistill import (
    DeviceParams,
    FidelityVector,
    Message,
    Party,
    Phase,
    PolarizationBell,
    QndOutcome,
    Transcript,
    analytic_phi_probability,
    audit,
    run_protocol,
)
from hyperdistill.protocol import (
    SIGNED_ANGLES,
    VIOLATION_ALICE_FEEDBACK,
    VIOLATION_ANGLE_TO_BOB2,
    VIOLATION_BOB_TO_BOB,
    VIOLATION_RESULT_FROM_BOB2,
    pair_table,
)
from hyperdistill.qnd import CASES, OUTCOME_PAIRS
from hyperdistill.states import ENSEMBLE_ORDER

S = QndOutcome.SHIFT
N = QndOutcome.NO_SHIFT
MIXED_FV = FidelityVector(0.7, 0.1, 0.15, 0.05)
PHI_PLUS_ONLY = FidelityVector(1, 0, 0, 0)


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


def phase_messages(run, phase):
    return [msg for msg in run.transcript.messages if msg.phase is phase]


def test_noiseless_distribution_single_pair():
    run = run_protocol(1, PHI_PLUS_ONLY, seed=0)
    assert [CASES[c] for c in run.case.tolist()] == [(PolarizationBell.PHI_PLUS, 1)]


def test_distribution_rejects_zero_pairs():
    with pytest.raises(ValueError, match=">= 1"):
        run_protocol(0, MIXED_FV)


def test_distribution_counts_within_three_sigma():
    m = 10_000
    run = run_protocol(m, MIXED_FV, seed=7)
    counts = collections.Counter(CASES[c][0] for c in run.case.tolist())
    for kind, weight in zip(ENSEMBLE_ORDER, MIXED_FV.as_tuple()):
        sigma = math.sqrt(m * weight * (1.0 - weight))
        assert abs(counts[kind] - m * weight) <= 3 * sigma


def test_distribution_message_shape():
    m = 25
    msgs = phase_messages(run_protocol(m, MIXED_FV, seed=3), Phase.DISTRIBUTION)
    assert len(msgs) == 2 * m
    assert [msg.seq for msg in msgs] == list(range(1, 2 * m + 1))
    assert all(msg.sender is Party.SOURCE for msg in msgs)
    recipients = collections.Counter(msg.recipient for msg in msgs)
    assert recipients == {Party.BOB1: m, Party.BOB2: m}


# --- distillation ---------------------------------------------------------------


def test_clean_input_distills_perfect_phi_pairs():
    run = run_protocol(50, PHI_PLUS_ONLY, seed=1)
    states = pair_table().states
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert run.inferred_phi.all() and run.true_phi.all()
    for c, r in zip(run.case.tolist(), run.readout.tolist()):
        np.testing.assert_allclose(
            states[c][r].amplitudes, [inv_sqrt2, 0, 0, inv_sqrt2], atol=1e-12
        )


def test_distillation_class_fraction_within_three_sigma():
    m = 10_000
    run = run_protocol(m, MIXED_FV, seed=7)
    phi = int(np.count_nonzero(run.inferred_phi))
    sigma = math.sqrt(0.8 * 0.2 / m)
    assert abs(phi / m - 0.8) <= 3 * sigma


def test_distillation_message_shape():
    m = 30
    msgs = phase_messages(run_protocol(m, MIXED_FV, seed=5), Phase.DISTILLATION)
    assert len(msgs) == 2 * m
    assert [msg.seq for msg in msgs] == list(range(2 * m + 1, 4 * m + 1))
    assert all(msg.recipient is Party.ALICE for msg in msgs)
    senders = collections.Counter(msg.sender for msg in msgs)
    assert senders == {Party.BOB1: m, Party.BOB2: m}


def test_homodyne_misreads_diverge_from_physical_class():
    run = run_protocol(2000, PHI_PLUS_ONLY, DeviceParams(homodyne_error=0.1), seed=51)
    mismatches = int(np.count_nonzero(run.inferred_phi != run.true_phi))
    # every state is physically Phi-class; a single-sided misread flips
    # the inferred class, so P(mismatch) = 2 p (1-p) = 0.18
    assert run.true_phi.all()
    p = 2 * 0.1 * 0.9
    sigma = math.sqrt(p * (1 - p) / 2000)
    assert abs(mismatches / 2000 - p) <= 3 * sigma


def test_evil_bob_inverts_inferred_classes():
    run = run_protocol(40, PHI_PLUS_ONLY, seed=1, evil_bob_flip_p=1.0)
    assert run.true_phi.all()
    assert not run.inferred_phi.any()
    for recorded, reported in zip(run.recorded.tolist(), run.reported.tolist()):
        a, b = OUTCOME_PAIRS[recorded]
        assert OUTCOME_PAIRS[reported] == ({S: N, N: S}[a], b)


# --- class inference -------------------------------------------------------------

#: Every joint readout a noisy run reports, and Alice's label of it.
NOISY_RUN = run_protocol(200, MIXED_FV, DeviceParams(homodyne_error=0.2), seed=13)
INFERRED_PHI = dict(zip(
    (OUTCOME_PAIRS[r] for r in NOISY_RUN.reported.tolist()), NOISY_RUN.inferred_phi.tolist()
))


def test_inference_rule():
    assert len(set(zip(NOISY_RUN.reported.tolist(), NOISY_RUN.inferred_phi.tolist()))) == 4
    assert INFERRED_PHI == {(S, S): True, (N, N): True, (S, N): False, (N, S): False}


@given(st.sampled_from([S, N]), st.sampled_from([S, N]))
def test_inference_is_symmetric(a, b):
    assert INFERRED_PHI[(a, b)] is INFERRED_PHI[(b, a)]


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
    run = run_protocol(1000, MIXED_FV, seed=11)
    sent_angles = [SIGNED_ANGLES[a] for a in run.signed_angle_index.tolist()]
    rounds = list(zip(run.inferred_phi.tolist(), run.theta_index.tolist(), sent_angles))
    for phi, k, sent in rounds:
        theta = k * math.pi / 4
        if phi:
            assert sent == theta
        else:
            assert sent == pytest.approx(-theta)
    # spot the concrete cases: 3pi/4 for a Phi pair, -pi/4 for a Psi pair
    phi_example = next(sent for phi, k, sent in rounds if phi and k == 3)
    assert phi_example == pytest.approx(3 * math.pi / 4)
    psi_example = next(sent for phi, k, sent in rounds if not phi and k == 1)
    assert psi_example == pytest.approx(-math.pi / 4)


def test_angle_messages_target_bob1_only():
    run = run_protocol(20, PHI_PLUS_ONLY, seed=0)
    msgs = phase_messages(run, Phase.ANGLE_ANNOUNCEMENT)
    assert len(msgs) == 20
    assert all(
        (msg.sender, msg.recipient) == (Party.ALICE, Party.BOB1) for msg in msgs
    )
    for msg, a in zip(msgs, run.signed_angle_index.tolist()):
        assert float(msg.payload) == SIGNED_ANGLES[a]


def test_angle_frequencies_uniform_within_three_sigma():
    m = 10_000
    run = run_protocol(m, MIXED_FV, seed=9)
    counts = collections.Counter(run.theta_index.tolist())
    sigma = math.sqrt(0.125 * 0.875 / m)
    for k in range(8):
        assert abs(counts[k] / m - 0.125) <= 3 * sigma


# --- Bob1 measurement -------------------------------------------------------------


def test_phi_pair_measurement_is_unbiased():
    n = 4_000
    run = run_protocol(n, PHI_PLUS_ONLY, seed=15)
    ones = int(np.count_nonzero(run.a_bit))
    sigma = math.sqrt(0.25 / n)
    assert abs(ones / n - 0.5) <= 3 * sigma
    # exact Born weights from the independent oracle
    state = pair_table().states[run.case[0]][run.readout[0]]
    for angle in SIGNED_ANGLES:
        p0, _ = projection_oracle(state.amplitudes, angle, 0)
        assert p0 == pytest.approx(0.5, abs=1e-12)


def assert_residuals_follow_the_angle(phi_class):
    """For every surviving state of the class, every announced angle and
    both bits, Bob2's residual is (|H> +- e^{i phi}|V>)/sqrt(2), phi the
    angle with the sign of the class taken off, one sign per bit. The
    unflipped PhiPlus and PsiPlus states give the + sign for bit 0."""
    table = pair_table()
    seen = 0
    for c, r in zip(*np.nonzero(table.survives & (table.phi == phi_class))):
        amplitudes = table.states[c][r].amplitudes
        for angle in SIGNED_ANGLES:
            phi = angle if phi_class else -angle
            signs = []
            for bit in (0, 1):
                p, residual = projection_oracle(amplitudes, angle, bit)
                assert p == pytest.approx(0.5, abs=1e-12)
                for sign in (1.0, -1.0):
                    expected = np.array([1.0, sign * np.exp(1j * phi)]) / math.sqrt(2.0)
                    if np.vdot(expected, residual @ expected).real >= 1.0 - 1e-10:
                        signs.append(sign)
            assert len(signs) == 2 and signs[0] == -signs[1], (c, r, angle)
            if CASES[c] in ((PolarizationBell.PHI_PLUS, 1), (PolarizationBell.PSI_PLUS, 1)):
                assert signs[0] == 1.0
            seen += 1
    assert seen == 8 * len(SIGNED_ANGLES)


def test_phi_pair_residual_matches_projection_oracle():
    assert_residuals_follow_the_angle(True)
    run = run_protocol(30, PHI_PLUS_ONLY, seed=16)
    assert set(run.a_bit.tolist()) == {0, 1}


def test_psi_pair_residual_with_negative_angle():
    assert_residuals_follow_the_angle(False)
    run = run_protocol(30, FidelityVector(0, 0, 1, 0), seed=17)
    assert not run.inferred_phi.any() and 0 in run.a_bit.tolist()


def test_bob1_reports_one_bit_per_round():
    m = 5
    run = run_protocol(m, FidelityVector(0, 1, 0, 0), seed=18)
    msgs = phase_messages(run, Phase.RESULT_REPORT)
    assert len(msgs) == m
    assert all((msg.sender, msg.recipient) == (Party.BOB1, Party.ALICE) for msg in msgs)
    assert [msg.payload for msg in msgs] == [str(bit) for bit in run.a_bit.tolist()]


# --- handoff ----------------------------------------------------------------------


def inferred_phi_count(run):
    """Pairs whose reported readouts Alice labels Phi-class, one by one."""
    return sum(a is b for a, b in (OUTCOME_PAIRS[r] for r in run.reported.tolist()))


def test_handoff_summary_and_marker():
    run = run_protocol(m=3, fv=MIXED_FV, seed=12)
    assert len(run.case) == 3
    phi_count = int(np.count_nonzero(run.inferred_phi))
    assert phi_count + int(np.count_nonzero(~run.inferred_phi)) == 3
    assert len(run.signed_angle_index) == len(run.a_bit) == 3
    assert phi_count == inferred_phi_count(run)
    handoff_msgs = phase_messages(run, Phase.HANDOFF)
    assert len(handoff_msgs) == 1
    assert (handoff_msgs[0].sender, handoff_msgs[0].recipient) == (
        Party.ALICE,
        Party.BOB2,
    )


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
