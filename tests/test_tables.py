"""The table-driven engine against its references.

``run_protocol`` draws each substream as one block and gathers every
pair's fate from precomputed tables; the per-stage functions remain the
single-pair reference. These tests check the tables against the tensor
oracle and explicit projector algebra, the whole engine against the
composition of the stage functions, and the columnar transcript against
the per-message rules of ``Message``.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdistill import (
    EPS_ORACLE,
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
    audit,
    bob1_measure,
    build_branch_table,
    handoff_single_server,
    measure_probes,
    oracle_conditional_pol_state,
    oracle_evolve,
    oracle_outcome_distribution,
    projector,
    run_distillation,
    run_distribution,
    run_protocol,
    sample_component,
    trace_distance,
)
from hyperdistill import protocol
from hyperdistill.protocol import (
    PAYLOAD_KIND_FOR_PHASE,
    SIGNED_ANGLES,
    VIOLATION_ALICE_FEEDBACK,
    VIOLATION_ANGLE_TO_BOB2,
    VIOLATION_BOB_TO_BOB,
    VIOLATION_RESULT_FROM_BOB2,
    Violation,
    bob1_row,
    inferred_phi_probability,
)
from hyperdistill.qnd import CASES, OUTCOME_PAIRS, readout_tables
from hyperdistill.states import inverse_cdf

S = QndOutcome.SHIFT
N = QndOutcome.NO_SHIFT
MIXED = FidelityVector(0.7, 0.1, 0.15, 0.05)


# --- tables -----------------------------------------------------------------------


@pytest.mark.parametrize("case", range(len(CASES)))
def test_readout_tables_match_oracle(case):
    kind, sign = CASES[case]
    probs, states = readout_tables()
    rho = oracle_evolve(HyperComponent(kind, 1.0, sign), DeviceParams())
    oracle_probs = oracle_outcome_distribution(rho)
    for r, pair in enumerate(OUTCOME_PAIRS):
        assert abs(probs[case, r] - oracle_probs[pair]) <= EPS_ORACLE
        oracle_state = oracle_conditional_pol_state(rho, pair)
        if oracle_state is None:
            assert states[case][r] is None
        else:
            distance = trace_distance(projector(states[case][r]), oracle_state)
            assert distance <= EPS_ORACLE


def projector_bit_probability(amplitudes, sent_angle, bit):
    """Born weight of Bob1's bit from the full 4x4 projector on the pair."""
    sign = 1.0 if bit == 0 else -1.0
    phi = np.array([1.0, sign * np.exp(-1j * sent_angle)]) / math.sqrt(2.0)
    proj = np.kron(np.outer(phi, phi.conj()), np.eye(2))
    rho = np.outer(amplitudes, np.conj(amplitudes))
    return float(np.trace(proj @ rho @ proj).real)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_bob1_rows_match_projector_algebra(case):
    _, states = readout_tables()
    for r, state in enumerate(states[case]):
        if state is None:
            with pytest.raises(ValueError, match="cannot occur"):
                bob1_row(case, r)
            continue
        bit0, zero_weight = bob1_row(case, r)
        assert bit0.shape == (16,) and zero_weight.shape == (16, 2)
        for a, angle in enumerate(SIGNED_ANGLES):
            for bit in (0, 1):
                p = projector_bit_probability(state.amplitudes, angle, bit)
                expected = p if bit == 0 else 1.0 - p
                assert abs((bit0[a] if bit == 0 else 1.0 - bit0[a]) - expected) <= EPS_ORACLE
                assert zero_weight[a, bit] == (p <= 1e-12)


def test_signed_angles_follow_the_announcement_rule():
    for s, sign in enumerate((1.0, -1.0)):
        for k in range(8):
            assert SIGNED_ANGLES[8 * s + k] == sign * (k * math.pi / 4) + 0.0
    assert SIGNED_ANGLES[8] == 0.0 and math.copysign(1.0, SIGNED_ANGLES[8]) == 1.0


# --- the shared inverse-CDF choice -----------------------------------------------------


class StubRng:
    """Returns the largest double below 1 for every uniform draw."""

    def random(self):
        return 0.9999999999999999


def test_sample_component_fallback_skips_zero_weight_slot():
    fv = FidelityVector(0.7, 0.1, 0.2 - 5e-13, 0.0)
    assert sum(fv.as_tuple()) <= StubRng().random()
    assert sample_component(fv, StubRng()).pol is PolarizationBell.PSI_PLUS


def test_measure_probes_fallback_skips_zero_weight_readout():
    # the readout weights of a Psi pair sum to 1 - 4e-16, and the last
    # readout pair (NoShift, NoShift) cannot occur
    table = build_branch_table(HyperComponent(PolarizationBell.PSI_PLUS, 1.0))
    pair = measure_probes(table, DeviceParams(), StubRng())
    assert (pair.outcome_a, pair.outcome_b) == (N, S)


def test_table_path_fallback_skips_zero_weight_slot():
    u = np.array([0.9999999999999999, 0.0, 0.75])
    weights = (0.7, 0.1, 0.2 - 5e-13, 0.0)
    assert inverse_cdf(weights, u).tolist() == [2, 0, 1]
    rows = np.array([weights, (0.0, 0.5, 0.5, 0.0), (0.5, 0.0, 0.0, 0.5)])
    assert inverse_cdf(rows, u).tolist() == [2, 1, 3]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(lambda w: sum(w) > 0),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
)
def test_inverse_cdf_array_path_equals_scalar_path(weights, draws):
    expected = [inverse_cdf(weights, u) for u in draws]
    assert inverse_cdf(weights, np.array(draws)).tolist() == expected
    assert all(weights[i] > 0.0 for i in expected)


# --- engine against the composed stage functions -------------------------------------


def reference_run(m, fv, params, dephase_p, evil_bob_flip_p, seed):
    """The pipeline as the composition of the single-pair stage functions."""
    root = np.random.SeedSequence(seed)
    rng_dist, rng_qnd, rng_angle, rng_meas = (
        np.random.default_rng(child) for child in root.spawn(4)
    )
    transcript = Transcript("reference", seed)
    components = run_distribution(m, fv, dephase_p, rng_dist, transcript)
    records = run_distillation(
        components, params, rng_qnd, transcript, evil_bob_flip_p
    )
    rounds = alice_announce_angles(
        [record.inferred_class for record in records], rng_angle, transcript
    )
    residuals = []
    for bqc_round, record in zip(rounds, records):
        bqc_round.a_bit, residual = bob1_measure(
            record.pair, bqc_round.sent_angle, rng_meas, transcript
        )
        residuals.append(residual)
    summary = handoff_single_server(rounds, residuals, transcript)
    return components, records, rounds, residuals, summary, transcript


def record_key(record):
    pair = record.pair
    return (
        record.component,
        pair.outcome_a, pair.outcome_b, pair.output_mode_a, pair.output_mode_b,
        tuple(pair.pol_state.amplitudes), pair.probability,
        record.reported_a, record.reported_b,
        record.inferred_class, record.true_class,
    )


def state_key(state):
    return tuple(state.amplitudes), state.basis_labels


@pytest.mark.parametrize(
    "fv", [MIXED, FidelityVector(1, 0, 0, 0), FidelityVector(0.25, 0.25, 0.5, 0)]
)
def test_inferred_phi_probability_matches_enumeration(fv):
    # Sum over every case, readout and combination of the two misreads
    # and the misreport; Alice infers Phi when the reported bits agree.
    probs, _ = readout_tables()
    flip_combinations = list(itertools.product((0, 1), repeat=3))
    grid = itertools.product((0, 0.05, 0.3, 1), (0, 0.1, 0.2, 0.49), (0, 0.1, 1))
    for dephase_p, e, m in grid:
        total = 0.0
        for c, (_, sign) in enumerate(CASES):
            weight = fv.as_tuple()[c // 2] * (1 - dephase_p if sign == 1 else dephase_p)
            for r, (fa, fb, fm) in itertools.product(range(4), flip_combinations):
                flips = (e if fa else 1 - e) * (e if fb else 1 - e) * (m if fm else 1 - m)
                if ((r >> 1) ^ fa ^ fm) == ((r & 1) ^ fb):
                    total += weight * probs[c, r] * flips
        expected = inferred_phi_probability(fv, dephase_p, e, m)
        assert expected == pytest.approx(total, abs=1e-12), (dephase_p, e, m)


NOISE_SETTINGS = {
    "clean": (MIXED, 0.0, 0.0, 0.0),
    "dephasing": (MIXED, 0.3, 0.0, 0.0),
    "homodyne": (MIXED, 0.0, 0.2, 0.0),
    "misreport": (MIXED, 0.0, 0.0, 0.4),
    "all": (MIXED, 0.05, 0.1, 0.1),
    "zero_weight": (FidelityVector(0.7, 0.1, 0.2, 0.0), 0.2, 0.1, 0.1),
}


@pytest.mark.parametrize("setting", sorted(NOISE_SETTINGS))
@pytest.mark.parametrize("m", [1, 2, 257])
@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
def test_engine_equals_composed_stage_functions(setting, m, seed):
    fv, dephase_p, homodyne_error, evil_bob_flip_p = NOISE_SETTINGS[setting]
    params = DeviceParams(homodyne_error=homodyne_error)
    components, records, rounds, residuals, summary, transcript = reference_run(
        m, fv, params, dephase_p, evil_bob_flip_p, seed
    )
    run = run_protocol(
        m, fv, params, dephase_p, evil_bob_flip_p, seed, run_id="reference"
    )
    assert run.transcript.to_bytes() == transcript.to_bytes()
    assert run.transcript.messages == transcript.messages
    assert run.components == components
    assert [record_key(r) for r in run.records] == [record_key(r) for r in records]
    assert run.rounds == rounds
    assert [state_key(s) for s in run.residuals] == [state_key(s) for s in residuals]
    assert (run.summary.pair_count, run.summary.phi_count, run.summary.psi_count) == (
        summary.pair_count, summary.phi_count, summary.psi_count,
    )
    assert [state_key(s) for s in run.summary.residuals] == [
        state_key(s) for s in summary.residuals
    ]
    assert run.audit_report == audit(transcript)
    if fv.f3 == 0.0:
        assert all(c.pol is not PolarizationBell.PSI_MINUS for c in run.components)


def test_engine_keeps_the_stage_checks():
    with pytest.raises(ValueError, match=">= 1"):
        run_protocol(0, MIXED)
    with pytest.raises(ValueError, match="dephasing probability"):
        run_protocol(3, MIXED, dephase_p=1.5)
    with pytest.raises(ValueError, match="evil_bob_flip_p"):
        run_protocol(3, MIXED, evil_bob_flip_p=-0.1)


# --- columnar audit --------------------------------------------------------------------


def reference_audit(messages):
    """The auditor's rules applied one message at a time, rule by rule."""
    bobs = (Party.BOB1, Party.BOB2)
    found = []
    for msg in messages:
        if msg.sender in bobs and msg.recipient in bobs:
            found.append(Violation(
                VIOLATION_BOB_TO_BOB, msg.seq,
                f"{msg.sender.value} messaged {msg.recipient.value}",
            ))
        if (msg.sender is Party.ALICE and msg.recipient in bobs
                and msg.phase in (Phase.DISTRIBUTION, Phase.DISTILLATION)):
            found.append(Violation(
                VIOLATION_ALICE_FEEDBACK, msg.seq,
                f"Alice fed back to {msg.recipient.value} during {msg.phase.value}",
            ))
        if msg.phase is Phase.ANGLE_ANNOUNCEMENT and msg.recipient is Party.BOB2:
            found.append(Violation(
                VIOLATION_ANGLE_TO_BOB2, msg.seq, "angle announced to Bob2"
            ))
        if msg.phase is Phase.RESULT_REPORT and msg.sender is Party.BOB2:
            found.append(Violation(
                VIOLATION_RESULT_FROM_BOB2, msg.seq, "Bob2 reported a result bit"
            ))
    return tuple(found)


def test_audit_lists_a_two_rule_message_by_rule():
    transcript = Transcript("two-rules", 0)
    transcript.append(Phase.DISTRIBUTION, Party.SOURCE, Party.BOB1, "quantum_marker", "1")
    transcript.append(Phase.RESULT_REPORT, Party.BOB2, Party.BOB1, "result_bit", "0")
    transcript.append(Phase.ANGLE_ANNOUNCEMENT, Party.BOB1, Party.BOB2, "angle", "0.0")
    assert audit(transcript).violations == (
        Violation(VIOLATION_BOB_TO_BOB, 2, "Bob2 messaged Bob1"),
        Violation(VIOLATION_RESULT_FROM_BOB2, 2, "Bob2 reported a result bit"),
        Violation(VIOLATION_BOB_TO_BOB, 3, "Bob1 messaged Bob2"),
        Violation(VIOLATION_ANGLE_TO_BOB2, 3, "angle announced to Bob2"),
    )


message_fields = st.tuples(
    st.sampled_from(list(Phase)), st.sampled_from(list(Party)), st.sampled_from(list(Party))
).filter(lambda fields: fields[1] is not fields[2])


@settings(max_examples=100, deadline=None)
@given(st.lists(message_fields, max_size=30), st.integers(0, 2**16))
def test_columnar_audit_equals_per_message_rules(fields, seed):
    transcript = run_protocol(2, MIXED, seed=seed).transcript
    for phase, sender, recipient in fields:
        transcript.append(phase, sender, recipient, PAYLOAD_KIND_FOR_PHASE[phase], "x")
    report = audit(transcript)
    assert report.violations == reference_audit(transcript.messages)
    assert report.passed == (not report.violations)
    reparsed = Transcript.from_lines(transcript.to_lines())
    assert audit(reparsed) == report


# --- parsing into columns ---------------------------------------------------------------


def reference_from_lines(lines):
    """Parse message by message with ``Message.from_line``."""
    messages, prev = [], 0
    for line in lines:
        if not line.strip():
            continue
        msg = Message.from_line(line)
        if msg.seq <= prev:
            raise ValueError(f"seq {msg.seq} not strictly increasing")
        prev = msg.seq
        messages.append(msg)
    return tuple(messages)


GOOD = "1|Distribution|Source|Bob1|quantum_marker|1"
BAD_TRANSCRIPTS = {
    "five fields": ["1|Distribution|Source|Bob1|quantum_marker"],
    "seven fields": ["1|Distribution|Source|Bob1|quantum_marker|1|2"],
    "no separator": ["garbage"],
    "seq not an integer": ["x|Distribution|Source|Bob1|quantum_marker|1"],
    "unknown phase": ["1|Lunch|Source|Bob1|quantum_marker|1"],
    "unknown sender": ["1|Distribution|Eve|Bob1|quantum_marker|1"],
    "unknown recipient": ["1|Distribution|Source|Eve|quantum_marker|1"],
    "kind of another phase": ["1|Distribution|Source|Bob1|angle|1"],
    "unknown kind": ["1|Distribution|Source|Bob1|pizza|1"],
    "self message": ["1|Distribution|Bob1|Bob1|quantum_marker|1"],
    "seq below one": ["0|Distribution|Source|Bob1|quantum_marker|1"],
    "repeated seq": [GOOD, GOOD],
    "newline in payload": [GOOD, "2|Distribution|Source|Bob1|quantum_marker|a\nb"],
    "second error comes later": [
        "2|Distribution|Source|Bob1|quantum_marker|1",
        "1|Distribution|Source|Bob1|quantum_marker|1",
        "3|Lunch|Source|Bob1|quantum_marker|1",
    ],
    "no seq": ["|Distribution|Source|Bob1|quantum_marker|1"],
    "near-miss phase": ["1|Distributiom|Source|Bob1|quantum_marker|1"],
    "near-miss party": ["1|Distribution|Source|Bob3|quantum_marker|1"],
    "party name too long": ["1|Distribution|Sources|Bob1|quantum_marker|1"],
    "kind with a suffix": ["1|Distribution|Source|Bob1|quantum_markers|1"],
    "one pipe short then one over": [
        "1|Distribution|Source|Bob1quantum_marker|1",
        "2|Distribution|Source|Bob2|quantum_marker|1|",
    ],
}


@pytest.mark.parametrize("name", sorted(BAD_TRANSCRIPTS))
def test_from_lines_raises_what_message_parsing_raises(name):
    lines = BAD_TRANSCRIPTS[name]
    with pytest.raises(ValueError) as expected:
        reference_from_lines(lines)
    with pytest.raises(ValueError) as got:
        Transcript.from_lines(lines)
    assert str(got.value) == str(expected.value)


ODD_TRANSCRIPTS = {
    "leading zeros": ["007|Distribution|Source|Bob1|quantum_marker|1"],
    "plus sign": ["+7|Distribution|Source|Bob1|quantum_marker|1"],
    "underscore in seq": ["1_0|Distribution|Source|Bob1|quantum_marker|1"],
    "space before seq": [" 3|Distribution|Source|Bob1|quantum_marker|1"],
    "twenty-digit seqs": [
        "20000000000000000001|Distribution|Source|Bob1|quantum_marker|1\n",
        "20000000000000000002|Distribution|Source|Bob1|quantum_marker|1\n",
    ],
    "crlf endings": [GOOD + "\r\n", "2|Handoff|Alice|Bob2|control|x\r\n"],
    "double newline ending": [GOOD + "\n\n", "2|Handoff|Alice|Bob2|control|x\n"],
    "newline split across items": [GOOD + "\n", "2|Handoff|Alice|Bob2|control|x", "\n"],
    "no final newline": [GOOD + "\n", "2|Handoff|Alice|Bob2|control|x"],
    "non-ascii payload": [GOOD, "2|Handoff|Alice|Bob2|control|\u00e9t\u00e9"],
    "empty payload": [GOOD, "2|Handoff|Alice|Bob2|control|"],
}


@pytest.mark.parametrize("name", sorted(ODD_TRANSCRIPTS))
def test_from_lines_parses_odd_lines_as_message_parsing_does(name):
    lines = ODD_TRANSCRIPTS[name]
    assert Transcript.from_lines(lines).messages == reference_from_lines(lines)


FUZZ_CHARS = "|\n\r0123456789+ _\u00e9"
NOISY = dict(params=DeviceParams(homodyne_error=0.1), dephase_p=0.05, evil_bob_flip_p=0.1)


@st.composite
def mutated_transcripts(draw):
    """Wire lines of a short noisy run after a few random edits."""
    lines = run_protocol(3, MIXED, seed=draw(st.integers(0, 2**16)), **NOISY).transcript.to_lines()
    if draw(st.booleans()):
        seq = 0
        for i, line in enumerate(lines):
            seq += draw(st.integers(1, 3))
            zeros = "0" * draw(st.integers(0, 2))
            lines[i] = zeros + str(seq) + line[line.index("|"):]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        char = draw(st.sampled_from(FUZZ_CHARS))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "blank line"]))
        if edit == "insert":
            lines[i] = line[:at] + char + line[at:]
        elif edit == "delete":
            lines[i] = line[:at] + line[at + 1:]
        elif edit == "replace":
            lines[i] = line[:at] + char + line[at + 1:]
        else:
            lines.insert(i, draw(st.sampled_from(["", "\n", " \n", "\r\n"])))
    endings = draw(st.sampled_from(["file", "list", "mixed"]))
    if endings == "file":
        lines = [line + "\n" for line in lines]
    elif endings == "mixed":
        lines = [line + draw(st.sampled_from(["", "\n", "\n\n"])) for line in lines]
    return lines


def parse_outcome(parse, lines):
    """The messages ``parse`` gives, or the text of its ValueError."""
    try:
        return tuple(parse(lines))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(mutated_transcripts(), st.sampled_from([1, 2, 5, protocol._PARSE_BLOCK_LINES]))
def test_from_lines_equals_message_parsing_on_mutated_runs(lines, block_lines):
    with mock.patch.object(protocol, "_PARSE_BLOCK_LINES", block_lines):
        got = parse_outcome(lambda lines: Transcript.from_lines(lines).messages, lines)
    assert got == parse_outcome(reference_from_lines, lines)


@pytest.mark.parametrize("form", ["file", "file without final newline", "list"])
def test_block_parser_takes_every_block_of_a_run(form):
    size = protocol._PARSE_BLOCK_LINES
    transcript = run_protocol(size // 3 + 1, MIXED, seed=6, **NOISY).transcript
    if form == "list":
        lines = transcript.to_lines()
    else:
        text = transcript.to_bytes().decode()
        lines = (text if form == "file" else text.rstrip("\n")).splitlines(True)
    assert len(lines) > 2 * size
    for start in range(0, len(lines), size):
        chunk = lines[start:start + size]
        block = protocol._parse_block(chunk, start)
        assert block is not None, start
        assert block.seq == range(start + 1, start + len(chunk) + 1)
    assert Transcript.from_lines(lines).to_bytes() == transcript.to_bytes()


def test_from_lines_checks_order_across_parse_blocks():
    size = protocol._PARSE_BLOCK_LINES
    lines = run_protocol(size // 6 + 1, MIXED, seed=4).transcript.to_bytes().decode().splitlines(True)
    assert len(lines) > size
    lines.insert(size, lines[size - 1])
    with pytest.raises(ValueError, match=f"seq {size} not strictly increasing"):
        Transcript.from_lines(lines)


def test_from_lines_keeps_gaps_blank_lines_and_wire_text():
    lines = [
        " 3|Distribution|Source|Bob1|quantum_marker|1\n",
        "\n",
        "   \n",
        "7|Distillation|Bob1|Alice|qnd_outcome|Shift\n",
        "8|ResultReport|Bob2|Alice|result_bit|1",
    ]
    transcript = Transcript.from_lines(lines)
    assert transcript.messages == reference_from_lines(lines)
    assert [msg.seq for msg in transcript.messages] == [3, 7, 8]
    assert transcript.to_lines() == [msg.to_line() for msg in reference_from_lines(lines)]
    transcript.append(Phase.HANDOFF, Party.ALICE, Party.BOB2, "control", "x")
    assert transcript.messages[-1].seq == 9


def test_append_after_from_lines_round_trips():
    lines = [
        "3|Distribution|Source|Bob1|quantum_marker|1",
        "8|Distillation|Bob1|Alice|qnd_outcome|Shift",
    ]
    transcript = Transcript.from_lines(lines)
    transcript.append(Phase.HANDOFF, Party.ALICE, Party.BOB2, "control", "x")
    transcript.append(Phase.HANDOFF, Party.ALICE, Party.BOB2, "control", "y")
    reparsed = Transcript.from_lines(transcript.to_lines())
    assert reparsed.messages == transcript.messages
    assert [msg.seq for msg in reparsed.messages] == [3, 8, 9, 10]


def test_empty_transcript_renders_one_newline():
    assert Transcript("empty", 0).to_bytes() == b"\n"
    assert Transcript.from_lines(["", "  "]).messages == ()
