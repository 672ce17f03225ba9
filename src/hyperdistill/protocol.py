"""Four-party protocol engine over an audited classical message bus.

The Source distributes noisy hyperentangled pairs to the two servers
(Bob1, Bob2). Each server measures its probe and reports the readout to
the classical client (Alice), who infers the surviving Bell class of
every pair: same readouts mean a Phi-class pair, different readouts a
Psi-class pair. Alice then announces one signed angle per pair to Bob1
only, Bob1 measures his qubit in that rotated basis and reports a bit,
and the run ends with a single handoff marker to Bob2.

Every classical exchange is appended to a transcript; the auditor
re-reads it and fails the run if the servers talked to each other, if
Alice fed anything back during distribution or distillation, if an
angle went to Bob2, or if Bob2 reported a measured bit.

``run_protocol`` draws each substream as one block and gathers every
pair's fate from precomputed tables; the per-stage functions are the
single-pair reference it reproduces draw for draw.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import StateVector, canonical_phase
from .qnd import (
    CASES,
    OUTCOME_PAIRS,
    OUTCOMES,
    BranchTable,
    DeviceParams,
    DistilledPair,
    QndOutcome,
    build_branch_table,
    measure_probes,
    output_mode,
    readout_tables,
    same_outcome_probability,
)
from .states import (
    FidelityVector,
    HyperComponent,
    inverse_cdf,
    mixed_ensemble,
    sample_component,
    spatial_dephase,
)


class Party(Enum):
    SOURCE = "Source"
    ALICE = "Alice"
    BOB1 = "Bob1"
    BOB2 = "Bob2"


class Phase(Enum):
    DISTRIBUTION = "Distribution"
    DISTILLATION = "Distillation"
    ANGLE_ANNOUNCEMENT = "AngleAnnouncement"
    RESULT_REPORT = "ResultReport"
    HANDOFF = "Handoff"


#: Payload tag each phase is allowed to carry.
PAYLOAD_KIND_FOR_PHASE = {
    Phase.DISTRIBUTION: "quantum_marker",
    Phase.DISTILLATION: "qnd_outcome",
    Phase.ANGLE_ANNOUNCEMENT: "angle",
    Phase.RESULT_REPORT: "result_bit",
    Phase.HANDOFF: "control",
}


@dataclass(frozen=True)
class Message:
    """One classical message on the bus, in canonical wire form."""

    seq: int
    phase: Phase
    sender: Party
    recipient: Party
    payload_kind: str
    payload: str

    def __post_init__(self):
        if self.seq < 1:
            raise ValueError(f"seq {self.seq} must be >= 1")
        if self.sender is self.recipient:
            raise ValueError(f"{self.sender.value} cannot message itself")
        expected = PAYLOAD_KIND_FOR_PHASE[self.phase]
        if self.payload_kind != expected:
            raise ValueError(
                f"phase {self.phase.value} carries {expected!r} payloads, "
                f"got {self.payload_kind!r}"
            )
        if "|" in self.payload or "\n" in self.payload:
            raise ValueError("payload must not contain '|' or newlines")

    def to_line(self) -> str:
        return (
            f"{self.seq}|{self.phase.value}|{self.sender.value}"
            f"|{self.recipient.value}|{self.payload_kind}|{self.payload}"
        )

    @classmethod
    def from_line(cls, line: str) -> "Message":
        parts = line.rstrip("\n").split("|")
        if len(parts) != 6:
            raise ValueError(f"malformed transcript line: {line!r}")
        seq, phase, sender, recipient, kind, payload = parts
        return cls(
            seq=int(seq),
            phase=Phase(phase),
            sender=Party(sender),
            recipient=Party(recipient),
            payload_kind=kind,
            payload=payload,
        )


#: Column codes: a message's phase, sender and recipient are stored as
#: indices into these tuples.
PHASES = tuple(Phase)
PARTIES = tuple(Party)
_PHASE_CODE = {phase: i for i, phase in enumerate(PHASES)}
_PARTY_CODE = {party: i for i, party in enumerate(PARTIES)}

#: Wire text between seq and payload for each (phase, sender, recipient).
_LINE_MIDDLES = np.array(
    [
        [
            [
                f"{phase.value}|{sender.value}|{recipient.value}"
                f"|{PAYLOAD_KIND_FOR_PHASE[phase]}"
                for recipient in PARTIES
            ]
            for sender in PARTIES
        ]
        for phase in PHASES
    ],
    dtype=object,
)

#: Middle bytes of each (phase, sender, recipient), flattened in C order
#: and zero padded to the widest; ``_MIDDLE_PAD`` marks the padding.
_MIDDLE_BYTES = [middle.encode("ascii") for middle in _LINE_MIDDLES.ravel().tolist()]
_MIDDLE_WIDTH = max(map(len, _MIDDLE_BYTES))
_MIDDLE_LENGTHS = np.array([len(middle) for middle in _MIDDLE_BYTES])
_MIDDLE_TEMPLATES = np.frombuffer(
    b"".join(middle.ljust(_MIDDLE_WIDTH, b"\0") for middle in _MIDDLE_BYTES), np.uint8
).reshape(len(_MIDDLE_BYTES), _MIDDLE_WIDTH)
_MIDDLE_PAD = np.arange(_MIDDLE_WIDTH) >= _MIDDLE_LENGTHS[:, None]

#: Offset of the byte that tells the phase names apart, and the party
#: names; the code of a phase or party keyed by that byte.
_PHASE_KEY_AT = 4
_PARTY_KEY_AT = 3
_PHASE_OF_BYTE = np.zeros(256, dtype=np.int8)
_PHASE_OF_BYTE[[ord(phase.value[_PHASE_KEY_AT]) for phase in PHASES]] = range(len(PHASES))
_PARTY_OF_BYTE = np.zeros(256, dtype=np.int8)
_PARTY_OF_BYTE[[ord(party.value[_PARTY_KEY_AT]) for party in PARTIES]] = range(len(PARTIES))
assert len(set(_PHASE_OF_BYTE.tolist())) == len(PHASES)
assert len(set(_PARTY_OF_BYTE.tolist())) == len(PARTIES)

#: Longest seq the block parser decodes; longer ones are left to ``int``.
_SEQ_DIGITS = 15

#: Nonblank transcript lines parsed per block.
_PARSE_BLOCK_LINES = 4096


class _Block(NamedTuple):
    """A run of messages held as columns; the phase fixes the payload kind."""

    seq: Sequence[int]  # a range when the seqs are consecutive
    phase: np.ndarray  # int8 indices into PHASES
    sender: np.ndarray  # int8 indices into PARTIES
    recipient: np.ndarray  # int8 indices into PARTIES
    payload: list[str]


def _seq_column(seqs: list[int]) -> Sequence[int]:
    """The seqs, as a range when they are consecutive."""
    if seqs[-1] - seqs[0] == len(seqs) - 1 and all(map(int.__lt__, seqs, seqs[1:])):
        return range(seqs[0], seqs[-1] + 1)
    return seqs


def _block_of(messages: list[Message]) -> _Block:
    return _Block(
        _seq_column([msg.seq for msg in messages]),
        np.array([_PHASE_CODE[msg.phase] for msg in messages], dtype=np.int8),
        np.array([_PARTY_CODE[msg.sender] for msg in messages], dtype=np.int8),
        np.array([_PARTY_CODE[msg.recipient] for msg in messages], dtype=np.int8),
        [msg.payload for msg in messages],
    )


def _parse_block(lines: list[str], prev: int) -> _Block | None:
    """Columns of nonblank wire lines that follow seq ``prev``.

    Works on the bytes of the whole block. Returns None when a line is
    not plain ASCII, holds a newline anywhere but at its end, does not
    have exactly five ``|``, has a seq that is not 1 to 15 digits above
    ``prev`` and above the seq before it, or has a middle (the text
    between seq and payload) other than a valid one. The valid middles
    have a known phase and parties, the phase's payload kind and no
    self-message, so a block that passes gives what ``Message.from_line``
    gives line by line.
    """
    text = "".join(lines)
    if not text.isascii():
        return None
    # Zero padding keeps every fixed-width read below inside the buffer.
    buf = np.frombuffer(text.encode("ascii") + bytes(_MIDDLE_WIDTH), np.uint8)
    n = len(lines)
    lengths = np.fromiter(map(len, lines), np.int64, n)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    newline = buf[ends - 1] == ord("\n")
    if np.count_nonzero(buf == ord("\n")) != np.count_nonzero(newline):
        return None
    stops = ends - newline
    pipes = np.flatnonzero(buf == ord("|"))
    if len(pipes) != 5 * n:
        return None
    pipes = pipes.reshape(n, 5)

    # Seq: 1 to 15 digits before the first pipe, read right-aligned at the
    # width of the longest. These checks also keep each line's five pipes
    # inside it: after a line with more, the next line's first pipe falls
    # before that line starts; after a line with fewer, a pipe taken from
    # a later line falls inside the next seq.
    first_pipe = pipes[:, 0]
    seq_length = first_pipe - starts
    width = int(seq_length.max())
    if seq_length.min() < 1 or width > _SEQ_DIGITS:
        return None
    digit_at = first_pipe[:, None] + np.arange(-width, 0)
    in_seq = digit_at >= starts[:, None]
    digits = np.where(in_seq, buf.take(digit_at, mode="clip") - ord("0"), 0)
    if digits.max() > 9:
        return None
    seq = digits @ 10 ** np.arange(width - 1, -1, -1)
    if int(seq[0]) <= prev or np.any(seq[1:] <= seq[:-1]):
        return None

    # Middle: the candidate codes keyed by one byte of each field, then an
    # exact comparison with that candidate's wire text.
    phase = _PHASE_OF_BYTE[buf[first_pipe + 1 + _PHASE_KEY_AT]]
    sender = _PARTY_OF_BYTE[buf[pipes[:, 1] + 1 + _PARTY_KEY_AT]]
    recipient = _PARTY_OF_BYTE[buf[pipes[:, 2] + 1 + _PARTY_KEY_AT]]
    if np.any(sender == recipient):
        return None
    code = (phase * len(PARTIES) + sender) * len(PARTIES) + recipient
    windows = np.lib.stride_tricks.sliding_window_view(buf, _MIDDLE_WIDTH)
    if np.any(pipes[:, 4] - first_pipe - 1 != _MIDDLE_LENGTHS[code]) or not np.all(
        (windows[first_pipe + 1] == _MIDDLE_TEMPLATES[code]) | _MIDDLE_PAD[code]
    ):
        return None

    payloads = [
        text[start:stop]
        for start, stop in zip((pipes[:, 4] + 1).tolist(), stops.tolist())
    ]
    first, last = int(seq[0]), int(seq[-1])
    seqs = range(first, last + 1) if last - first == n - 1 else seq.tolist()
    return _Block(seqs, phase, sender, recipient, payloads)


def _parse_messages(lines: list[str], prev: int) -> list[Message]:
    """Parse line by line; raises the error of the first bad line."""
    messages = []
    for line in lines:
        msg = Message.from_line(line)
        if msg.seq <= prev:
            raise ValueError(f"seq {msg.seq} not strictly increasing")
        prev = msg.seq
        messages.append(msg)
    return messages


def _render(block: _Block) -> list[str]:
    middles = _LINE_MIDDLES[block.phase, block.sender, block.recipient].tolist()
    return [
        f"{seq}|{middle}|{payload}"
        for seq, middle, payload in zip(block.seq, middles, block.payload)
    ]


def _cycled_codes(parties: tuple[Party, ...], n: int) -> np.ndarray:
    codes = np.array([_PARTY_CODE[p] for p in parties], dtype=np.int8)
    return np.tile(codes, -(-n // len(codes)))[:n]


class Transcript:
    """Append-only, strictly sequenced log of classical messages.

    Messages are stored as blocks of columns: phase, sender and recipient
    codes plus the payload. ``messages``, ``to_lines`` and ``to_bytes``
    build their output from the columns on each call.
    """

    def __init__(self, run_id: str, seed: int):
        self.run_id = run_id
        self.seed = seed
        self._blocks: list[_Block] = []
        self._pending: list[Message] = []
        self._last_seq = 0

    def _sealed_blocks(self) -> list[_Block]:
        """All blocks, once the messages appended one by one form one."""
        if self._pending:
            self._blocks.append(_block_of(self._pending))
            self._pending = []
        return self._blocks

    @property
    def messages(self) -> tuple[Message, ...]:
        return tuple(
            Message(seq, PHASES[phase], PARTIES[sender], PARTIES[recipient],
                    PAYLOAD_KIND_FOR_PHASE[PHASES[phase]], payload)
            for block in self._sealed_blocks()
            for seq, phase, sender, recipient, payload in zip(
                block.seq, block.phase.tolist(), block.sender.tolist(),
                block.recipient.tolist(), block.payload,
            )
        )

    def append(
        self,
        phase: Phase,
        sender: Party,
        recipient: Party,
        payload_kind: str,
        payload: str,
    ) -> Message:
        msg = Message(
            seq=self._last_seq + 1,
            phase=phase,
            sender=sender,
            recipient=recipient,
            payload_kind=payload_kind,
            payload=payload,
        )
        self._pending.append(msg)
        self._last_seq = msg.seq
        return msg

    def _extend(
        self,
        phase: Phase,
        senders: tuple[Party, ...],
        recipients: tuple[Party, ...],
        payloads: list[str],
    ) -> None:
        """Append one message per payload, all in ``phase``.

        Senders and recipients repeat the given cycles. The engine builds
        every block from fixed parties and payload tables, so the checks
        of ``Message`` are not repeated per message.
        """
        n = len(payloads)
        self._sealed_blocks().append(
            _Block(
                range(self._last_seq + 1, self._last_seq + n + 1),
                np.full(n, _PHASE_CODE[phase], dtype=np.int8),
                _cycled_codes(senders, n),
                _cycled_codes(recipients, n),
                payloads,
            )
        )
        self._last_seq += n

    def to_lines(self) -> list[str]:
        return [line for block in self._sealed_blocks() for line in _render(block)]

    def to_bytes(self) -> bytes:
        blocks = self._sealed_blocks()
        if not blocks:
            return b"\n"
        return b"".join(
            ("\n".join(_render(block)) + "\n").encode("utf-8") for block in blocks
        )

    @classmethod
    def from_lines(
        cls, lines, run_id: str = "", seed: int = 0
    ) -> "Transcript":
        transcript = cls(run_id, seed)
        nonblank = filter(str.strip, lines)
        prev = 0
        while chunk := list(itertools.islice(nonblank, _PARSE_BLOCK_LINES)):
            block = _parse_block(chunk, prev)
            if block is None:
                block = _block_of(_parse_messages(chunk, prev))
            transcript._blocks.append(block)
            prev = block.seq[-1]
        transcript._last_seq = prev
        return transcript


class BellClass(Enum):
    """Coarse pair label Alice infers from the two readouts."""

    PHI = "PhiClass"
    PSI = "PsiClass"


def infer_bell_class(outcome_a: QndOutcome, outcome_b: QndOutcome) -> BellClass:
    """Same readouts mean a Phi-class pair, different readouts Psi-class."""
    return BellClass.PHI if outcome_a is outcome_b else BellClass.PSI


#: Announced angles are multiples of pi/4.
ANGLE_STEP = math.pi / 4
ANGLE_COUNT = 8


@dataclass
class BqcRound:
    """Alice's per-pair bookkeeping for the delegated-measurement rounds."""

    index: int
    theta_index: int
    theta: float
    bell_class: BellClass
    sent_angle: float
    a_bit: int | None = None


@dataclass(frozen=True)
class DistillationRecord:
    """Ground truth plus reported view of one distilled pair.

    ``inferred_class`` is what Alice computes from the readouts as
    reported; ``true_class`` is the physical class of the surviving
    state itself. They diverge under readout misclassification or
    misreporting.
    """

    component: HyperComponent
    pair: DistilledPair
    reported_a: QndOutcome
    reported_b: QndOutcome
    inferred_class: BellClass
    true_class: BellClass


def state_bell_class(state: StateVector) -> BellClass:
    """Physical class of a two-qubit polarization state by span weight."""
    amps = state.amplitudes
    phi_weight = abs(amps[0]) ** 2 + abs(amps[3]) ** 2
    return BellClass.PHI if phi_weight > 0.5 else BellClass.PSI


@dataclass(frozen=True)
class HandoffSummary:
    pair_count: int
    phi_count: int
    psi_count: int
    residuals: tuple[StateVector, ...]


def run_distribution(
    m: int,
    fv: FidelityVector,
    dephase_p: float,
    rng: np.random.Generator,
    transcript: Transcript,
) -> list[HyperComponent]:
    """Sample m noisy pairs and log their delivery to both servers."""
    if m < 1:
        raise ValueError(f"pair count {m} must be >= 1")
    components = []
    for j in range(1, m + 1):
        component = sample_component(fv, rng)
        if dephase_p > 0.0:
            component = spatial_dephase(component, dephase_p, rng)
        components.append(component)
        transcript.append(
            Phase.DISTRIBUTION, Party.SOURCE, Party.BOB1, "quantum_marker", str(j)
        )
        transcript.append(
            Phase.DISTRIBUTION, Party.SOURCE, Party.BOB2, "quantum_marker", str(j)
        )
    return components


def run_distillation(
    components,
    params: DeviceParams,
    rng: np.random.Generator,
    transcript: Transcript,
    evil_bob_flip_p: float = 0.0,
) -> list[DistillationRecord]:
    """Run both servers' probe measurements and report readouts to Alice.

    With ``evil_bob_flip_p > 0`` the first server misreports his readout
    with that probability; the actual photons are untouched, so Alice's
    inferred classes diverge from ground truth.
    """
    if not components:
        raise ValueError("component list must be nonempty")
    if not (0.0 <= evil_bob_flip_p <= 1.0):
        raise ValueError(f"evil_bob_flip_p {evil_bob_flip_p!r} outside [0, 1]")
    records = []
    for component in components:
        table = build_branch_table(component)
        pair = measure_probes(table, params, rng)
        reported_a = pair.outcome_a
        if evil_bob_flip_p > 0.0 and float(rng.random()) < evil_bob_flip_p:
            reported_a = reported_a.flipped()
        reported_b = pair.outcome_b
        transcript.append(
            Phase.DISTILLATION, Party.BOB1, Party.ALICE, "qnd_outcome",
            reported_a.value,
        )
        transcript.append(
            Phase.DISTILLATION, Party.BOB2, Party.ALICE, "qnd_outcome",
            reported_b.value,
        )
        records.append(
            DistillationRecord(
                component=component,
                pair=pair,
                reported_a=reported_a,
                reported_b=reported_b,
                inferred_class=infer_bell_class(reported_a, reported_b),
                true_class=state_bell_class(pair.pol_state),
            )
        )
    return records


def alice_announce_angles(
    classes, rng: np.random.Generator, transcript: Transcript
) -> list[BqcRound]:
    """Draw one angle per pair and announce the signed angle to Bob1.

    The angle is uniform over the eight multiples of pi/4; its sign is
    positive for Phi-class pairs and negative for Psi-class pairs.
    """
    rounds = []
    for j, bell_class in enumerate(classes, start=1):
        k = int(rng.integers(ANGLE_COUNT))
        theta = k * ANGLE_STEP
        sign = 1.0 if bell_class is BellClass.PHI else -1.0
        sent = sign * theta + 0.0  # normalize -0.0 to 0.0
        transcript.append(
            Phase.ANGLE_ANNOUNCEMENT, Party.ALICE, Party.BOB1, "angle", repr(sent)
        )
        rounds.append(
            BqcRound(
                index=j,
                theta_index=k,
                theta=theta,
                bell_class=bell_class,
                sent_angle=sent,
            )
        )
    return rounds


@functools.lru_cache(maxsize=512)
def _rotated_basis_projection(
    state: StateVector, sent_angle: float
) -> tuple[float, StateVector, StateVector]:
    """Bit-0 probability and both residual states for one pair state.

    Keyed on state identity; distilled states are shared immutable
    instances, so this caches the handful of distinct cases per run.
    """
    psi = np.asarray(state.amplitudes, dtype=complex).reshape(2, 2)
    phase = np.exp(-1j * sent_angle)
    residuals = []
    probs = []
    for sign in (1.0, -1.0):
        bra = np.array([1.0, sign * phase], dtype=complex).conj() / math.sqrt(2.0)
        branch = bra @ psi
        probs.append(float(np.sum(np.abs(branch) ** 2)))
        norm = np.linalg.norm(branch)
        residuals.append(
            None
            if norm <= 1e-9
            else StateVector(canonical_phase(branch / norm), ("H", "V"))
        )
    return probs[0], residuals[0], residuals[1]


#: The 16 announced angles: index ANGLE_COUNT*s + k is theta index k sent
#: for a Phi-class (s = 0) or Psi-class (s = 1) pair.
SIGNED_ANGLES = tuple(
    sign * (k * ANGLE_STEP) + 0.0 for sign in (1.0, -1.0) for k in range(ANGLE_COUNT)
)


@functools.lru_cache(maxsize=None)
def bob1_row(case: int, readout: int) -> tuple[np.ndarray, np.ndarray]:
    """Bob1's bit-0 probability for one (case, readout), per signed angle.

    Returns the 16 probabilities, in SIGNED_ANGLES order, and a (16, 2)
    mask of the bits that have no residual state because their Born
    weight is zero. The readout must be one that can occur.
    """
    state = readout_tables()[1][case][readout]
    if state is None:
        raise ValueError(f"readout {readout} cannot occur in case {case}")
    bit0 = np.empty(len(SIGNED_ANGLES))
    zero_weight = np.empty((len(SIGNED_ANGLES), 2), dtype=bool)
    for a, angle in enumerate(SIGNED_ANGLES):
        bit0[a], residual0, residual1 = _rotated_basis_projection(state, angle)
        zero_weight[a] = (residual0 is None, residual1 is None)
    bit0.setflags(write=False)
    zero_weight.setflags(write=False)
    return bit0, zero_weight


def bob1_measure(
    pair: DistilledPair,
    sent_angle: float,
    rng: np.random.Generator,
    transcript: Transcript,
) -> tuple[int, StateVector]:
    """Measure Bob1's qubit (the first tensor factor) in the rotated basis.

    The basis states are (|H> +- e^{-i * sent_angle} |V>)/sqrt(2); the
    first projector corresponds to bit 0. Returns the bit and Bob2's
    residual qubit state, and reports the bit to Alice. Normalization of
    the input pair is guaranteed by the state-vector type.
    """
    p0, residual0, residual1 = _rotated_basis_projection(
        pair.pol_state, float(sent_angle)
    )
    a_bit = 0 if float(rng.random()) < p0 else 1
    residual = residual0 if a_bit == 0 else residual1
    if residual is None:
        raise RuntimeError(f"bit {a_bit} sampled despite zero Born weight")
    transcript.append(
        Phase.RESULT_REPORT, Party.BOB1, Party.ALICE, "result_bit", str(a_bit)
    )
    return a_bit, residual


def handoff_single_server(
    rounds, residuals, transcript: Transcript
) -> HandoffSummary:
    """Close the run: summarize and send the single handoff marker to Bob2."""
    rounds = list(rounds)
    residuals = tuple(residuals)
    if len(rounds) != len(residuals):
        raise ValueError(
            f"{len(rounds)} rounds but {len(residuals)} residual states"
        )
    incomplete = [r.index for r in rounds if r.a_bit is None]
    if incomplete:
        raise ValueError(f"rounds {incomplete} have no reported bit")
    transcript.append(
        Phase.HANDOFF, Party.ALICE, Party.BOB2, "control", "begin_single_server"
    )
    phi = sum(1 for r in rounds if r.bell_class is BellClass.PHI)
    return HandoffSummary(
        pair_count=len(rounds),
        phi_count=phi,
        psi_count=len(rounds) - phi,
        residuals=residuals,
    )


# --- security audit ---------------------------------------------------------

VIOLATION_BOB_TO_BOB = "bob_to_bob"
VIOLATION_ALICE_FEEDBACK = "alice_feedback"
VIOLATION_ANGLE_TO_BOB2 = "angle_to_bob2"
VIOLATION_RESULT_FROM_BOB2 = "result_from_bob2"


@dataclass(frozen=True)
class Violation:
    kind: str
    seq: int
    description: str


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    violations: tuple[Violation, ...]


def audit(transcript: Transcript) -> AuditReport:
    """Check the communication constraints of the two-server setting.

    Flags: (a) any server-to-server message; (b) any Alice-to-server
    message during distribution or distillation; (c) any angle
    announcement addressed to Bob2; (d) any result report sent by Bob2.
    Violations are listed by message, then by rule.
    """
    alice, bob1, bob2 = (_PARTY_CODE[p] for p in (Party.ALICE, Party.BOB1, Party.BOB2))
    violations = []
    for block in transcript._sealed_blocks():
        phase, sender, recipient = block.phase, block.sender, block.recipient
        to_bob = (recipient == bob1) | (recipient == bob2)
        rules = (
            ((sender == bob1) | (sender == bob2)) & to_bob,
            (sender == alice) & to_bob & (
                (phase == _PHASE_CODE[Phase.DISTRIBUTION])
                | (phase == _PHASE_CODE[Phase.DISTILLATION])
            ),
            (phase == _PHASE_CODE[Phase.ANGLE_ANNOUNCEMENT]) & (recipient == bob2),
            (phase == _PHASE_CODE[Phase.RESULT_REPORT]) & (sender == bob2),
        )
        for i in np.flatnonzero(rules[0] | rules[1] | rules[2] | rules[3]).tolist():
            seq = block.seq[i]
            from_party, to_party = PARTIES[sender[i]], PARTIES[recipient[i]]
            if rules[0][i]:
                violations.append(Violation(
                    VIOLATION_BOB_TO_BOB, seq,
                    f"{from_party.value} messaged {to_party.value}",
                ))
            if rules[1][i]:
                violations.append(Violation(
                    VIOLATION_ALICE_FEEDBACK, seq,
                    f"Alice fed back to {to_party.value} during "
                    f"{PHASES[phase[i]].value}",
                ))
            if rules[2][i]:
                violations.append(Violation(
                    VIOLATION_ANGLE_TO_BOB2, seq, "angle announced to Bob2"
                ))
            if rules[3][i]:
                violations.append(Violation(
                    VIOLATION_RESULT_FROM_BOB2, seq, "Bob2 reported a result bit"
                ))
    return AuditReport(passed=not violations, violations=tuple(violations))


# --- whole-run orchestration ------------------------------------------------


def analytic_phi_probability(fv: FidelityVector, dephase_p: float = 0.0) -> float:
    """Exact probability that Alice infers a Phi-class pair.

    Averages the same-readout probability of each ensemble component
    over the mixture weights and the dephasing channel.
    """
    total = 0.0
    for component in mixed_ensemble(fv):
        for sign, sign_p in ((1, 1.0 - dephase_p), (-1, dephase_p)):
            if sign_p == 0.0 or component.weight == 0.0:
                continue
            table: BranchTable = build_branch_table(
                HyperComponent(component.pol, component.weight, sign)
            )
            total += component.weight * sign_p * same_outcome_probability(table)
    return total


def inferred_phi_probability(
    fv: FidelityVector, dephase_p: float, homodyne_error: float, evil_bob_flip_p: float
) -> float:
    """Exact probability that Alice infers a Phi-class pair from the reports.

    Her label is the parity of the two reported readouts. Each server's
    homodyne misread and Bob1's misreport flip one readout, so the label
    flips when an odd number of the three flips happen, with probability
    q = (1 - (1-2e)^2 (1-2m)) / 2 independent of the pair.
    """
    p = analytic_phi_probability(fv, dephase_p)
    kept = (1.0 - 2.0 * homodyne_error) ** 2 * (1.0 - 2.0 * evil_bob_flip_p)
    q = (1.0 - kept) / 2.0
    return p * (1.0 - q) + (1.0 - p) * q


def derive_run_id(seed: int, payload: str) -> str:
    """Deterministic run identifier from the seed and a config digest."""
    digest = hashlib.sha256(f"{seed}:{payload}".encode("utf-8")).hexdigest()
    return f"run-{digest[:12]}"


class ProtocolRun:
    """Everything produced by one end-to-end run.

    Each pair is one row of integer columns over the engine tables:
    ``case`` indexes CASES (the Bell kind and spatial sign delivered),
    ``readout`` the true joint readout in OUTCOME_PAIRS, ``recorded`` the
    readout after homodyne misreads, ``reported`` the one Alice receives
    after Bob1's misreport, ``theta_index`` the angle drawn and ``a_bit``
    the bit Bob1 reports. The per-pair objects the stage functions return
    (``components``, ``records``, ``rounds``, ``residuals``) and the
    handoff ``summary`` are built from the columns on first access.
    """

    def __init__(
        self, fv: FidelityVector, case, readout, recorded, reported,
        theta_index, a_bit, transcript: Transcript,
    ):
        self.fv = fv
        self.case = case
        self.readout = readout
        self.recorded = recorded
        self.reported = reported
        self.theta_index = theta_index
        self.a_bit = a_bit
        self.transcript = transcript
        self.audit_report = audit(transcript)

    @property
    def inferred_phi(self) -> np.ndarray:
        """Whether Alice infers a Phi-class pair: the reported readouts agree."""
        return (self.reported >> 1) == (self.reported & 1)

    @property
    def true_phi(self) -> np.ndarray:
        """Whether the surviving state of each pair is Phi-class."""
        _, states = readout_tables()
        table = np.array([
            [state is not None and state_bell_class(state) is BellClass.PHI
             for state in row]
            for row in states
        ])
        return table[self.case, self.readout]

    @property
    def signed_angle_index(self) -> np.ndarray:
        """Index into SIGNED_ANGLES of the angle announced for each pair."""
        return ANGLE_COUNT * ~self.inferred_phi + self.theta_index

    @functools.cached_property
    def components(self) -> list[HyperComponent]:
        weights = self.fv.as_tuple()
        made = [
            HyperComponent(kind, weights[c // 2], sign)
            for c, (kind, sign) in enumerate(CASES)
        ]
        return [made[c] for c in self.case.tolist()]

    @functools.cached_property
    def records(self) -> list[DistillationRecord]:
        probs, states = readout_tables()
        records = []
        for component, c, r, recorded, reported in zip(
            self.components, self.case.tolist(), self.readout.tolist(),
            self.recorded.tolist(), self.reported.tolist(),
        ):
            recorded_a, recorded_b = OUTCOME_PAIRS[recorded]
            reported_a, reported_b = OUTCOME_PAIRS[reported]
            pair = DistilledPair(
                outcome_a=recorded_a,
                outcome_b=recorded_b,
                output_mode_a=output_mode(recorded_a, "a"),
                output_mode_b=output_mode(recorded_b, "b"),
                pol_state=states[c][r],
                probability=float(probs[c, r]),
            )
            records.append(DistillationRecord(
                component=component,
                pair=pair,
                reported_a=reported_a,
                reported_b=reported_b,
                inferred_class=infer_bell_class(reported_a, reported_b),
                true_class=state_bell_class(pair.pol_state),
            ))
        return records

    @functools.cached_property
    def rounds(self) -> list[BqcRound]:
        return [
            BqcRound(
                index=j,
                theta_index=k,
                theta=k * ANGLE_STEP,
                bell_class=BellClass.PHI if phi else BellClass.PSI,
                sent_angle=SIGNED_ANGLES[angle],
                a_bit=a_bit,
            )
            for j, (k, phi, angle, a_bit) in enumerate(zip(
                self.theta_index.tolist(), self.inferred_phi.tolist(),
                self.signed_angle_index.tolist(), self.a_bit.tolist(),
            ), start=1)
        ]

    @functools.cached_property
    def residuals(self) -> list[StateVector]:
        _, states = readout_tables()
        return [
            _rotated_basis_projection(states[c][r], SIGNED_ANGLES[angle])[1 + a_bit]
            for c, r, angle, a_bit in zip(
                self.case.tolist(), self.readout.tolist(),
                self.signed_angle_index.tolist(), self.a_bit.tolist(),
            )
        ]

    @functools.cached_property
    def summary(self) -> HandoffSummary:
        phi = int(np.count_nonzero(self.inferred_phi))
        return HandoffSummary(
            pair_count=len(self.case),
            phi_count=phi,
            psi_count=len(self.case) - phi,
            residuals=tuple(self.residuals),
        )


#: Payload text of each outcome code, of each signed angle and of each bit.
_OUTCOME_PAYLOADS = np.array([outcome.value for outcome in OUTCOMES], dtype=object)
_ANGLE_PAYLOADS = np.array([repr(angle) for angle in SIGNED_ANGLES], dtype=object)
_BIT_PAYLOADS = np.array(["0", "1"], dtype=object)


def run_protocol(
    m: int,
    fv: FidelityVector,
    params: DeviceParams = DeviceParams(),
    dephase_p: float = 0.0,
    evil_bob_flip_p: float = 0.0,
    seed: int = 0,
    run_id: str | None = None,
) -> ProtocolRun:
    """Execute the full pipeline with four named substreams of ``seed``.

    Gives what the stage functions give when composed, one substream
    each: ``run_distribution``, ``run_distillation``,
    ``alice_announce_angles``, ``bob1_measure`` per pair and
    ``handoff_single_server``. It makes the same draws in the same order,
    so the pairs and the transcript bytes are the same. Each substream is
    drawn once as a block, and each pair's fate is gathered from the
    readout and Bob1 tables.
    """
    if m < 1:
        raise ValueError(f"pair count {m} must be >= 1")
    if dephase_p > 0.0 and not (math.isfinite(dephase_p) and dephase_p <= 1.0):
        raise ValueError(f"dephasing probability {dephase_p!r} outside [0, 1]")
    if not (0.0 <= evil_bob_flip_p <= 1.0):
        raise ValueError(f"evil_bob_flip_p {evil_bob_flip_p!r} outside [0, 1]")
    root = np.random.SeedSequence(seed)
    rng_dist, rng_qnd, rng_angle, rng_meas = (
        np.random.default_rng(child) for child in root.spawn(4)
    )
    probs, states = readout_tables()
    misread_p = params.homodyne_error

    # Distribution, per pair: the component draw, then the dephasing draw.
    draws = rng_dist.random((1 + (dephase_p > 0.0)) * m).reshape(m, -1)
    case = 2 * inverse_cdf(fv.as_tuple(), draws[:, 0])
    if dephase_p > 0.0:
        case += draws[:, 1] < dephase_p

    # Distillation, per pair: the joint readout, each server's misread,
    # then Bob1's misreport; outcome codes flip as r ^ 2 (A) and r ^ 1 (B).
    width = 1 + 2 * (misread_p > 0.0) + (evil_bob_flip_p > 0.0)
    draws = rng_qnd.random(width * m).reshape(m, width)
    readout = inverse_cdf(probs[case], draws[:, 0])
    survives = np.array([[state is not None for state in row] for row in states])
    dead = ~survives[case, readout]
    if dead.any():
        pair = OUTCOME_PAIRS[readout[dead][0]]
        raise RuntimeError(f"sampled readout {pair} has no surviving branch")
    recorded = readout
    if misread_p > 0.0:
        recorded = readout ^ (2 * (draws[:, 1] < misread_p)) ^ (draws[:, 2] < misread_p)
    reported = recorded
    if evil_bob_flip_p > 0.0:
        reported = recorded ^ (2 * (draws[:, -1] < evil_bob_flip_p))

    # Angles: the sign of each announced angle follows the inferred class.
    theta_index = rng_angle.integers(ANGLE_COUNT, size=m)
    psi = (reported >> 1) != (reported & 1)
    angle = ANGLE_COUNT * psi + theta_index

    # Bob1: bit 0 when the draw falls below its Born weight. Only the
    # (case, readout) rows that occur are looked up.
    row = len(OUTCOME_PAIRS) * case + readout
    bit0 = np.full((len(CASES) * len(OUTCOME_PAIRS), len(SIGNED_ANGLES)), np.nan)
    zero_weight = np.zeros(bit0.shape + (2,), dtype=bool)
    for key in np.flatnonzero(np.bincount(row, minlength=len(bit0))).tolist():
        bit0[key], zero_weight[key] = bob1_row(*divmod(key, len(OUTCOME_PAIRS)))
    a_bit = (rng_meas.random(m) >= bit0[row, angle]).astype(np.int8)
    impossible = zero_weight[row, angle, a_bit]
    if impossible.any():
        raise RuntimeError(
            f"bit {a_bit[impossible][0]} sampled despite zero Born weight"
        )

    transcript = Transcript(
        run_id if run_id is not None else derive_run_id(seed, f"m={m}"), seed
    )
    markers = [""] * (2 * m)
    markers[0::2] = markers[1::2] = list(map(str, range(1, m + 1)))
    transcript._extend(
        Phase.DISTRIBUTION, (Party.SOURCE,), (Party.BOB1, Party.BOB2), markers
    )
    transcript._extend(
        Phase.DISTILLATION, (Party.BOB1, Party.BOB2), (Party.ALICE,),
        _OUTCOME_PAYLOADS[np.stack([reported >> 1, reported & 1], axis=1)]
        .ravel().tolist(),
    )
    transcript._extend(
        Phase.ANGLE_ANNOUNCEMENT, (Party.ALICE,), (Party.BOB1,),
        _ANGLE_PAYLOADS[angle].tolist(),
    )
    transcript._extend(
        Phase.RESULT_REPORT, (Party.BOB1,), (Party.ALICE,),
        _BIT_PAYLOADS[a_bit].tolist(),
    )
    transcript.append(
        Phase.HANDOFF, Party.ALICE, Party.BOB2, "control", "begin_single_server"
    )
    return ProtocolRun(
        fv, case, readout, recorded, reported, theta_index, a_bit, transcript
    )
