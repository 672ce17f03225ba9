"""Four-party protocol engine over an audited classical message bus.

The Source distributes noisy hyperentangled pairs to the two servers
(Bob1, Bob2). Each server measures its probe and reports the readout to
the classical client (Alice), who infers the surviving Bell class of
every pair: same readouts mean a Phi-class pair, different readouts a
Psi-class pair. Alice then announces one angle per pair to Bob1 only,
its sign set by the class and taken mod 2 pi on the wire; Bob1 measures
his qubit in that rotated basis and reports a bit, and the run ends with
a single handoff marker to Bob2.

Every classical exchange is written to a transcript, whose wire format
lives in ``wire`` and whose reader lives in ``reader``; the auditor
re-reads it and fails the run if the servers talked to each other, if
Alice fed anything back during distribution or distillation, if an angle
went to Bob2, or if Bob2 reported a measured bit.

This module holds the pair table, the analytic law, the engine and the
audit. ``run_chunks`` is the one engine. It yields the substreams'
draws one chunk of pairs at a time, which ``run_protocol`` keeps in int8
columns and the CLI folds into its report. A run's transcript is its
wire bytes, which ``run_wire`` renders one block at a time for the CLI to
write; ``ProtocolRun.transcript`` parses them as a reader of the file
would, and only it, or a lookup of ``Transcript`` here, imports
``reader``. Distillation is deterministic: a case's pair survives as one
Bell kind, ``pair_table().kind``, whichever of its kind's two readouts
occurs, so each readout and each of Bob1's bits is one comparison of a
draw with 1/2. Its reference is a per-pair run in the tests that samples
from the tensor oracle of ``qnd``, which shares no code with the table.
"""

from __future__ import annotations

import functools
import io
import math
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .model import (
    CASES, ENSEMBLE_ORDER, OUTCOME_PAIRS, DeviceParams, FidelityVector,
    inverse_cdf,
)
from . import wire
from .wire import Party, Phase


#: Version of what a seeded run outputs, echoed in the report's config so
#: that ``run_id`` changes with it. 2: exact fidelities from the closed-form
#: table, and angles announced mod 2 pi.
ENGINE_VERSION = 2


class BellClass(Enum):
    """Coarse pair label Alice infers from the two readouts."""

    PHI = "PhiClass"
    PSI = "PsiClass"


#: Announced angles are multiples of pi/4.
ANGLE_STEP = math.pi / 4
ANGLE_COUNT = 8


#: The 16 signed angles Bob1 measures at: index ANGLE_COUNT*s + k is theta
#: index k for a Phi-class (s = 0) or Psi-class (s = 1) pair. The wire
#: carries each mod 2 pi (``_ANGLE_PAYLOADS``).
SIGNED_ANGLES = tuple(
    sign * (k * ANGLE_STEP) + 0.0 for sign in (1.0, -1.0) for k in range(ANGLE_COUNT)
)


class PairTable(NamedTuple):
    """What happens to a pair, by case: ``kind[c]`` is the index in
    ENSEMBLE_ORDER of the Bell state that case CASES[c] survives as, with
    either of its kind's two readouts (``_READOUT_LOW``, ``_READOUT_STEP``).
    The array is read-only.
    """

    kind: np.ndarray  # (8,) int8


#: By Bell kind, in ENSEMBLE_ORDER: whether it is Phi-class, and the two
#: joint readouts a pair of that kind gives, each with probability 1/2, as
#: the lower one and the step to the other: (Shift, Shift) and (NoShift,
#: NoShift) for a Phi kind, (Shift, NoShift) and (NoShift, Shift) for a Psi kind.
PHI_KIND = np.array([True, True, False, False])
_READOUT_LOW = np.array([0, 0, 1, 1], np.int8)
_READOUT_STEP = np.array([3, 3, 1, 1], np.int8)
for _array in (PHI_KIND, _READOUT_LOW, _READOUT_STEP):
    _array.setflags(write=False)


@functools.lru_cache(maxsize=None)
def pair_table() -> PairTable:
    """Build the PairTable once, in closed form.

    A photon shifts its probe exactly when its polarization index (H = 0,
    V = 1) equals its path index, and the readout codes are SHIFT = 0 and
    NO_SHIFT = 1. So the term (pa, pb) of a case's Bell vector that takes
    path t, with spatial amplitude (1, sign)[t]/sqrt(2), lands in readout
    r = 2 (pa ^ t) + (pb ^ t): a Phi kind's HH and VV terms in readouts 0
    and 3, a Psi kind's HV and VH terms in readouts 1 and 2, one term of
    each path in each. Each of those two readouts occurs with probability
    exactly 1/2 and leaves the case's Bell kind, its relative sign times
    the spatial sign, so Plus and Minus swap when the sign is -1. Bob1's
    qubit of a Bell pair gives either bit with weight exactly 1/2 at every
    angle, and each fidelity with a Bell state is exactly 1.0 or 0.0.
    """
    # ENSEMBLE_ORDER lists PhiPlus, PhiMinus, PsiPlus, PsiMinus: index ^ 1
    # swaps Plus and Minus.
    kind = np.array([ENSEMBLE_ORDER.index(bell) ^ (sign < 0) for bell, sign in CASES], np.int8)
    kind.setflags(write=False)
    return PairTable(kind)


def __getattr__(name):
    # ``Transcript``, the type ``audit`` reads, is still served here, as
    # ``perfbench`` looks it up, but from ``reader`` on its first lookup:
    # importing this module, as every run does, imports no reader.
    if name == "Transcript":
        from .reader import Transcript

        return Transcript
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- security audit ---------------------------------------------------------

VIOLATION_BOB_TO_BOB = "bob_to_bob"
VIOLATION_ALICE_FEEDBACK = "alice_feedback"
VIOLATION_ANGLE_TO_BOB2 = "angle_to_bob2"
VIOLATION_RESULT_FROM_BOB2 = "result_from_bob2"


class Violation(NamedTuple):
    kind: str
    seq: int
    description: str


class AuditReport(NamedTuple):
    passed: bool
    violations: tuple[Violation, ...]


def _route_violations(phase: Phase, sender: Party, recipient: Party) -> tuple[tuple[str, str], ...]:
    """The (kind, description) of each rule a message of this route breaks,
    in rule order: (a) any server-to-server message; (b) any Alice-to-server
    message during distribution or distillation; (c) any angle announcement
    addressed to Bob2; (d) any result report sent by Bob2."""
    bobs = (Party.BOB1, Party.BOB2)
    broken = []
    if sender in bobs and recipient in bobs:
        broken.append((VIOLATION_BOB_TO_BOB, f"{sender.value} messaged {recipient.value}"))
    if sender is Party.ALICE and recipient in bobs and phase in (
            Phase.DISTRIBUTION, Phase.DISTILLATION):
        broken.append((VIOLATION_ALICE_FEEDBACK,
                       f"Alice fed back to {recipient.value} during {phase.value}"))
    if phase is Phase.ANGLE_ANNOUNCEMENT and recipient is Party.BOB2:
        broken.append((VIOLATION_ANGLE_TO_BOB2, "angle announced to Bob2"))
    if phase is Phase.RESULT_REPORT and sender is Party.BOB2:
        broken.append((VIOLATION_RESULT_FROM_BOB2, "Bob2 reported a result bit"))
    return tuple(broken)


#: The rules each route breaks, and whether it breaks any, by route code.
_ROUTE_VIOLATIONS = tuple(_route_violations(*route) for route in wire.ROUTES)
_BREAKS_A_RULE = np.array(list(map(bool, _ROUTE_VIOLATIONS)))

#: Route codes of one pair's messages in each phase of a run, in wire
#: order; the handoff phase sends one message for the whole run.
_RUN_ROUTES = tuple(
    tuple(wire._ROUTE_CODE[phase, sender, recipient] for sender, recipient in pair)
    for phase, pair in (
        (Phase.DISTRIBUTION, ((Party.SOURCE, Party.BOB1), (Party.SOURCE, Party.BOB2))),
        (Phase.DISTILLATION, ((Party.BOB1, Party.ALICE), (Party.BOB2, Party.ALICE))),
        (Phase.ANGLE_ANNOUNCEMENT, ((Party.ALICE, Party.BOB1),)),
        (Phase.RESULT_REPORT, ((Party.BOB1, Party.ALICE),)),
        (Phase.HANDOFF, ((Party.ALICE, Party.BOB2),))))


def audit(transcript: Transcript) -> AuditReport:
    """Check the communication constraints of the two-server setting.

    Each message breaks the rules its route breaks, which
    ``_route_violations`` states and ``_ROUTE_VIOLATIONS`` tabulates for
    every route. Violations are listed by message, then by rule.
    """
    violations = tuple(
        Violation(kind, block.seq[i], description)
        for block in transcript._blocks
        for i in np.flatnonzero(_BREAKS_A_RULE[block.route]).tolist()
        for kind, description in _ROUTE_VIOLATIONS[block.route[i]]
    )
    return AuditReport(passed=not violations, violations=violations)


def run_audit(m: int) -> AuditReport:
    """What ``audit`` lists for the transcript of a run of ``m`` pairs, read
    from ``_RUN_ROUTES`` without building it: a route that breaks a rule
    breaks it once per pair."""
    violations, first = [], 1
    for cycle, count in zip(_RUN_ROUTES, (m, m, m, m, 1)):
        broken = [(j, rule) for j, route in enumerate(cycle) for rule in _ROUTE_VIOLATIONS[route]]
        if broken:
            violations += (Violation(kind, first + len(cycle) * i + j, description)
                           for i in range(count) for j, (kind, description) in broken)
        first += len(cycle) * count
    return AuditReport(passed=not violations, violations=tuple(violations))


# --- whole-run orchestration ------------------------------------------------


def analytic_phi_probability(fv: FidelityVector, dephase_p: float = 0.0) -> float:
    """Exact probability that Alice infers a Phi-class pair.

    Averages the same-readout probability of each case, 1.0 for a case
    that survives as a Phi kind and 0.0 otherwise, over the mixture weights
    and the dephasing channel, component by component.
    """
    if not (0.0 <= dephase_p <= 1.0):
        raise ValueError(f"dephasing probability {dephase_p!r} outside [0, 1]")
    same = PHI_KIND[pair_table().kind].astype(float).tolist()
    weights = fv.as_tuple()
    total = 0.0
    for c, same_p in enumerate(same):
        total += weights[c // 2] * (1.0 - dephase_p, dephase_p)[c % 2] * same_p
    return total


def inferred_phi_probability(
    p: float, homodyne_error: float, evil_bob_flip_p: float
) -> float:
    """Exact probability that Alice infers a Phi-class pair from the reports.

    ``p`` is the probability of equal true readouts, as
    ``analytic_phi_probability`` gives it. Her label is the parity of the
    two reported readouts. Each server's homodyne misread and Bob1's
    misreport flip one readout, so the label flips when an odd number of
    the three flips happen, with probability
    q = (1 - (1-2e)^2 (1-2m)) / 2 independent of the pair.
    """
    kept = (1.0 - 2.0 * homodyne_error) ** 2 * (1.0 - 2.0 * evil_bob_flip_p)
    q = (1.0 - kept) / 2.0
    return p * (1.0 - q) + (1.0 - p) * q


class ProtocolRun:
    """Everything produced by one end-to-end run.

    Each pair is one row of int8 columns (``inferred_phi`` is bool):
    ``case`` indexes CASES (the Bell kind and spatial sign delivered),
    ``readout`` the true joint readout in OUTCOME_PAIRS, ``recorded`` the
    readout after homodyne misreads, ``reported`` the one Alice receives
    after Bob1's misreport, ``inferred_phi`` whether those reported
    readouts agree (Alice infers a Phi-class pair), ``theta_index`` the
    angle drawn, ``signed_angle_index`` the SIGNED_ANGLES index Bob1
    measures at (announced mod 2 pi) and ``a_bit`` the bit Bob1 reports.
    A pair survives as the Bell state ``ENSEMBLE_ORDER[pair_table().kind[case]]``,
    and Bob2's residual qubit is what is left of it once Bob1's qubit is
    projected onto the state (|H> + (-1)^a_bit e^{-i angle} |V>)/sqrt(2)
    of the announced angle. ``transcript`` is the run's wire bytes,
    ``run_wire``, rendered and parsed as a reader parses a file of them
    when first read, and ``audit_report`` is the run's audit, ``run_audit``.
    """

    def __init__(self, *columns):
        (self.case, self.readout, self.recorded, self.reported, self.inferred_phi,
         self.theta_index, self.signed_angle_index, self.a_bit) = columns
        self.audit_report = run_audit(len(self.case))

    @functools.cached_property
    def transcript(self) -> Transcript:
        from .reader import Transcript

        data = b"".join(run_wire(self.reported, self.signed_angle_index, self.a_bit))
        return Transcript.from_lines(io.TextIOWrapper(io.BytesIO(data), "utf-8"))

    @property
    def true_phi(self) -> np.ndarray:
        """Whether the surviving state of each pair is Phi-class."""
        return PHI_KIND[pair_table().kind[self.case]]


#: Most pairs in one run. The bound keeps a run's 6 m + 1 transcript seqs,
#: and every other count a run derives from its pairs, within intp.
MAX_PAIRS = np.iinfo(np.intp).max // 32

#: Payload text of each joint readout (Bob1's, then Bob2's), of each
#: signed angle, of each bit and of the handoff, one row per code. A signed
#: angle goes out mod 2 pi, the same projector for Bob1: a uniform theta
#: index gives each of the 8 strings probability 1/8 in either class.
_OUTCOME_PAYLOADS = np.array([[a.value, b.value] for a, b in OUTCOME_PAIRS], dtype=object)
_ANGLE_PAYLOADS = np.array([
    [repr((sign * k % ANGLE_COUNT) * ANGLE_STEP)] for sign in (1, -1) for k in range(ANGLE_COUNT)
], dtype=object)
_BIT_PAYLOADS = np.array([["0"], ["1"]], dtype=object)
_HANDOFF_PAYLOADS = np.array([["begin_single_server"]], dtype=object)


def run_wire(reported, angle, a_bit) -> Iterator[np.ndarray]:
    """The wire bytes of a run's transcript, from the columns its payloads
    read, one block of whole pairs at a time as a uint8 array. Each phase
    sends its messages pair by pair on the routes of its row of
    ``_RUN_ROUTES``; a distribution marker carries the pair's number."""
    from .render import render_pairs

    payloads = zip((None, _OUTCOME_PAYLOADS, _ANGLE_PAYLOADS, _BIT_PAYLOADS, _HANDOFF_PAYLOADS),
                   (range(1, len(reported) + 1), reported, angle, a_bit, np.zeros(1, np.int8)))
    first = 1
    for cycle, (table, codes) in zip(_RUN_ROUTES, payloads):
        size = max(1, wire._BLOCK_LINES // len(cycle))
        for i in range(0, len(codes), size):
            yield render_pairs(first + len(cycle) * i, cycle, table, codes[i:i + size])
        first += len(cycle) * len(codes)


def run_chunks(
    m: int,
    fv: FidelityVector,
    params: DeviceParams = DeviceParams(),
    dephase_p: float = 0.0,
    evil_bob_flip_p: float = 0.0,
    seed: int = 0,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Draw a run with four named substreams of ``seed`` and yield, for each
    chunk of at most ``wire._BLOCK_LINES`` pairs, its eight columns in the
    order of ``ProtocolRun``'s. The arguments are checked on the call.

    The substreams are, in order: distribution (per pair, the component
    draw, then the dephasing draw), distillation (per pair, the joint
    readout, each server's misread, then Bob1's misreport), angles (one
    index per pair) and Bob1's measurement (one draw per pair). Only the
    draws of enabled noise branches are made, in pair order.

    The readout and Bob1's bit are fair coins: a case gives the lower
    readout of its kind (``_READOUT_LOW``) for a draw below 1/2 and the
    one a step up (``_READOUT_STEP``) otherwise, and Bob1 reports bit 0
    for a draw below 1/2.
    """
    if m < 1:
        raise ValueError(f"pair count {m} must be >= 1")
    if m > MAX_PAIRS:
        raise ValueError(
            f"pair count {m} exceeds {MAX_PAIRS}: a run's 6 m + 1 "
            "transcript seqs must fit in intp"
        )
    if not (0.0 <= dephase_p <= 1.0):
        raise ValueError(f"dephasing probability {dephase_p!r} outside [0, 1]")
    if not (0.0 <= evil_bob_flip_p <= 1.0):
        raise ValueError(f"evil_bob_flip_p {evil_bob_flip_p!r} outside [0, 1]")
    root = np.random.SeedSequence(seed)
    rng_dist, rng_qnd, rng_angle, rng_meas = (
        np.random.default_rng(child) for child in root.spawn(4)
    )
    kind = pair_table().kind
    low, step = _READOUT_LOW[kind], _READOUT_STEP[kind]
    weights = fv.as_tuple()
    misread_p = params.homodyne_error
    dist_width = 1 + (dephase_p > 0.0)
    qnd_width = 1 + 2 * (misread_p > 0.0) + (evil_bob_flip_p > 0.0)
    size = wire._BLOCK_LINES

    def chunks():
        for start in range(0, m, size):
            n = min(size, m - start)

            # Distribution, per pair: the component draw, then the dephasing draw.
            draws = rng_dist.random(dist_width * n).reshape(n, dist_width)
            c = 2 * inverse_cdf(weights, draws[:, 0])
            if dephase_p > 0.0:
                c += draws[:, 1] < dephase_p

            # Distillation, per pair: the joint readout, each server's misread,
            # then Bob1's misreport; outcome codes flip as r ^ 2 (A) and r ^ 1 (B).
            draws = rng_qnd.random(qnd_width * n).reshape(n, qnd_width)
            r = low[c] + step[c] * (draws[:, 0] >= 0.5)
            rec = r
            if misread_p > 0.0:
                rec = r ^ (2 * (draws[:, 1] < misread_p)) ^ (draws[:, 2] < misread_p)
                rec = rec.astype(np.int8)
            rep = rec
            if evil_bob_flip_p > 0.0:
                rep = (rec ^ (2 * (draws[:, -1] < evil_bob_flip_p))).astype(np.int8)

            # Angles: the sign of each announced angle follows the inferred class.
            theta = rng_angle.integers(ANGLE_COUNT, size=n)
            phi = (rep >> 1) == (rep & 1)
            a = ANGLE_COUNT * ~phi + theta

            # Bob1: bit 0 when the draw falls below its Born weight of 1/2.
            bit = rng_meas.random(n) >= 0.5
            yield c, r, rec, rep, phi, theta, a, bit

    return chunks()


def run_protocol(m: int, fv: FidelityVector, params: DeviceParams = DeviceParams(),
                 dephase_p: float = 0.0, evil_bob_flip_p: float = 0.0,
                 seed: int = 0) -> ProtocolRun:
    """Execute the full pipeline: the chunks of ``run_chunks``, with the same
    arguments, kept in the run's int8 columns."""
    chunks = run_chunks(m, fv, params, dephase_p, evil_bob_flip_p, seed)
    columns = [np.empty(m, bool if k == 4 else np.int8) for k in range(8)]  # 4: inferred_phi
    start = 0
    for chunk in chunks:
        for column, values in zip(columns, chunk):
            column[start:start + len(values)] = values
        start += len(chunk[0])
    return ProtocolRun(*columns)
