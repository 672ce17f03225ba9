"""Wire format of the classical message bus: the parties, the phases, their
routes and the text of each, and what the writer and the reader of the
wire bytes share.

A message is one line, ``seq|phase|sender|recipient|payload_kind|payload``.
A message's (phase, sender, recipient) is its route, stored as its route
code, its index into ``ROUTES``. ``render`` writes a run's lines from
these tables and ``reader`` parses lines back; a run that writes no
transcript imports neither, and no run imports ``reader``.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum

import numpy as np


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


#: Routes: a route code is (phase * 4 + sender) * 4 + recipient in the
#: orders of ``PHASES`` and ``PARTIES``.
PHASES = tuple(Phase)
PARTIES = tuple(Party)
ROUTES = tuple(itertools.product(PHASES, PARTIES, PARTIES))
_ROUTE_CODE = {route: i for i, route in enumerate(ROUTES)}

#: Wire text between seq and payload of each route.
_LINE_MIDDLES = np.array(
    [f"{phase.value}|{sender.value}|{recipient.value}|{PAYLOAD_KIND_FOR_PHASE[phase]}"
     for phase, sender, recipient in ROUTES],
    dtype=object,
)


@functools.cache
def _digit_words() -> np.ndarray:
    """The four zero-padded ASCII digits of each of 0 to 9999, as one uint32;
    built on first use, so that a start never builds it."""
    digits = np.arange(10_000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10
    return (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _decimal_lengths(values: np.ndarray) -> np.ndarray | int:
    """Number of digits of each of the non-decreasing positive ``values``."""
    first, last = len(str(values[0])), len(str(values[-1]))
    return first + sum(values >= 10**digits for digits in range(first, last))


#: Most messages a transcript block holds, most lines the parser reads
#: at once, and most pairs a run draws at once. Every pass over a run or
#: a transcript, drawing, rendering, parsing, auditing and
#: reporting, works one block or chunk at a time.
_BLOCK_LINES = 4096
