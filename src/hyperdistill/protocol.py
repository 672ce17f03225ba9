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

``run_protocol`` is the one engine. It draws the substreams in chunks
of pairs and gathers every pair's fate from ``pair_table()`` into int8
columns. Its reference is a per-pair run in the tests that samples from
the tensor oracle of ``qnd``, which shares no code with the table.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .linalg import EPS_NORM, StateVector
from .qnd import (
    CASES,
    OUTCOME_PAIRS,
    DeviceParams,
    build_branch_table,
    conditional_pol_state,
    outcome_distribution,
)
from .states import ENSEMBLE_ORDER, FidelityVector, HyperComponent, bell_vector, inverse_cdf


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
        if "|" in self.payload or "\n" in self.payload or "\r" in self.payload:
            raise ValueError("payload must not contain '|', '\\r' or '\\n'")

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

#: Middle bytes of each (phase, sender, recipient), flattened in C order,
#: their lengths and the widest.
_MIDDLE_ROWS = [np.frombuffer(middle.encode("ascii"), np.uint8) for middle in _LINE_MIDDLES.flat]
_MIDDLE_LENGTHS = np.array([len(middle) for middle in _MIDDLE_ROWS])
_MIDDLE_WIDTH = int(_MIDDLE_LENGTHS.max())

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

#: Most messages a transcript block holds, most lines the parser reads
#: at once, and most pairs a run draws at once. Every pass over a run or
#: a transcript, drawing, building, parsing, rendering, auditing and
#: reporting, works one block or chunk at a time.
_BLOCK_LINES = 4096

#: Characters ``from_lines`` reads from a text file at a time, a little
#: more than one block of a written transcript.
_READ_CHARS = 2**18

#: Longest block text whose payload offsets fit the int32 offset column.
_MAX_BLOCK_TEXT = np.iinfo(np.int32).max


class _Payloads:
    """Payloads of a parsed block, kept as (start, stop) offsets into the
    block's text and cut out as ``str`` only when iterated."""

    __slots__ = ("text", "bounds")

    def __init__(self, text: str, bounds: np.ndarray):
        self.text = text
        self.bounds = bounds  # int32, one (start, stop) row per message

    def __iter__(self) -> Iterator[str]:
        text = self.text
        return (text[start:stop] for start, stop in self.bounds.tolist())


class _PairPayloads:
    """Payloads of consecutive messages of an engine phase, which sends
    ``width`` messages per pair, kept as one code per pair and cut out as
    ``str`` only when iterated.

    ``codes`` holds the pairs the messages belong to, and the messages
    start ``skip`` messages into the first of them. A pair's messages
    carry the row ``table[code]`` of payloads; with no table, each of
    them carries the pair's number, its code.
    """

    __slots__ = ("table", "width", "codes", "skip", "count")

    def __init__(self, table: np.ndarray | None, width: int,
                 codes: np.ndarray | range, skip: int = 0, count: int | None = None):
        self.table = table  # object array, one row of ``width`` payloads per code
        self.width = width
        self.codes = codes  # int8 view of a run column, or a range of pair numbers
        self.skip = skip
        self.count = width * len(codes) - skip if count is None else count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, cut: slice) -> "_PairPayloads":
        start, stop, _ = cut.indices(self.count)
        start, stop = self.skip + start, self.skip + max(start, stop)
        codes = self.codes[start // self.width:-(-stop // self.width)]
        return _PairPayloads(self.table, self.width, codes, start % self.width, stop - start)

    def __iter__(self) -> Iterator[str]:
        if self.table is None:
            rows = [number for number in map(str, self.codes) for _ in range(self.width)]
        else:
            rows = self.table[self.codes].ravel().tolist()
        return iter(rows[self.skip:self.skip + self.count])


class _Block(NamedTuple):
    """A run of messages held as columns; the phase fixes the payload kind."""

    seq: Sequence[int]  # a range when the seqs are consecutive
    phase: np.ndarray  # int8 indices into PHASES
    sender: np.ndarray  # int8 indices into PARTIES
    recipient: np.ndarray  # int8 indices into PARTIES
    payload: list[str] | _Payloads | _PairPayloads


def _seq_column(seqs: list[int]) -> Sequence[int]:
    """The seqs, as a range when they are consecutive."""
    if seqs and seqs[-1] - seqs[0] == len(seqs) - 1 and all(map(int.__lt__, seqs, seqs[1:])):
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


def _parse_block(text: str, ends: np.ndarray, prev: int) -> _Block | None:
    """Columns of the wire lines that follow seq ``prev``.

    ``text`` is the lines joined and ``ends`` the offset in it where each
    line ends. Works on the bytes of the whole block and drops empty lines
    (``""`` and ``"\\n"``). Returns None when the block is too long for int32
    offsets, or a line is not plain ASCII, holds a ``"\\r"`` or a newline
    anywhere but at its end, does not have exactly five ``|``, has a seq
    that is not 1 to 15 digits above ``prev`` and above the seq before it,
    or has a middle (the text between seq and payload) other than a valid
    one. The valid middles have a known phase and parties, the phase's
    payload kind and no self-message, so a block that passes gives what
    ``Message.from_line`` gives line by line. One byte of each field picks a
    line's candidate middle; each candidate present is then compared, as one
    byte row, with all of the block's lines that picked it.
    """
    if len(text) > _MAX_BLOCK_TEXT or not text.isascii() or "\r" in text:
        return None
    # Zero padding keeps every fixed-width read below inside the buffer.
    buf = np.frombuffer(text.encode("ascii") + bytes(_MIDDLE_WIDTH), np.uint8)
    starts = np.concatenate(([0], ends[:-1]))
    lengths = ends - starts
    newline = (lengths > 0) & (buf[ends - 1] == ord("\n"))
    if np.count_nonzero(buf == ord("\n")) != np.count_nonzero(newline):
        return None
    stops = ends - newline
    nonblank = stops > starts
    starts, stops = starts[nonblank], stops[nonblank]
    n = len(starts)
    if not n:
        return _block_of([])
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
    if int(seq[0]) <= prev or (seq[1:] <= seq[:-1]).any():
        return None

    # Middle: the candidate code keyed by one byte of each field, then one
    # exact comparison per code present (one or two in an engine block).
    phase = _PHASE_OF_BYTE[buf[first_pipe + 1 + _PHASE_KEY_AT]]
    sender = _PARTY_OF_BYTE[buf[pipes[:, 1] + 1 + _PARTY_KEY_AT]]
    recipient = _PARTY_OF_BYTE[buf[pipes[:, 2] + 1 + _PARTY_KEY_AT]]
    if (sender == recipient).any():
        return None
    code = (phase * len(PARTIES) + sender) * len(PARTIES) + recipient
    if (pipes[:, 4] - first_pipe - 1 != _MIDDLE_LENGTHS[code]).any():
        return None
    # Row i of this view is the buffer from byte i on.
    windows = np.ndarray((len(buf) - _MIDDLE_WIDTH + 1, _MIDDLE_WIDTH), np.uint8, buf,
                         strides=(1, 1))
    present = np.flatnonzero(np.bincount(code)).tolist()
    for c in present:
        at = first_pipe + 1 if len(present) == 1 else first_pipe[code == c] + 1
        if (windows[at, :_MIDDLE_LENGTHS[c]] != _MIDDLE_ROWS[c]).any():
            return None

    bounds = np.empty((n, 2), np.int32)
    bounds[:, 0] = pipes[:, 4] + 1
    bounds[:, 1] = stops
    first, last = int(seq[0]), int(seq[-1])
    seqs = range(first, last + 1) if last - first == n - 1 else seq.tolist()
    return _Block(seqs, phase, sender, recipient, _Payloads(text, bounds))


def _parse_messages(text: str, ends: np.ndarray, prev: int) -> list[Message]:
    """Parse the nonblank lines one by one; raises the error of the first
    bad line."""
    messages = []
    bounds = itertools.pairwise([0, *ends.tolist()])
    for line in filter(str.strip, (text[start:stop] for start, stop in bounds)):
        msg = Message.from_line(line)
        if msg.seq <= prev:
            raise ValueError(f"seq {msg.seq} not strictly increasing")
        prev = msg.seq
        messages.append(msg)
    return messages


def _list_blocks(lines: Iterable[str]) -> Iterator[tuple[str, np.ndarray]]:
    """(text, line ends) of each ``_BLOCK_LINES`` lines of ``lines``."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, _BLOCK_LINES)):
        yield "".join(chunk), np.cumsum(np.fromiter(map(len, chunk), np.int64, len(chunk)))


def _line_ends(text: str) -> np.ndarray:
    """Offset just past each newline of ``text``."""
    # "replace" encodes each non-ASCII character as one "?", so these
    # byte offsets are character offsets.
    buf = np.frombuffer(text.encode("ascii", "replace"), np.uint8)
    return np.flatnonzero(buf == ord("\n")) + 1


def _text_blocks(fh: io.TextIOBase) -> Iterator[tuple[str, np.ndarray]]:
    """(text, line ends) of each ``_BLOCK_LINES`` lines of ``fh``, read
    ``_READ_CHARS`` characters at a time.

    The lines are those iterating ``fh`` gives as long as its text holds
    no ``"\\r"``, which may end a line too; raises ValueError at the first
    chunk that holds one.
    """
    size = _BLOCK_LINES
    parts, part_ends = [], []  # text not yet cut into blocks, its line ends
    length = count = 0  # that text's length and number of line ends
    while chunk := fh.read(_READ_CHARS):
        if "\r" in chunk:
            raise ValueError("'\\r' in text: read it as lines")
        parts.append(chunk)
        part_ends.append(_line_ends(chunk) + length)
        length += len(chunk)
        count += len(part_ends[-1])
        if count < size:
            continue
        text, ends = "".join(parts), np.concatenate(part_ends)
        blocks, start, cut = [], 0, count - count % size
        for i in range(0, cut, size):
            stop = int(ends[i + size - 1])
            blocks.append((text[start:stop], ends[i:i + size] - start))
            start = stop
        parts, part_ends = [text[start:]], [ends[cut:] - start]
        length, count = len(text) - start, count - cut
        # Every block is cut before any is parsed, so that neither the
        # chunk nor the joined text stays alive while they are.
        del chunk, text
        yield from blocks
    text = "".join(parts)
    if text:
        ends = np.concatenate(part_ends)
        if not text.endswith("\n"):
            ends = np.append(ends, len(text))
        yield text, ends


def _render(block: _Block) -> list[str]:
    middles = _LINE_MIDDLES[block.phase, block.sender, block.recipient].tolist()
    return [
        f"{seq}|{middle}|{payload}"
        for seq, middle, payload in zip(block.seq, middles, block.payload)
    ]


def _cycle(codes: list[int], size: int) -> np.ndarray:
    """Read-only int8 ``codes`` repeated, long enough to hold a window of
    ``size`` from any start in the first cycle."""
    cycle = np.tile(np.array(codes, dtype=np.int8), -(-size // len(codes)) + 1)
    cycle.setflags(write=False)
    return cycle


class Transcript:
    """Append-only, strictly sequenced log of classical messages.

    Messages are stored as blocks of at most ``_BLOCK_LINES`` rows of
    columns: phase, sender and recipient codes plus the payloads. A parsed
    block keeps its payloads as offsets into its text, and an engine
    block as codes into a payload table. ``messages``,
    ``to_lines`` and ``iter_bytes`` build their output from the columns
    on each call, one block at a time.
    """

    def __init__(self):
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
        self, phase: Phase, sender: Party, recipient: Party, payload: str
    ) -> Message:
        """Log one message; its payload kind is the one ``phase`` carries."""
        msg = Message(
            seq=self._last_seq + 1,
            phase=phase,
            sender=sender,
            recipient=recipient,
            payload_kind=PAYLOAD_KIND_FOR_PHASE[phase],
            payload=payload,
        )
        self._pending.append(msg)
        self._last_seq = msg.seq
        if len(self._pending) >= _BLOCK_LINES:
            self._sealed_blocks()
        return msg

    def _extend(
        self,
        phase: Phase,
        senders: tuple[Party, ...],
        recipients: tuple[Party, ...],
        payloads: _PairPayloads,
    ) -> None:
        """Append one message per payload, all in ``phase``, in blocks of
        at most ``_BLOCK_LINES``.

        Senders and recipients repeat the given cycles. Each block's
        phase, sender and recipient columns are views of one read-only
        cycle per column, and its payloads a slice of ``payloads``. The
        engine builds every block from fixed parties and payload tables,
        so the checks of ``Message`` are not repeated per message.
        """
        size, n, first = _BLOCK_LINES, len(payloads), self._last_seq + 1
        cycles = [
            (_cycle(codes, size), len(codes))
            for codes in (
                [_PHASE_CODE[phase]],
                [_PARTY_CODE[p] for p in senders],
                [_PARTY_CODE[p] for p in recipients],
            )
        ]
        blocks = self._sealed_blocks()
        for i in range(0, n, size):
            count = min(size, n - i)
            blocks.append(_Block(
                range(first + i, first + i + count),
                *(cycle[i % period:][:count] for cycle, period in cycles),
                payloads[i:i + count],
            ))
        self._last_seq += n

    def to_lines(self) -> list[str]:
        return [line for block in self._sealed_blocks() for line in _render(block)]

    def _wire(self) -> Iterator[bytes | np.ndarray]:
        """``iter_bytes``, with an engine block as a uint8 array."""
        blocks = self._sealed_blocks()
        if not blocks:
            yield b"\n"
        for block in blocks:
            if isinstance(block.payload, _PairPayloads):
                from .render import render_pairs  # imported by the first engine block
                yield render_pairs(block)
            else:
                yield ("\n".join(_render(block)) + "\n").encode("utf-8")

    def iter_bytes(self) -> Iterator[bytes]:
        """The wire bytes, one block at a time; one newline when empty."""
        return map(bytes, self._wire())

    def write(self, fh: io.BufferedIOBase) -> None:
        """Write the wire bytes to a binary file, one block at a time."""
        fh.writelines(self._wire())

    def to_bytes(self) -> bytes:
        return b"".join(self._wire())

    @classmethod
    def from_lines(cls, lines: Iterable[str] | io.TextIOBase) -> "Transcript":
        """Parse wire lines: a list or other iterable of lines, or a text file.

        Lines that ``str.strip`` leaves empty are dropped. Every
        ``_BLOCK_LINES`` lines form one block, parsed in one pass over its
        text; a block that fails a byte check is parsed line by line by
        ``Message.from_line``, so a bad line raises the ValueError that
        parsing message by message would raise.

        A text file is read ``_READ_CHARS`` characters at a time, and its
        lines are cut at each ``"\\n"``. That gives the lines iterating the
        file gives unless the text holds a ``"\\r"`` (only under an explicit
        ``newline=``). So when a chunk holds one, does not decode, or holds
        a bad line, the file is seeked back to where this call found it and
        iterated line by line, which raises what iteration raises. A file
        whose position cannot be told, such as a pipe or a file advanced by
        ``next()``, is iterated line by line from where it is.
        """
        if isinstance(lines, str):
            raise TypeError("from_lines takes lines or a text file, not one str")
        if isinstance(lines, io.TextIOBase):
            try:
                start = lines.tell()
            except OSError:
                pass
            else:
                try:
                    return cls._from_blocks(_text_blocks(lines))
                except ValueError:  # UnicodeDecodeError is one too
                    lines.seek(start)
        return cls._from_blocks(_list_blocks(lines))

    @classmethod
    def _from_blocks(cls, blocks: Iterable[tuple[str, np.ndarray]]) -> "Transcript":
        transcript = cls()
        prev = 0
        for text, ends in blocks:
            block = _parse_block(text, ends, prev)
            if block is None:
                block = _block_of(_parse_messages(text, ends, prev))
            if block.seq:
                transcript._blocks.append(block)
                prev = block.seq[-1]
        transcript._last_seq = prev
        return transcript


class BellClass(Enum):
    """Coarse pair label Alice infers from the two readouts."""

    PHI = "PhiClass"
    PSI = "PsiClass"


#: Announced angles are multiples of pi/4.
ANGLE_STEP = math.pi / 4
ANGLE_COUNT = 8


def state_bell_class(state: StateVector) -> BellClass:
    """Physical class of a two-qubit polarization state by span weight."""
    amps = state.amplitudes
    phi_weight = abs(amps[0]) ** 2 + abs(amps[3]) ** 2
    return BellClass.PHI if phi_weight > 0.5 else BellClass.PSI


#: The 16 announced angles: index ANGLE_COUNT*s + k is theta index k sent
#: for a Phi-class (s = 0) or Psi-class (s = 1) pair.
SIGNED_ANGLES = tuple(
    sign * (k * ANGLE_STEP) + 0.0 for sign in (1.0, -1.0) for k in range(ANGLE_COUNT)
)


class PairTable(NamedTuple):
    """What happens to a pair, by case, joint readout and signed angle.

    Case c is CASES[c] (a Bell kind and a spatial sign), readout r is
    OUTCOME_PAIRS[r] and angle a is SIGNED_ANGLES[a]. A readout that
    cannot occur has no state, does not survive, is not Phi-class, has
    NaN fidelities and bit-0 probabilities, and both of its bits have
    zero Born weight, so no lookup of it passes unnoticed. The arrays
    are read-only.
    """

    probs: np.ndarray  # (8, 4) Born probability of the readout
    states: tuple[tuple[StateVector | None, ...], ...]  # surviving state
    survives: np.ndarray  # (8, 4) whether the readout can occur
    phi: np.ndarray  # (8, 4) whether the surviving state is Phi-class
    fidelity: np.ndarray  # (8, 4, 4) with each Bell state, in ENSEMBLE_ORDER
    bit0: np.ndarray  # (8, 4, 16) probability that Bob1 reports bit 0
    zero_weight: np.ndarray  # (8, 4, 16, 2) bits without a residual state


@functools.lru_cache(maxsize=None)
def pair_table() -> PairTable:
    """Build the PairTable once, from the branch engine.

    The states are the shared instances ``conditional_pol_state``
    returns. Bob1's block projects every surviving state onto his rotated
    basis at every signed angle in one numpy expression.
    """
    tables = [build_branch_table(HyperComponent(kind, 1.0, sign)) for kind, sign in CASES]
    probs = np.array([list(outcome_distribution(table).values()) for table in tables])
    states = tuple(
        tuple(conditional_pol_state(table, pair) for pair in OUTCOME_PAIRS)
        for table in tables
    )
    if not np.all((probs >= 0.0) & (probs <= 1.0 + EPS_NORM)):
        raise RuntimeError(f"readout probabilities outside [0, 1]: {probs}")
    if any(state is not None and state.dim != 4 for row in states for state in row):
        raise RuntimeError("surviving state is not a two-qubit state")
    survives = np.array([[state is not None for state in row] for row in states])
    phi = np.array([
        [state is not None and state_bell_class(state) is BellClass.PHI for state in row]
        for row in states
    ])

    fidelity = np.full(probs.shape + (len(ENSEMBLE_ORDER),), np.nan)
    psi = np.zeros(probs.shape + (2, 2), dtype=complex)
    for c, r in zip(*np.nonzero(survives)):
        amplitudes = states[c][r].amplitudes
        fidelity[c, r] = [
            abs(np.vdot(bell_vector(kind).amplitudes, amplitudes)) ** 2
            for kind in ENSEMBLE_ORDER
        ]
        psi[c, r] = amplitudes.reshape(2, 2)

    # bra[a, s]: the bit-s basis state (|H> + (-1)^s e^{-i angle} |V>)/sqrt(2)
    # as a row vector, so that bra @ psi is Bob2's unnormalised residual.
    phase = np.exp(-1j * np.array(SIGNED_ANGLES))
    bra = np.empty((len(SIGNED_ANGLES), 2, 1, 2), dtype=complex)
    bra[:, :, 0, 0] = 1.0
    bra[:, 0, 0, 1] = phase
    bra[:, 1, 0, 1] = -phase
    bra = bra.conj() / math.sqrt(2.0)
    branch = (bra @ psi[:, :, None, None])[..., 0, :]
    bit0 = np.sum(np.abs(branch[..., 0, :]) ** 2, axis=-1)
    bit0[~survives] = np.nan
    zero_weight = np.linalg.norm(branch, axis=-1) <= 1e-9

    for array in (probs, survives, phi, fidelity, bit0, zero_weight):
        array.setflags(write=False)
    return PairTable(probs, states, survives, phi, fidelity, bit0, zero_weight)


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

    Averages the same-readout probability of each case over the mixture
    weights and the dephasing channel, component by component.
    """
    if not (0.0 <= dephase_p <= 1.0):
        raise ValueError(f"dephasing probability {dephase_p!r} outside [0, 1]")
    probs = pair_table().probs
    same = (probs[:, 0] + probs[:, 3]).tolist()  # (Shift, Shift) + (NoShift, NoShift)
    weights = fv.as_tuple()
    total = 0.0
    for c, same_p in enumerate(same):
        weight, sign_p = weights[c // 2], (1.0 - dephase_p, dephase_p)[c % 2]
        if sign_p != 0.0 and weight != 0.0:
            total += weight * sign_p * same_p
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

    Each pair is one row of int8 columns (``inferred_phi`` is bool) over
    the engine tables:
    ``case`` indexes CASES (the Bell kind and spatial sign delivered),
    ``readout`` the true joint readout in OUTCOME_PAIRS, ``recorded`` the
    readout after homodyne misreads, ``reported`` the one Alice receives
    after Bob1's misreport, ``inferred_phi`` whether those reported
    readouts agree (Alice infers a Phi-class pair), ``theta_index`` the
    angle drawn, ``signed_angle_index`` the SIGNED_ANGLES index announced
    and ``a_bit`` the bit Bob1 reports. The surviving state of a pair is
    ``pair_table().states[case][readout]``, and Bob2's residual qubit is
    what is left of it once Bob1's qubit is projected onto the state
    (|H> + (-1)^a_bit e^{-i angle} |V>)/sqrt(2) of the announced angle.
    """

    def __init__(
        self, case, readout, recorded, reported, inferred_phi, theta_index,
        signed_angle_index, a_bit, transcript: Transcript,
    ):
        self.case = case
        self.readout = readout
        self.recorded = recorded
        self.reported = reported
        self.inferred_phi = inferred_phi
        self.theta_index = theta_index
        self.signed_angle_index = signed_angle_index
        self.a_bit = a_bit
        self.transcript = transcript
        self.audit_report = audit(transcript)

    @property
    def true_phi(self) -> np.ndarray:
        """Whether the surviving state of each pair is Phi-class."""
        return pair_table().phi[self.case, self.readout]


def pair_chunks(m: int) -> Iterator[slice]:
    """Slices of at most ``_BLOCK_LINES`` pairs that cover ``m`` pairs in order."""
    size = _BLOCK_LINES
    return (slice(i, min(i + size, m)) for i in range(0, m, size))


#: Most uniform draws a pair takes from one substream: the joint readout,
#: two homodyne misreads and Bob1's misreport. The pair bound keeps the
#: byte count of a run's draws within intp, and with it every count a run
#: derives from its pairs, such as its 6 m + 1 transcript seqs.
DRAWS_PER_PAIR = 4
MAX_PAIRS = np.iinfo(np.intp).max // (DRAWS_PER_PAIR * np.dtype(np.float64).itemsize)

#: Payload text of each joint readout (Bob1's, then Bob2's), of each
#: signed angle and of each bit, one row per code.
_OUTCOME_PAYLOADS = np.array([[a.value, b.value] for a, b in OUTCOME_PAIRS], dtype=object)
_ANGLE_PAYLOADS = np.array([[repr(angle)] for angle in SIGNED_ANGLES], dtype=object)
_BIT_PAYLOADS = np.array([["0"], ["1"]], dtype=object)


def run_protocol(
    m: int,
    fv: FidelityVector,
    params: DeviceParams = DeviceParams(),
    dephase_p: float = 0.0,
    evil_bob_flip_p: float = 0.0,
    seed: int = 0,
) -> ProtocolRun:
    """Execute the full pipeline with four named substreams of ``seed``.

    The substreams are, in order: distribution (per pair, the component
    draw, then the dephasing draw), distillation (per pair, the joint
    readout, each server's misread, then Bob1's misreport), angles (one
    index per pair) and Bob1's measurement (one draw per pair). Only the
    draws of enabled noise branches are made. They are drawn in pair
    order, ``_BLOCK_LINES`` pairs at a time, and each pair's fate is
    gathered from ``pair_table()`` into the run's int8 columns; the
    transcript keeps its payloads as codes into those columns.
    """
    if m < 1:
        raise ValueError(f"pair count {m} must be >= 1")
    if m > MAX_PAIRS:
        raise ValueError(
            f"pair count {m} exceeds {MAX_PAIRS}: a run draws up to "
            f"{DRAWS_PER_PAIR} float64 uniforms per pair, and their byte "
            "count must fit in intp"
        )
    if not (0.0 <= dephase_p <= 1.0):
        raise ValueError(f"dephasing probability {dephase_p!r} outside [0, 1]")
    if not (0.0 <= evil_bob_flip_p <= 1.0):
        raise ValueError(f"evil_bob_flip_p {evil_bob_flip_p!r} outside [0, 1]")
    root = np.random.SeedSequence(seed)
    rng_dist, rng_qnd, rng_angle, rng_meas = (
        np.random.default_rng(child) for child in root.spawn(4)
    )
    table = pair_table()
    weights = fv.as_tuple()
    misread_p = params.homodyne_error
    dist_width = 1 + (dephase_p > 0.0)
    qnd_width = 1 + 2 * (misread_p > 0.0) + (evil_bob_flip_p > 0.0)

    case, readout, theta_index, angle, a_bit = (np.empty(m, np.int8) for _ in range(5))
    recorded = np.empty(m, np.int8) if misread_p > 0.0 else readout
    reported = np.empty(m, np.int8) if evil_bob_flip_p > 0.0 else recorded
    inferred_phi = np.empty(m, bool)
    for pairs in pair_chunks(m):
        n = pairs.stop - pairs.start

        # Distribution, per pair: the component draw, then the dephasing draw.
        draws = rng_dist.random(dist_width * n).reshape(n, dist_width)
        c = 2 * inverse_cdf(weights, draws[:, 0])
        if dephase_p > 0.0:
            c += draws[:, 1] < dephase_p

        # Distillation, per pair: the joint readout, each server's misread,
        # then Bob1's misreport; outcome codes flip as r ^ 2 (A) and r ^ 1 (B).
        draws = rng_qnd.random(qnd_width * n).reshape(n, qnd_width)
        r = inverse_cdf(table.probs[c], draws[:, 0])
        dead = ~table.survives[c, r]
        if dead.any():
            pair = OUTCOME_PAIRS[r[dead][0]]
            raise RuntimeError(f"sampled readout {pair} has no surviving branch")
        rec = r
        if misread_p > 0.0:
            rec = r ^ (2 * (draws[:, 1] < misread_p)) ^ (draws[:, 2] < misread_p)
        rep = rec
        if evil_bob_flip_p > 0.0:
            rep = rec ^ (2 * (draws[:, -1] < evil_bob_flip_p))

        # Angles: the sign of each announced angle follows the inferred class.
        theta = rng_angle.integers(ANGLE_COUNT, size=n)
        phi = (rep >> 1) == (rep & 1)
        a = ANGLE_COUNT * ~phi + theta

        # Bob1: bit 0 when the draw falls below its Born weight.
        bit = (rng_meas.random(n) >= table.bit0[c, r, a]).astype(np.int8)
        impossible = table.zero_weight[c, r, a, bit]
        if impossible.any():
            raise RuntimeError(
                f"bit {bit[impossible][0]} sampled despite zero Born weight"
            )
        for column, values in (
            (case, c), (readout, r), (recorded, rec), (reported, rep),
            (inferred_phi, phi), (theta_index, theta), (angle, a), (a_bit, bit),
        ):
            column[pairs] = values

    transcript = Transcript()
    transcript._extend(
        Phase.DISTRIBUTION, (Party.SOURCE,), (Party.BOB1, Party.BOB2),
        _PairPayloads(None, 2, range(1, m + 1)),
    )
    transcript._extend(
        Phase.DISTILLATION, (Party.BOB1, Party.BOB2), (Party.ALICE,),
        _PairPayloads(_OUTCOME_PAYLOADS, 2, reported),
    )
    transcript._extend(
        Phase.ANGLE_ANNOUNCEMENT, (Party.ALICE,), (Party.BOB1,),
        _PairPayloads(_ANGLE_PAYLOADS, 1, angle),
    )
    transcript._extend(
        Phase.RESULT_REPORT, (Party.BOB1,), (Party.ALICE,),
        _PairPayloads(_BIT_PAYLOADS, 1, a_bit),
    )
    transcript.append(Phase.HANDOFF, Party.ALICE, Party.BOB2, "begin_single_server")
    return ProtocolRun(
        case, readout, recorded, reported, inferred_phi, theta_index, angle,
        a_bit, transcript,
    )
