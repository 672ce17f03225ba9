"""Wire format of the classical message bus: messages, their columnar
blocks, and the transcript that writes and parses them.

A message is one line, ``seq|phase|sender|recipient|payload_kind|payload``.
A transcript keeps its messages as blocks of at most ``_BLOCK_LINES``
rows of columns: phase, sender and recipient codes plus the payloads.
An engine block holds whole pairs, with its payloads as codes into a
small payload table; ``render.render_pairs`` writes it from byte tables,
and ``render`` is imported on the first engine block written. Parsed and
appended blocks render with the f-strings of ``_render``. ``from_lines``
parses saved lines straight into columns, one block at a time.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    """Payloads of the messages of whole pairs in an engine phase, which
    sends ``width`` messages per pair, kept as one code per pair and cut
    out as ``str`` only when iterated.

    A pair's messages carry the row ``table[code]`` of payloads; with no
    table, each of them carries the pair's number, its code.
    """

    __slots__ = ("table", "width", "codes")

    def __init__(self, table: np.ndarray | None, width: int, codes: np.ndarray | range):
        self.table = table  # object array, one row of ``width`` payloads per code
        self.width = width
        self.codes = codes  # int8 view of a run column, or a range of pair numbers

    def __iter__(self) -> Iterator[str]:
        if self.table is None:
            return (number for number in map(str, self.codes) for _ in range(self.width))
        return iter(self.table[self.codes].ravel().tolist())


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


class Transcript:
    """Append-only, strictly sequenced log of classical messages.

    Messages are stored as blocks of at most ``_BLOCK_LINES`` rows of
    columns: phase, sender and recipient codes plus the payloads. A parsed
    block keeps its payloads as offsets into its text, and an engine
    block as codes into a payload table. ``messages``, ``to_lines`` and
    ``write`` build their output from the columns on each call, one block
    at a time.
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
        ``max(1, _BLOCK_LINES // width)`` whole pairs.

        Senders and recipients repeat the given cycles, whose lengths
        divide the width. Each block's phase, sender and recipient columns
        are prefixes of one read-only tiled column each, and its payloads
        the codes of its pairs. The engine builds every block
        from fixed parties and payload tables, so the checks of
        ``Message`` are not repeated per message.
        """
        table, width, codes = payloads.table, payloads.width, payloads.codes
        size = max(1, _BLOCK_LINES // width)
        lines = width * min(size, len(codes))
        columns = []
        for cycle in ([_PHASE_CODE[phase]], [_PARTY_CODE[p] for p in senders],
                      [_PARTY_CODE[p] for p in recipients]):
            column = np.tile(np.array(cycle, dtype=np.int8), lines // len(cycle))
            column.setflags(write=False)
            columns.append(column)
        first = self._last_seq + 1
        blocks = self._sealed_blocks()
        for i in range(0, len(codes), size):
            pairs = codes[i:i + size]
            count = width * len(pairs)
            blocks.append(_Block(
                range(first + width * i, first + width * i + count),
                *(column[:count] for column in columns),
                _PairPayloads(table, width, pairs),
            ))
        self._last_seq += width * len(codes)

    def to_lines(self) -> list[str]:
        return [line for block in self._sealed_blocks() for line in _render(block)]

    def _wire(self) -> Iterator[bytes | np.ndarray]:
        """The wire bytes, one block at a time, an engine block as a uint8
        array; one newline when empty."""
        blocks = self._sealed_blocks()
        if not blocks:
            yield b"\n"
        for block in blocks:
            if isinstance(block.payload, _PairPayloads):
                from .render import render_pairs  # imported by the first engine block
                yield render_pairs(block)
            else:
                yield ("\n".join(_render(block)) + "\n").encode("utf-8")

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
