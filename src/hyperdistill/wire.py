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

import functools
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
#: with the ``|`` that ends them; the middles' lengths and the widest row.
_MIDDLE_ROWS = [np.frombuffer(f"{middle}|".encode("ascii"), np.uint8) for middle in _LINE_MIDDLES.flat]
_MIDDLE_LENGTHS = np.array([len(row) - 1 for row in _MIDDLE_ROWS])
_MIDDLE_WIDTH = int(_MIDDLE_LENGTHS.max()) + 1

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
#: Offset of the sender's key byte from a line's first pipe, by phase, and
#: of the recipient's from the sender's, by sender.
_SENDER_KEY_AT = np.array([len(phase.value) + 2 + _PARTY_KEY_AT for phase in PHASES])
_RECIPIENT_KEY_AFTER = np.array([len(party.value) + 1 for party in PARTIES])

#: Longest seq the block parser checks; longer ones are left to ``int``.
_SEQ_DIGITS = 15


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


#: The bytes of a uint32 word that lie at or after byte ``i``, as row ``i``.
_WORD_MASKS = ((np.arange(4) >= np.arange(4)[:, None]) * np.uint8(255)).view(np.uint32).ravel()

#: Most messages a transcript block holds, most lines the parser reads
#: at once, and most pairs a run draws at once. Every pass over a run or
#: a transcript, drawing, building, parsing, rendering, auditing and
#: reporting, works one block or chunk at a time.
_BLOCK_LINES = 4096

#: Characters ``from_lines`` reads from a text file at a time, a little
#: more than one block of a written transcript.
_READ_CHARS = 2**18

#: Longest padded block text whose payload offsets fit the int32 offset column.
_MAX_BLOCK_TEXT = np.iinfo(np.int32).max


class _Payloads:
    """Payloads of a parsed block, kept as (start, stop) offsets into the
    block's bytes as the parser padded them, and cut out as ``str`` only
    when iterated."""

    __slots__ = ("text", "bounds")

    def __init__(self, text: bytes, bounds: np.ndarray):
        self.text = text
        self.bounds = bounds  # int32, one (start, stop) row per message

    def __iter__(self) -> Iterator[str]:
        text = self.text.decode("ascii")
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


def _parse_block(text: str | memoryview, ends: np.ndarray, prev: int) -> _Block | None:
    """Columns of the wire lines that follow seq ``prev``.

    ``text`` is the lines joined, as a str or as a view of the bytes of
    ASCII text with no ``"\\r"``, and ``ends`` the offset in it where each
    line ends. Works on the bytes of the whole block and drops empty lines
    (``""`` and ``"\\n"``). Returns None when the block is too long for
    int32 offsets, a str is not plain ASCII or holds a ``"\\r"``, a line
    holds a newline anywhere but at its end, the seqs are not one
    consecutive run above ``prev`` of 1 to 15 digits with no leading zero,
    a line's middle (the text between seq and payload) is not a valid one,
    or a payload holds a ``|``. The valid middles have a known phase and
    parties, the phase's payload kind and no self-message, so a block that
    passes gives what ``Message.from_line`` gives line by line. One byte of
    each field picks a line's candidate middle; each candidate present is
    then compared, as one byte row, with all of the block's lines that
    picked it.
    """
    if isinstance(text, str):
        if not text.isascii() or "\r" in text:
            return None
        text = text.encode("ascii")
    # Zero padding keeps every fixed-width read below inside the buffer; in
    # front, the three bytes that a first seq's leading word reaches back.
    # Offsets from here on are into ``data``, three past those into ``text``.
    data = b"".join((bytes(3), text, bytes(_SEQ_DIGITS + _MIDDLE_WIDTH)))
    if len(data) > _MAX_BLOCK_TEXT:
        return None
    buf = np.frombuffer(data, np.uint8)
    ends = ends + 3
    starts = np.concatenate(([3], ends[:-1]))
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

    # Seq: the first line's, then one more on each line. The digit counts
    # of the run place each line's first pipe, and its digits are compared
    # four at a time as uint32 words, masking the bytes before the line.
    head = data[starts[0]:starts[0] + _SEQ_DIGITS + 1].partition(b"|")[0]
    first = int(head) if head.isdigit() and len(head) <= _SEQ_DIGITS else 0
    if not prev < first <= 10**_SEQ_DIGITS - n:
        return None
    seqs = np.arange(first, first + n)
    first_pipe = starts + _decimal_lengths(seqs)
    if (buf[first_pipe] != ord("|")).any():
        return None
    words = np.ndarray((len(buf) - 3,), np.uint32, buf, strides=(1,))
    digit_words = _digit_words()
    values, at, left = seqs, first_pipe - 4, first_pipe - starts
    while len(values):
        tens = values // 10**4
        wrong = words[at] ^ digit_words.take(values - tens * 10**4)
        if left[0] < 4:  # some words hold bytes before their line
            wrong &= _WORD_MASKS.take(np.maximum(4 - left, 0))
        if wrong.any():
            return None
        more = np.searchsorted(tens, 1)  # the first value with digits left
        values, at, left = tens[more:], at[more:] - 4, left[more:] - 4

    # Middle: the candidate code keyed by one byte of each field, then one
    # exact comparison per code present (one or two in an engine block),
    # which also proves the pipes inside the middle and the one after it.
    phase = _PHASE_OF_BYTE.take(buf[first_pipe + 1 + _PHASE_KEY_AT])
    sender_key = first_pipe + _SENDER_KEY_AT.take(phase)
    sender = _PARTY_OF_BYTE.take(buf[sender_key])
    recipient = _PARTY_OF_BYTE.take(buf[sender_key + _RECIPIENT_KEY_AFTER.take(sender)])
    if (sender == recipient).any():
        return None
    code = (phase * len(PARTIES) + sender) * len(PARTIES) + recipient
    last_pipe = first_pipe + 1 + _MIDDLE_LENGTHS.take(code)
    if (last_pipe >= stops).any():
        return None
    # Row i of this view is the buffer from byte i on.
    windows = np.ndarray((len(buf) - _MIDDLE_WIDTH + 1, _MIDDLE_WIDTH), np.uint8, buf,
                         strides=(1, 1))
    present = np.flatnonzero(np.bincount(code)).tolist()
    for c in present:
        at = first_pipe + 1 if len(present) == 1 else first_pipe[code == c] + 1
        row = _MIDDLE_ROWS[c]
        if (windows[at, :len(row)] != row).any():
            return None
    # Each line holds the five pipes found above, so a sixth is in a payload.
    if np.count_nonzero(buf == ord("|")) != 5 * n:
        return None

    bounds = np.empty((n, 2), np.int32)
    bounds[:, 0] = last_pipe + 1
    bounds[:, 1] = stops
    return _Block(range(first, first + n), phase, sender, recipient, _Payloads(data, bounds))


def _parse_messages(text: str | memoryview, ends: np.ndarray, prev: int) -> list[Message]:
    """Parse the nonblank lines one by one; raises the error of the first
    bad line."""
    if not isinstance(text, str):
        text = str(text, "ascii")
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


def _joined(parts: list[str | bytes | memoryview]) -> str | memoryview:
    """The parts joined: a str when one of them is, else a view of bytes."""
    if any(isinstance(part, str) for part in parts):
        return "".join(part if isinstance(part, str) else str(part, "ascii") for part in parts)
    return memoryview(b"".join(parts))


def _text_blocks(fh: io.TextIOBase) -> Iterator[tuple[str | memoryview, np.ndarray]]:
    """(text, line ends) of each ``_BLOCK_LINES`` lines of ``fh``, read
    ``_READ_CHARS`` characters at a time.

    The lines are those iterating ``fh`` gives as long as its text holds
    no ``"\\r"``, which may end a line too; raises ValueError at the first
    chunk that holds one. An ASCII chunk is encoded once, for its newline
    scan and its blocks: a block whose chunks all were is a view of their
    bytes joined, which the parser copies.
    """
    size = _BLOCK_LINES
    parts, part_ends = [], []  # text not yet cut into blocks, its line ends
    length = count = 0  # that text's length and number of line ends
    while chunk := fh.read(_READ_CHARS):
        if "\r" in chunk:
            raise ValueError("'\\r' in text: read it as lines")
        # "replace" encodes each non-ASCII character as one "?", so these
        # byte offsets are character offsets; an ASCII chunk is kept as them.
        data = chunk.encode("ascii", "replace")
        parts.append(data if chunk.isascii() else chunk)
        part_ends.append(np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")) + 1 + length)
        length += len(chunk)
        count += len(part_ends[-1])
        if count < size:
            continue
        text, ends = _joined(parts), np.concatenate(part_ends)
        blocks, start, cut = [], 0, count - count % size
        for i in range(0, cut, size):
            stop = int(ends[i + size - 1])
            blocks.append((text[start:stop], ends[i:i + size] - start))
            start = stop
        parts, part_ends = [text[start:]], [ends[cut:] - start]
        length, count = len(text) - start, count - cut
        # The chunk is freed before any block is parsed; the joined text
        # lives on only as long as its blocks do.
        del chunk, data, text
        yield from blocks
    text = _joined(parts)
    if text:
        ends = np.concatenate(part_ends)
        if not len(ends) or ends[-1] < len(text):
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
    def _from_blocks(cls, blocks: Iterable[tuple[str | memoryview, np.ndarray]]) -> "Transcript":
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
