"""Reader of the wire format: messages, their columnar blocks, and the
transcript that parses and writes them.

A run's transcript exists only as its wire bytes: ``protocol.run_wire``
renders them block by block with ``render.render_pairs``, and no run
imports this module. A ``Transcript`` is always parsed text.
``from_lines`` parses wire lines straight into blocks of at most
``wire._BLOCK_LINES`` rows of two columns: each message's route code, its
index into ``ROUTES`` of (phase, sender, recipient), and the payloads,
kept as their bytes, one block of bytes at a time. Blocks render with the
f-strings of ``_render``.
"""

from __future__ import annotations

import codecs
import io
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import wire
from .wire import (
    PARTIES, PAYLOAD_KIND_FOR_PHASE, PHASES, ROUTES, _LINE_MIDDLES, _ROUTE_CODE, Party, Phase,
    _decimal_lengths, _digit_words,
)


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


#: Middle bytes of each route, with the ``|`` that ends them; the
#: middles' lengths and the widest row.
_MIDDLE_ROWS = [np.frombuffer(f"{middle}|".encode("ascii"), np.uint8) for middle in _LINE_MIDDLES]
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

#: The bytes of a uint32 word that lie at or after byte ``i``, as row ``i``.
_WORD_MASKS = ((np.arange(4) >= np.arange(4)[:, None]) * np.uint8(255)).view(np.uint32).ravel()

#: Bytes ``from_lines`` reads from a UTF-8 text file at a time, into its
#: one buffer: a little more than one block of a written transcript.
_READ_BYTES = 2**18

#: Longest padded block text whose byte offsets fit the int32 payload gather.
_MAX_BLOCK_TEXT = np.iinfo(np.int32).max


class _Payloads:
    """Payloads of a parsed block, kept as their ASCII bytes back to back
    and a (start, stop) row of offsets into them per message, and cut out
    as ``str`` only when iterated."""

    __slots__ = ("text", "bounds")

    def __init__(self, text: bytes, bounds: np.ndarray):
        self.text = text
        self.bounds = bounds  # int32, one (start, stop) row per message

    def __iter__(self) -> Iterator[str]:
        text = self.text.decode("ascii")
        return (text[start:stop] for start, stop in self.bounds.tolist())


class _Block(NamedTuple):
    """A run of messages held as columns; a route's phase fixes the payload kind."""

    seq: Sequence[int]  # a range when the seqs are consecutive
    route: np.ndarray  # int8 indices into ROUTES
    payload: list[str] | _Payloads


def _seq_column(seqs: list[int]) -> Sequence[int]:
    """The seqs, as a range when they are consecutive."""
    if seqs and seqs[-1] - seqs[0] == len(seqs) - 1 and all(map(int.__lt__, seqs, seqs[1:])):
        return range(seqs[0], seqs[-1] + 1)
    return seqs


def _block_of(messages: list[Message]) -> _Block:
    return _Block(
        _seq_column([msg.seq for msg in messages]),
        np.array([_ROUTE_CODE[msg.phase, msg.sender, msg.recipient] for msg in messages],
                 dtype=np.int8),
        [msg.payload for msg in messages],
    )


def _parse_block(text: bytes | memoryview, ends: np.ndarray, prev: int) -> _Block | None:
    """Columns of the wire lines that follow seq ``prev``.

    ``text`` is the lines joined, as bytes with no ``"\\r"`` whose only
    newlines end lines, as both framers give them, and ``ends`` the offset
    in it where each line ends. Works on the bytes of the whole block and
    drops empty lines (``""`` and ``"\\n"``). Returns None when the block
    is too long for int32 offsets, the seqs are not one consecutive run
    above ``prev`` of 1 to 15 digits with no leading zero, a line's middle
    (the text between seq and payload) is not a valid one, or a payload
    holds a ``|`` or a byte that is not ASCII. The valid middles have a
    known phase and parties, the phase's payload kind and no self-message,
    so a block that passes gives what ``Message.from_line`` gives line by
    line. One byte of each field picks a line's candidate middle; each
    candidate present is then compared, as one byte row, with all of the
    block's lines that picked it. The block keeps none of ``text``.
    """
    # Zero padding keeps every fixed-width read below inside the buffer; in
    # front, the three bytes that a first seq's leading word reaches back.
    # Offsets from here on are into ``data``, three past those into ``text``.
    data = b"".join((bytes(3), text, bytes(_SEQ_DIGITS + _MIDDLE_WIDTH)))
    if len(data) > _MAX_BLOCK_TEXT:
        return None
    buf = np.frombuffer(data, np.uint8)
    ends = ends + 3
    starts = np.concatenate(([3], ends[:-1]))
    stops = ends - ((ends > starts) & (buf[ends - 1] == ord("\n")))
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

    # Middle: the candidate route keyed by one byte of each field, then one
    # exact comparison per route present (at most seven in a run's file),
    # which also proves the pipes inside the middle and the one after it.
    phase = _PHASE_OF_BYTE.take(buf[first_pipe + 1 + _PHASE_KEY_AT])
    sender_key = first_pipe + _SENDER_KEY_AT.take(phase)
    sender = _PARTY_OF_BYTE.take(buf[sender_key])
    recipient = _PARTY_OF_BYTE.take(buf[sender_key + _RECIPIENT_KEY_AFTER.take(sender)])
    if (sender == recipient).any():
        return None
    route = (phase * len(PARTIES) + sender) * len(PARTIES) + recipient
    last_pipe = first_pipe + 1 + _MIDDLE_LENGTHS.take(route)
    if (last_pipe >= stops).any():
        return None
    # Row i of this view is the buffer from byte i on.
    windows = np.ndarray((len(buf) - _MIDDLE_WIDTH + 1, _MIDDLE_WIDTH), np.uint8, buf,
                         strides=(1, 1))
    present = np.flatnonzero(np.bincount(route)).tolist()
    for r in present:
        at = first_pipe + 1 if len(present) == 1 else first_pipe[route == r] + 1
        row = _MIDDLE_ROWS[r]
        if (windows[at, :len(row)] != row).any():
            return None
    # Each line holds the five pipes found above, so a sixth is in a payload.
    if np.count_nonzero(buf == ord("|")) != 5 * n:
        return None

    # The payloads back to back, by one gather of the bytes after each last
    # pipe; its int32 index is half the size of an int64 one.
    lengths = stops - last_pipe - 1
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
    bounds = np.column_stack((offsets[:-1], offsets[1:]))
    shift = np.repeat((last_pipe + 1 - offsets[:-1]).astype(np.int32), lengths)
    payloads = buf[np.arange(offsets[-1], dtype=np.int32) + shift].tobytes()
    if not payloads.isascii():
        return None
    return _Block(range(first, first + n), route, _Payloads(payloads, bounds))


def _parse_messages(text: str | bytes | memoryview, ends: np.ndarray, prev: int) -> list[Message]:
    """Parse the nonblank lines one by one, a line of bytes decoded as
    UTF-8; raises the error of the first bad line."""
    lines = (text[start:stop] for start, stop in itertools.pairwise([0, *ends.tolist()]))
    if not isinstance(text, str):
        lines = (str(line, "utf-8") for line in lines)
    messages = []
    for line in filter(str.strip, lines):
        msg = Message.from_line(line)
        if msg.seq <= prev:
            raise ValueError(f"seq {msg.seq} not strictly increasing")
        prev = msg.seq
        messages.append(msg)
    return messages


def _list_blocks(lines: Iterable[str]) -> Iterator[tuple[str | bytes, np.ndarray]]:
    """(text, line ends) of each ``wire._BLOCK_LINES`` lines of ``lines``, the
    text encoded once when the byte parser takes it: ASCII, with no
    ``"\\r"`` and no newline but at the end of a line."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, wire._BLOCK_LINES)):
        text = "".join(chunk)
        ends = np.cumsum(np.fromiter(map(len, chunk), np.int64, len(chunk)))
        if text.isascii() and "\r" not in text and text.count("\n") == sum(
                map(str.endswith, chunk, itertools.repeat("\n"))):
            text = text.encode("ascii")
        yield text, ends


def _file_blocks(raw: io.BufferedIOBase) -> Iterator[tuple[memoryview, np.ndarray]]:
    """(text, line ends) of each ``wire._BLOCK_LINES`` lines of the binary file
    ``raw``, cut at each ``b"\\n"``.

    Reads ``_READ_BYTES`` at a time into one buffer, which holds them and
    the text not yet cut into blocks, and gives each read one newline
    scan. The buffer is reused, so a block is a view of it that is valid
    only until the next block is asked for. Raises ValueError at the first
    read that holds a ``b"\\r"``, which may end a line too.
    """
    size = wire._BLOCK_LINES
    buf = bytearray()
    held, part_ends, count = 0, [], 0  # text at the front of ``buf``, its line ends, their number
    while True:
        if len(buf) < held + _READ_BYTES:  # a new buffer, as a block may still view the old one
            buf = buf[:held] + bytes(held + 2 * _READ_BYTES)
        got = raw.readinto(memoryview(buf)[held:held + _READ_BYTES])
        if not got:
            break
        if buf.find(b"\r", held, held + got) >= 0:
            raise ValueError("'\\r' in text: read it as lines")
        read = np.frombuffer(buf, np.uint8, got, held)
        part_ends.append(np.flatnonzero(read == ord("\n")) + (held + 1))
        held += got
        count += len(part_ends[-1])
        if count < size:
            continue
        ends = np.concatenate(part_ends)
        start, cut = 0, count - count % size
        for i in range(0, cut, size):
            stop = int(ends[i + size - 1])
            yield memoryview(buf)[start:stop], ends[i:i + size] - start
            start = stop
        buf[:held - start] = buf[start:held]
        held, part_ends, count = held - start, [ends[cut:] - start], count - cut
    if held:
        ends = np.concatenate(part_ends)
        if not len(ends) or ends[-1] < held:
            ends = np.append(ends, held)
        yield memoryview(buf)[:held], ends


def _render(block: _Block) -> list[str]:
    middles = _LINE_MIDDLES[block.route].tolist()
    return [
        f"{seq}|{middle}|{payload}"
        for seq, middle, payload in zip(block.seq, middles, block.payload)
    ]


class Transcript:
    """Strictly sequenced log of classical messages, parsed from wire lines.

    Messages are stored as blocks of at most ``wire._BLOCK_LINES`` rows of
    two columns: the route codes and the payloads, kept as offsets into
    their bytes (as a list of ``str`` for a block parsed line by line).
    ``messages``, ``to_lines`` and ``write`` build their output from the
    columns on each call, one block at a time.
    """

    def __init__(self):
        self._blocks: list[_Block] = []

    @property
    def messages(self) -> tuple[Message, ...]:
        return tuple(
            Message(seq, phase, sender, recipient, PAYLOAD_KIND_FOR_PHASE[phase], payload)
            for block in self._blocks
            for seq, (phase, sender, recipient), payload in zip(
                block.seq, map(ROUTES.__getitem__, block.route.tolist()), block.payload)
        )

    def to_lines(self) -> list[str]:
        return [line for block in self._blocks for line in _render(block)]

    def _wire(self) -> Iterator[bytes]:
        """The wire bytes, one block at a time; one newline when empty."""
        if not self._blocks:
            yield b"\n"
        for block in self._blocks:
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
        ``wire._BLOCK_LINES`` lines form one block, parsed in one pass over its
        bytes; a block that is not ASCII, holds a ``"\\r"`` or fails a byte
        check is parsed line by line by ``Message.from_line``, so a bad line
        raises the ValueError that parsing message by message would raise.

        A UTF-8 ``io.TextIOWrapper`` whose position can be told is read as
        bytes from its ``buffer``, ``_READ_BYTES`` at a time into one reused
        buffer, and its lines are cut at each ``b"\\n"``: the lines that
        iterating it gives while it holds no ``"\\r"`` and was not opened
        with ``newline="\\r"`` or ``"\\r\\n"``. So when a read holds a
        ``"\\r"``, the first line a ``"\\n"`` before its end, or a block a bad
        line or bytes that do not decode, the file is seeked back to where
        this call found it and iterated line by line, which gives what
        iteration gives. Any other file (a pipe, a file advanced by ``next()``,
        a ``StringIO``, a file of another codec) is iterated from where it is.
        """
        if isinstance(lines, str):
            raise TypeError("from_lines takes lines or a text file, not one str")
        if isinstance(lines, io.TextIOWrapper) and codecs.lookup(lines.encoding).name == "utf-8":
            try:
                start = lines.tell()
                lines.seek(start)  # drops the text the wrapper has read ahead
            except OSError:  # a pipe, or a file advanced by next()
                start = None
            if start is not None and lines.buffer.tell() == start:  # no decoder state in start
                try:
                    cuts_at_lf = "\n" not in lines.readline()[:-1]  # False for newline "\r", "\r\n"
                    lines.seek(start)
                    if cuts_at_lf:
                        return cls._from_blocks(_file_blocks(lines.buffer))
                except ValueError:
                    lines.seek(start)
        return cls._from_blocks(_list_blocks(lines))

    @classmethod
    def _from_blocks(cls, blocks: Iterable[tuple[str | bytes, np.ndarray]]) -> "Transcript":
        transcript = cls()
        prev = 0
        for text, ends in blocks:
            block = None if isinstance(text, str) else _parse_block(text, ends, prev)
            if block is None:
                block = _block_of(_parse_messages(text, ends, prev))
            if block.seq:
                transcript._blocks.append(block)
                prev = block.seq[-1]
        return transcript
