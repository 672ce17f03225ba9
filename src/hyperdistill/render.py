"""Wire bytes of a run's transcript, from byte tables: a run that writes no
transcript never imports this module."""

import functools

import numpy as np

from .wire import _LINE_MIDDLES, _decimal_lengths, _digit_words

#: The four zero-padded ASCII digits of each of 0 to 9999, as one uint32.
_DIGIT_WORDS = _digit_words()


@functools.lru_cache(maxsize=None)
def _suffix_rows(cycle: tuple[int, ...], payloads: tuple[tuple[str, ...], ...] | None):
    """The bytes after the seq of message j of a pair of code ``code``, as row ``code * width
    + j``, and their lengths; with no payloads, ``|middle|``, before the pair number."""
    middles = _LINE_MIDDLES[list(cycle)].tolist()
    texts = [f"|{middle}|" for middle in middles] if payloads is None else [
        f"|{middle}|{payload}\n" for row in payloads for middle, payload in zip(middles, row)]
    rows = [np.frombuffer(text.encode("utf-8"), np.uint8) for text in texts]
    return rows, np.array([len(row) for row in rows])


def _put_decimal(buf: np.ndarray, stops: np.ndarray, values: np.ndarray) -> None:
    """Write the non-decreasing ``values`` in decimal into ``buf``, each ending before its
    offset in ``stops``, four digits a write; a write may put three zeros before a number."""
    words = np.ndarray((len(buf) - 3,), np.uint32, buf, strides=(1,))
    while len(values):
        tens = values // 10**4  # floor division by a constant is fast, ``%`` is not
        words[stops - 4] = _DIGIT_WORDS[values - tens * 10**4]
        more = np.searchsorted(tens, 1)  # the first value with digits left
        values, stops = tens[more:], stops[more:] - 4


def render_pairs(first_seq: int, cycle: tuple[int, ...], table: np.ndarray | None,
                 codes: np.ndarray | range) -> np.ndarray:
    """Wire bytes of whole pairs from seq ``first_seq`` on, as a uint8 array: a pair sends
    a message on each route of ``cycle`` with payloads ``table[code]``, or with no table its
    number, its code. Each line is its seq, the row of its key, and for a distribution marker
    the pair number and a newline. Numbers go in first, for rows and newlines to cover their
    leading zeros; no write puts two bytes in one place."""
    width = len(cycle)
    n = width * len(codes)
    payload_rows = None if table is None else tuple(map(tuple, table.tolist()))
    rows, row_lengths = _suffix_rows(tuple(cycle), payload_rows)
    key = np.tile(np.arange(width, dtype=np.int8), len(codes))
    if table is not None:
        key += np.repeat(codes * width, width)
    seqs = np.arange(first_seq, first_seq + n)
    seq_lengths = _decimal_lengths(seqs)
    lengths = seq_lengths + row_lengths[key]
    if table is None:
        numbers = codes[0] + np.arange(n) // width
        lengths += _decimal_lengths(numbers) + 1
    ends = np.cumsum(lengths) + 3  # room for the leading zeros of the first seq
    widest = row_lengths.max()  # row i of ``windows`` is buf[i:i + widest]
    buf = np.empty(ends[-1] + widest, np.uint8)
    seq_ends = ends - lengths + seq_lengths
    _put_decimal(buf, seq_ends, seqs)
    if table is None:
        _put_decimal(buf, ends - 1, numbers)
    windows = np.ndarray((len(buf) - widest + 1, widest), np.uint8, buf, strides=(1, 1))
    order = np.argsort(key, kind="stable")  # a radix sort, for int8 keys
    group_ends = np.cumsum(np.bincount(key, minlength=len(rows))).tolist()
    for row, start, stop in zip(rows, [0, *group_ends], group_ends):
        windows[seq_ends[order[start:stop]], :len(row)] = row
    if table is None:
        buf[ends - 1] = ord("\n")
    return buf[3:ends[-1]]
