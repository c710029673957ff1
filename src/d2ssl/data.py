"""Dataset construction: synthetic generators, IDX binary loading,
labeled/unlabeled/test splitting, and unlabeled-pool manipulations.

Hidden classes of unlabeled samples are kept for evaluation but must
never be read by training code; only metrics and diagnostics consult
``true_classes``. Out-of-distribution samples carry the sentinel class
OOD_CLASS and are excluded from accuracy denominators.
"""

from __future__ import annotations

import math
import os
import re
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import fork
from .errors import ConfigurationError, FormatError, read_checked

ROLE_LABELED = 0
ROLE_UNLABELED = 1
ROLE_TEST = 2
_ROLE_NAMES = {ROLE_LABELED: "labeled", ROLE_UNLABELED: "unlabeled", ROLE_TEST: "test"}

OOD_CLASS = -1

# Rows of CSV text made or parsed at once: the text of a whole pool
# would hold several Python strings per row at the same time.
BLOCK_ROWS = 8192

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class SplitDataset:
    features: np.ndarray      # (n, d) float64
    true_classes: np.ndarray  # (n,) int, OOD_CLASS for out-of-distribution
    roles: np.ndarray         # (n,) int role codes
    n_classes: int

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.roles == ROLE_LABELED)

    @property
    def unlabeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.roles == ROLE_UNLABELED)

    @property
    def test_indices(self) -> np.ndarray:
        return np.flatnonzero(self.roles == ROLE_TEST)

    @property
    def labeled_targets(self) -> np.ndarray:
        """Classes of labeled samples; the only targets training may read."""
        return self.true_classes[self.labeled_indices]

    def copy(self) -> "SplitDataset":
        return SplitDataset(
            self.features.copy(), self.true_classes.copy(), self.roles.copy(), self.n_classes
        )

    def label_columns(self) -> list:
        """The id, role and class columns in the CSV layout, each field
        printed with %s: the ids as an integer array, the role names and
        the classes as Coded columns; the class of an out-of-distribution
        row is empty."""
        classes, class_codes = np.unique(self.true_classes, return_inverse=True)
        return [
            np.arange(self.n_samples),
            Coded(list(_ROLE_NAMES.values()), self.roles),
            Coded(["" if c == OOD_CLASS else c for c in classes.tolist()], class_codes),
        ]

    def save_csv(self, path) -> None:
        """Header id,role,class,x0..x{d-1}; one row per sample with
        repr() floats, CRLF line ends."""
        write_csv_columns(path, _dataset_header(self.dim), ["%s"] * 3 + ["%r"] * self.dim,
                          self.n_samples, self.label_columns() + list(self.features.T))

    @classmethod
    def load_csv(cls, path, n_classes: int) -> "SplitDataset":
        """Read a CSV written by save_csv, as bytes; lines end in LF or
        CRLF. A header other than save_csv's, a row with the wrong field
        count, an unknown role, or an id, class or feature outside its
        grammar raises FormatError, as do ids other than 0..n-1. Ids and
        classes are 1 to 19 ASCII digits below 2**63 (the class of an
        out-of-distribution row is empty); a feature is -?D+.D+, repr's
        exponent form -?D(.D+)?e[+-]DD[D], nan, inf or -inf. Rows are read
        BLOCK_ROWS at a time, each block's field counts first, then its
        columns in the order id, role, class, x0.., so the fault reported
        is the first of the file's first faulty block. The LFs are found
        first; then fork.in_ranges splits the blocks over the processes
        that may run, with the arrays and the fault of one process."""
        raw = _read_padded(path)
        if raw.size == _PAD + 1:
            raise FormatError("empty dataset CSV")
        breaks = np.flatnonzero(raw == ord("\n"))  # raw positions of the LFs
        if raw[-2] != ord("\n"):
            breaks = np.append(breaks, raw.size - 1)
        header = raw[_PAD:_line_ends(raw, breaks[:1])[0]].tobytes()
        width = header.count(b",") + 1
        if width < 3:
            raise FormatError(f"dataset CSV header has {width} columns, needs at least 3")
        names = _dataset_header(width - 3)
        if header != ",".join(names).encode():
            raise FormatError(f"dataset CSV header is not save_csv's for {width - 3} features")
        n = len(breaks) - 1
        features = np.empty((n, width - 3))
        classes = np.empty(n, dtype=np.int64)
        roles = np.empty(n, dtype=np.int64)

        def blocks(starts):
            """Parse the blocks that begin at starts; yield each one's
            first row and its slices of roles, classes and features."""
            for start in starts:
                stop = min(start + BLOCK_ROWS, n)
                block = _Block(raw, breaks[start:stop + 1], width, start + 2, names)
                ids, ok = _counts(*block.span(0))
                block.check(~ok, 0)
                if not np.array_equal(ids, np.arange(start, stop)):
                    raise FormatError("dataset CSV ids not contiguous")
                roles[start:stop] = _role_codes(*block.span(1))
                block.check(roles[start:stop] < 0, 1)
                span = block.span(2)
                values, ok = _counts(*span)
                empty = span[1] == span[2]
                block.check(~ok & ~empty, 2)
                classes[start:stop] = np.where(empty, OOD_CLASS, values)
                # Features of at most BLOCK_ROWS fields at a time.
                group = max(1, BLOCK_ROWS // (stop - start))
                for j in range(3, width, group):
                    values, bad = _floats(*block.span(j, min(j + group, width)))
                    block.check(bad.reshape(stop - start, -1), j)
                    features[start:stop, j - 3:j - 3 + group] = values.reshape(stop - start, -1)
                yield start, roles[start:stop], classes[start:stop], features[start:stop]

        def place(part):
            """Copy a block that a child parsed into place; a block parsed
            here is in place already, and numpy skips a copy onto itself."""
            start, *parsed = part
            for column, values in zip((roles, classes, features), parsed):
                column[start:start + len(values)] = values

        fork.in_ranges("CSV", range(0, n, BLOCK_ROWS), blocks, place)
        return cls(features, classes, roles, n_classes)


def _dataset_header(dim: int) -> list[str]:
    return ["id", "role", "class"] + [f"x{i}" for i in range(dim)]


# NUL bytes before a file's bytes: a field's window of up to 24 bytes
# (three words) never starts before the buffer. repr's longest text,
# "-1.2345678901234567e-308", has 24 bytes.
_PAD = 24
_FEATURE = re.compile(r"-?([0-9]+\.[0-9]+|[0-9](\.[0-9]+)?e[-+][0-9]{2,3}|inf)|nan")
_FLOAT10 = np.array([float(10**k) for k in range(23)])  # each exact: 5**22 < 2**53


def _read_padded(path) -> np.ndarray:
    """A file's bytes after _PAD NUL bytes and before one, as uint8; a file
    that is not UTF-8 raises FormatError."""
    with open(path, "rb") as fh:
        buf = bytearray(_PAD + os.fstat(fh.fileno()).st_size + 1)
        size = fh.readinto(memoryview(buf)[_PAD:-1])
    if not buf.isascii():
        try:
            str(memoryview(buf)[_PAD:_PAD + size], "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"dataset CSV is not text: {exc}") from None
    return np.frombuffer(buf, np.uint8)[:_PAD + size + 1]


def _line_ends(raw: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """The ends of the lines that end at breaks (raw positions of their
    LF, or of the NUL after the file), before the CR of a CRLF."""
    return breaks - ((raw[breaks - 1] == ord("\r")) & (raw[breaks] == ord("\n")))


class _Block:
    """The rows of a dataset CSV whose lines end at breaks[1:]: their
    field counts are checked when it is made. bounds holds, per row, the
    raw position before each field (the line's start - 1, then its
    commas) and the line's end; its first row is on file line `line`."""

    def __init__(self, raw: np.ndarray, breaks: np.ndarray, width: int, line: int,
                 names: list[str]):
        first, last = breaks[:-1] + 1, _line_ends(raw, breaks[1:])
        commas = np.flatnonzero(raw[first[0]:last[-1]] == ord(","))
        commas += first[0]
        count = np.diff(np.searchsorted(commas, last), prepend=0) + 1
        wrong = np.flatnonzero(count != width)
        if wrong.size:
            raise FormatError(f"dataset CSV line {line + wrong[0]} has {count[wrong[0]]} "
                              f"fields, header has {width}")
        self.bounds = np.empty((len(last), width + 1), np.int64)
        self.bounds[:, 0] = first - 1
        self.bounds[:, 1:-1] = commas.reshape(len(last), width - 1)
        self.bounds[:, -1] = last
        self.raw, self.line, self.names = raw, line, names

    def span(self, first: int, stop: int | None = None):
        """raw, and the positions of the first and past-the-last bytes of
        the fields of columns first..stop-1, row by row."""
        stop = first + 1 if stop is None else stop
        return (self.raw, (self.bounds[:, first:stop] + 1).ravel(),
                self.bounds[:, first + 1:stop + 1].ravel())

    def check(self, bad: np.ndarray, first: int) -> None:
        """FormatError for the first field, column by column, where bad
        holds: (rows,) or (rows, columns) from column first on."""
        if bad.any():
            col, row = np.nonzero(bad.reshape(len(bad), -1).T)
            i, j = row[0], first + col[0]
            text = self.raw[self.bounds[i, j] + 1:self.bounds[i, j + 1]].tobytes().decode()
            raise FormatError(f"dataset CSV line {self.line + i}: bad {self.names[j]} {text!r}")


def _field_words(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray, n: int) -> np.ndarray:
    """The last 8*n bytes of raw before each stop as n little-endian uint64
    words, one row each, with NUL before the start."""
    words = np.lib.stride_tricks.sliding_window_view(raw, 8 * n)[stops - 8 * n].view("<u8")
    words &= _KEEP[np.clip((stops - starts)[:, None] - 8 * np.arange(n - 1, -1, -1), 0, 8)]
    return words


# _KEEP[m] keeps the last m bytes of a word; _ONES holds 1 in each byte.
_KEEP = np.array([0] + [2**64 - 2**(64 - 8 * m) for m in range(1, 9)], np.uint64)
_ONES = 0x0101010101010101
_AFTER = np.array([sum((i + 8 * (2 - j)) << 8 * i for i in range(8)) for j in range(3)], np.uint64)


def _bytes_below(words: np.ndarray, limit: int) -> np.ndarray:
    """1 in each byte of words below limit (at most 0x80), 0 in the others."""
    flags = words & 0x7F * _ONES
    flags += (0x80 - limit) * _ONES
    flags |= words
    flags >>= 7
    flags &= _ONES
    flags ^= _ONES
    return flags


def _count_bytes(flags: np.ndarray) -> np.ndarray:
    """The number of 1 bytes in each row of (rows, words) 0/1 bytes."""
    total = flags[:, 0].copy()
    for j in range(1, flags.shape[1]):
        total += flags[:, j]
    return (total * _ONES) >> 56


def _digit_words(digits: np.ndarray) -> np.ndarray:
    """The decimal value of each row of words of digit bytes 0..9 (first
    digit in the low byte), up to 2**64; digits is overwritten."""
    for shift, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        high = digits >> shift
        digits *= 10**(shift // 8)
        digits += high
        digits &= mask
    value = digits[:, 0].copy()
    for j in range(1, digits.shape[1]):
        value *= 10**8
        value += digits[:, j]
    return value


def _counts(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """Ids or classes: the value of each field and where it is 1 to 19
    ASCII digits below 2**63."""
    lengths = stops - starts
    n = int(np.clip(-(-lengths.max(initial=1) // 8), 1, 3))
    digits = _field_words(raw, starts, stops, n)
    digits ^= 0x30 * _ONES
    is_digit = _bytes_below(digits, 10)
    ok = (lengths > 0) & (lengths <= 19) & (_count_bytes(is_digit) == lengths)
    is_digit *= 0xFF
    digits &= is_digit
    value = _digit_words(digits)
    ok &= value < 2**63
    return value.astype(np.int64), ok


def _role_codes(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The code of each role field, -1 for an unknown name."""
    words = _field_words(raw, starts, stops, 2)
    codes = np.full(len(stops), -1)
    for code, name in _ROLE_NAMES.items():
        want = np.frombuffer(name.encode().rjust(16, b"\0"), "<u8")
        codes[(words[:, 0] == want[0]) & (words[:, 1] == want[1])
              & (stops - starts == len(name))] = code
    return codes


def _floats(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """Features: the float64 of each field and where it is outside the
    grammar. A kernel reads -?D+.D+ of at most 24 bytes (three words) whose
    digits, the dot read as 0, are below 10**18. With D the digits without
    the dot and f those after it, the candidate c = D/10**f is exact when
    D <= 2**53 (D and 10**f exact, one rounding). Otherwise, with
    |c|*10**f = I + R/2**t from _decimal_scale, c is the nearest double iff
    2*|D*2**t - (I*2**t + R)| < 5**f (odd, so there are no ties); if not,
    c is stepped one ulp towards D/10**f and checked again. A power of two
    (the gap below is half the gap above), a value the scaling cannot
    bring into range and every other text go through float() when they
    match the grammar."""
    lengths = stops - starts
    digits = _field_words(raw, starts, stops, 3)
    digits ^= 0x30 * _ONES
    is_digit = _bytes_below(digits, 10)
    dots = _bytes_below(digits ^ (0x30 ^ ord(".")) * _ONES, 1)
    minus = raw[starts] == ord("-")
    first, last = raw[starts + minus] - ord("0"), raw[stops - 1] - ord("0")
    fixed = ((_count_bytes(dots) == 1) & (_count_bytes(is_digit) + minus + 1 == lengths)
             & (first < 10) & (last < 10) & (lengths <= 24))
    # The dot's flag 1 << 8b in word j, times _AFTER[j], has f = 23 - 8j - b
    # in its top byte.
    dots *= _AFTER
    places = np.minimum((dots[:, 0] >> 56) + (dots[:, 1] >> 56) + (dots[:, 2] >> 56), 22)
    places = places.astype(np.int64)
    is_digit *= 0xFF
    digits &= is_digit
    del dots, is_digit
    dotted = _digit_words(digits)
    del digits
    fixed &= dotted < 10**18
    # D is dotted less 9 * 10**f times the digits before the dot; with 18
    # places or more there are none.
    p = np.minimum(places, 17)
    significand = (dotted - dotted // _POW10[p + 1] * 9 * _POW10[p]).astype(np.int64)
    value = significand / _FLOAT10[places]
    exact = fixed & (significand <= 2**53)
    check = np.flatnonzero(fixed & ~exact)
    for _ in range(2):
        c = value[check]
        scaled, rest, unit, five, ok = _decimal_scale(c, places[check])
        gap = significand[check] - scaled
        ok &= (c.view("<u8") & (2**52 - 1) != 0) & (np.abs(gap) < 2**62 // unit)
        off = gap * unit - rest  # (D - c*10**f) * 2**t
        near = ok & (2 * np.abs(off) < five)
        exact[check[near]] = True
        step = ok & ~near
        check = check[step]
        value[check] = np.nextafter(c[step], np.where(off[step] > 0, np.inf, 0.0))
    value[minus] *= -1
    bad = np.zeros(len(stops), bool)
    for i in np.flatnonzero(~exact).tolist():
        text = raw[starts[i]:stops[i]].tobytes().decode()
        if _FEATURE.fullmatch(text):
            value[i] = float(text)
        else:
            bad[i] = True
    return value, bad


def write_csv_columns(path, header: list[str], formats: list[str], n_rows: int, columns: list,
                      line_end: str = "\r\n", header_end: str | None = None) -> None:
    """Write n_rows rows as a CSV file, BLOCK_ROWS rows at a time: columns
    holds n_rows values each (a Coded column n_rows codes), sliced per
    block, and formats the %-format of each column's fields. The bytes are
    those csv.writer writes for the fields fmt % value prints, with CRLF
    line ends unless line_end says otherwise; header_end ends the header
    line instead when given (metrics.csv has an LF header over CRLF rows).

    The blocks are made in contiguous ranges, one for each process that
    fork.in_ranges lets run, and written in order, so the bytes are
    those of one process. A block is one uint8 matrix, written as its
    valid bytes. Numpy kernels
    print float64 arrays under %r, %s or %.9g and integer arrays under %s
    or %d, with NUL in their holes, and fmt % value the values they cannot
    print exactly. Any other column is printed by fmt % value and quoted
    once per distinct text (a Coded column once per value)."""
    end = np.frombuffer(line_end.encode(), np.uint8)[None]

    def blocks(starts):
        for start in starts:
            rows = slice(start, min(start + BLOCK_ROWS, n_rows))
            block = [Coded(c.values, c.codes[rows]) if isinstance(c, Coded) else c[rows]
                     for c in columns]
            yield _block(formats, block, rows.stop - start, end)

    with open(path, "wb") as fh:
        fh.write((",".join(map(_quoted, header)) + (header_end or line_end)).encode())
        fork.in_ranges("CSV", range(0, n_rows, BLOCK_ROWS), blocks, fh.write)


def _block(formats: list[str], columns, rows: int, end: np.ndarray) -> np.ndarray:
    """One block's matrix of fields, separators and line ends, compacted."""
    parts, masks, width, separator = [], [], 0, np.full((1, 1), ord(","), np.uint8)
    for fmt, column in zip(formats, columns):
        matrix, mask = _field(fmt, column)
        if mask is not None:
            masks.append((width, mask))
        parts += [matrix, separator]
        width += matrix.shape[1] + 1
    parts[-1] = end
    block = np.concatenate([np.broadcast_to(p, (rows, p.shape[1])) for p in parts], axis=1)
    valid = block != 0
    for at, mask in masks:
        valid[:, at:at + mask.shape[1]] = mask
    return block[valid]


Coded = namedtuple("Coded", "values codes")  # row i holds values[codes[i]]


def _field(fmt: str, column) -> tuple[np.ndarray, np.ndarray | None]:
    """The (rows, width) byte matrix of one column's fields, and the mask
    of its valid bytes, or None when they are its non-NUL bytes."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64 and fmt in ("%r", "%s", "%.9g"):
            return _float_field(fmt, column), None
        if column.dtype.kind in "iu" and fmt in ("%s", "%d"):
            return _int_field(fmt, column), None
        column = column.tolist()
    if isinstance(column, Coded):
        texts, codes = [fmt % value for value in column.values], column.codes
    else:
        index = {}
        codes = [index.setdefault(fmt % value, len(index)) for value in column]
        texts = list(index)
    table, lengths = _text_matrix(map(_quoted, texts))
    return table[codes], (np.arange(table.shape[1]) < lengths[:, None])[codes]


def _quoted(text: str) -> str:
    """A field as csv.writer prints it: in double quotes, with its double
    quotes doubled, if it holds a comma, a double quote or a line break."""
    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\r\n') else text


def _text_matrix(texts) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of each text in a NUL-padded row, and their lengths."""
    raw = [text.encode() for text in texts]
    lengths = np.array([len(r) for r in raw], np.int64)
    table = np.zeros((len(raw), int(lengths.max(initial=0))), np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(raw), np.uint8)
    return table, lengths


def _fallback(fmt: str, values: np.ndarray, ok: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """A kernel's matrix with its rows not ok replaced by fmt % value."""
    rows = np.flatnonzero(~ok)
    table = _text_matrix([fmt % value for value in values[rows].tolist()])[0]
    if table.shape[1] > matrix.shape[1]:
        matrix = np.pad(matrix, ((0, 0), (0, table.shape[1] - matrix.shape[1])))
    matrix[rows] = 0
    matrix[rows, :table.shape[1]] = table
    return matrix


# The kernels' tables: the ASCII digits of 0000..9999 as <u4, then the
# same with NUL for the zeros before the first nonzero digit (_LEADING4)
# or after the last (_TRAILING4); the powers of 5 and 10 in a uint64.
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, 10000) + ord("0")  # row k: digit k
_LEADING4, _TRAILING4 = (
    np.ascontiguousarray((_DIGITS * ~np.stack([np.zeros_like(blank), blank])).transpose(0, 2, 1))
    .view("<u4").ravel()
    for blank in (np.logical_and.accumulate(_DIGITS == ord("0")),
                  np.logical_and.accumulate(_DIGITS[::-1] == ord("0"))[::-1]))
_POW5 = np.uint64(5) ** np.arange(28, dtype=np.uint64)
_POW10 = np.uint64(10) ** np.arange(20, dtype=np.uint64)


def _digit_text(values: np.ndarray, width: int, leading: bool):
    """The width ASCII digits of values below 10**width, one row each, NUL
    for the zeros before the first nonzero digit (leading; 0 keeps its
    last) or after the last; and which byte columns any row fills."""
    groups = -(-width // 4)
    parts = [(values // 10**(4 * k) % 10000).astype(np.int64) for k in range(groups)][::-1]
    text = np.empty((len(values), groups), "<u4")
    filled = np.empty(groups, "<u4")
    blank = np.full(len(values), 10000)
    for k in range(groups) if leading else reversed(range(groups)):
        text[:, k] = (_LEADING4 if leading else _TRAILING4)[parts[k] + blank]
        blank *= parts[k] == 0
        filled[k] = np.bitwise_or.reduce(text[:, k])
    text = text.view(np.uint8)[:, 4 * groups - width:]
    if leading:
        text[:, -1] = np.maximum(text[:, -1], ord("0"))
    return text, (filled.view(np.uint8) != 0)[4 * groups - width:]


def _int_field(fmt: str, column: np.ndarray) -> np.ndarray:
    """Integers as %d prints them, from the 4-digit table, right-aligned
    after the sign; values of 10**16 or more in size go through %."""
    ok = (column < 10**16) & (column > -10**16)
    signed = np.where(ok, column, 0).astype(np.int64)
    width = len(str(np.abs(signed).max()))
    matrix = np.empty((len(column), width + 1), np.uint8)
    matrix[:, 0] = (signed < 0) * ord("-")
    matrix[:, 1:] = _digit_text(np.abs(signed), width, True)[0]
    return _fallback(fmt, column, ok, matrix)


def _decimal_scale(x: np.ndarray, s: np.ndarray):
    """|x|*10**s = I + R/2**t exactly, for x = M*2**E (M with its hidden
    bit) and 0 <= s <= 27: P = M*5**s is a 128-bit product of 32-bit
    limbs, t = -(E+s), I = P >> t and R = P mod 2**t. Returns I, R, 2**t
    and 5**s as int64, and where they hold: x is normal, 1 <= t <= 55 and
    I < 2**63."""
    bits = x.view("<u8")
    biased = (bits >> 52).astype(np.int64) & 0x7FF
    t = 1075 - biased - s
    ok = (biased > 0) & (biased < 0x7FF) & (t >= 1) & (t <= 55)
    shift = np.minimum(np.maximum(t, 1), 55).astype(np.uint64)
    mantissa, five = bits & (2**52 - 1) | 2**52, _POW5[s]
    m0, m1, f0, f1 = mantissa & (2**32 - 1), mantissa >> 32, five & (2**32 - 1), five >> 32
    low, mid = m0 * f0, m0 * f1 + m1 * f0
    carry = (low >> 32) + (mid & (2**32 - 1))
    lo = low & (2**32 - 1) | carry << 32
    hi = m1 * f1 + (mid >> 32) + (carry >> 32)
    del biased, t, mantissa, m0, m1, f0, f1, low, mid, carry  # block memory
    scaled = hi << (64 - shift) | lo >> shift
    ok &= (hi >> shift == 0) & (scaled < 2**63)
    rest, unit = lo & ((1 << shift) - 1), 1 << shift
    return *(v.astype(np.int64) for v in (scaled, rest, unit, five)), ok


def _float_field(fmt: str, x: np.ndarray) -> np.ndarray:
    """Float64 values as fmt % value prints them: %r (or %s) the shortest
    round-trip digits, %.9g nine significant digits, both in fixed
    notation. Zero, subnormals, inf, nan, %r's powers of two (the gap below
    is half the gap above), exact ties at the printed length, values the
    scaling cannot bring into range and 20-digit fractions go through %."""
    shortest = fmt != "%.9g"
    digits, top = (17, 15) if shortest else (9, 8)
    # With e10 = floor(log10|x|) estimated and s = digits-1-e10, a row is
    # kept when e10 lies in -4..top and 10**(digits-1) <= I < 10**digits.
    e10 = np.floor(np.log10(np.abs(np.where(np.isfinite(x) & (x != 0), x, 1.0)))).astype(np.int64)
    s = digits - 1 - np.minimum(np.maximum(e10, -4), top)
    scaled, rest, unit, five, ok = _decimal_scale(x, s)
    ok &= (e10 >= -4) & (e10 <= top) & (scaled >= 10**(digits - 1)) & (scaled < 10**digits)
    value, tie = scaled + (2 * rest > unit), 2 * rest == unit
    if shortest:
        # I rounded to 16, then 15 digits, kept if it rounds back to x:
        # if 2*|C*2**t - (I*2**t + R)| < 5**s (odd) for its 17-digit C.
        # DBL_DIG is 15, so a shorter repr is the 15-digit one.
        for step in (10, 100):
            low = scaled - scaled // step * step
            below = low * unit + rest
            above = step * unit - below
            back = 2 * np.minimum(below, above) < five
            value = np.where(back, scaled - low + step * (below > above), value)
            tie = np.where(back, below == above, tie)
        ok &= x.view("<u8") & (2**52 - 1) != 0
        del low, below, above, back
    ok &= ~tie
    # A carry to 10**digits is 10**(digits-1) of the next decade.
    carried = value == 10**digits
    e10 = e10 + carried
    ok &= e10 <= top
    value = np.where(ok, np.where(carried, 10**(digits - 1), value) * 10**(17 - digits), 0)
    e10 = np.where(ok, e10, 0)
    # value * 10**(e10-16) as its integer part and its fraction to as
    # many places as the block needs, at most 19 (a 20th must be zero).
    integer, fraction = np.divmod(value, _POW10[np.minimum(16 - e10, 17)].astype(np.int64))
    places = max(min(digits - 1 - int(e10.min()), 19), 1)
    shift = places - 16 + e10
    fraction = fraction.astype(np.uint64) * _POW10[np.maximum(shift, 0)]
    lower = _POW10[np.maximum(-shift, 0)]
    shown = fraction // lower
    ok &= shown * lower == fraction
    fraction_text, filled = _digit_text(shown, places, False)
    if shortest:
        fraction_text[:, 0] = np.maximum(fraction_text[:, 0], ord("0"))
        filled[0] = True
    wi, wf = len(str(integer.max())), int(np.flatnonzero(filled).max(initial=-1)) + 1
    matrix = np.empty((len(x), wi + wf + 2), np.uint8)
    matrix[:, 0] = np.signbit(x) * ord("-")
    matrix[:, 1:wi + 1] = _digit_text(integer, wi, True)[0]
    matrix[:, wi + 1] = ord(".") if shortest else (shown != 0) * ord(".")
    matrix[:, wi + 2:] = fraction_text[:, :wf]
    return _fallback(fmt, x, ok, matrix)


def gen_gaussians(
    n_classes: int,
    dim: int,
    per_class: int,
    centers: np.ndarray,
    spread: float,
    rng: np.random.Generator,
) -> SplitDataset:
    """Isotropic Gaussian blobs around the (n_classes, dim) centers, one
    per class, all initially unsplit (role unlabeled until split()
    assigns roles)."""
    feats = np.zeros((n_classes * per_class, dim))
    classes = np.zeros(n_classes * per_class, dtype=np.int64)
    for c in range(n_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        feats[block] = centers[c] + spread * rng.standard_normal((per_class, dim))
        classes[block] = c
    roles = np.full(n_classes * per_class, ROLE_UNLABELED, dtype=np.int64)
    return SplitDataset(feats, classes, roles, n_classes)


def gen_two_moons(
    n_per_moon: int, noise: float, rng: np.random.Generator
) -> SplitDataset:
    """Two interleaved half-circles, the standard 2-class toy set."""
    t = np.linspace(0.0, np.pi, n_per_moon)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    feats = np.vstack([upper, lower])
    feats += noise * rng.standard_normal(feats.shape)
    classes = np.repeat([0, 1], n_per_moon).astype(np.int64)
    roles = np.full(2 * n_per_moon, ROLE_UNLABELED, dtype=np.int64)
    return SplitDataset(feats, classes, roles, 2)


def _read_idx(path, expected_magic: int) -> tuple[list[int], bytes]:
    """The dimensions and the data of one IDX file. The data must be
    exactly the bytes the dimensions imply, checked against the file
    size before any of it is read."""
    with open(path, "rb") as fh:
        try:
            (magic,) = struct.unpack(">I", read_checked(fh, 4, "IDX header"))
            if magic != expected_magic:
                raise FormatError(f"bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
            n_dims = magic & 0xFF
            raw = read_checked(fh, 4 * n_dims, "IDX dimension list")
            dims = list(struct.unpack(f">{n_dims}I", raw))
            return dims, read_checked(fh, math.prod(dims), "IDX data", last=True)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None


def load_idx(images_path, labels_path) -> SplitDataset:
    """Parse the big-endian IDX pair used by the MNIST distribution.

    Pixels are scaled to [0, 1]; all samples start unsplit (unlabeled).
    """
    dims, pixels = _read_idx(images_path, IDX_IMAGES_MAGIC)
    count = dims[0]
    feats = np.frombuffer(pixels, dtype=np.uint8).reshape(count, math.prod(dims[1:]))
    feats = feats.astype(np.float64) / 255.0
    (lcount,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if count != lcount:
        raise FormatError(f"image count {count} != label count {lcount}")
    labels = np.frombuffer(labels, dtype=np.uint8).astype(np.int64)
    roles = np.full(count, ROLE_UNLABELED, dtype=np.int64)
    n_classes = int(labels.max()) + 1 if count else 0
    return SplitDataset(feats, labels, roles, n_classes)


def split(
    dataset: SplitDataset,
    labeled_per_class: int,
    test_fraction: float,
    rng: np.random.Generator,
) -> SplitDataset:
    """Assign roles: a uniform test fraction first, then exactly
    labeled_per_class labeled samples per class from the remainder;
    everything else becomes unlabeled."""
    out = dataset.copy()
    n = out.n_samples
    perm = rng.permutation(n)
    n_test = int(round(test_fraction * n))
    test_ids = perm[:n_test]
    pool = perm[n_test:]
    out.roles[:] = ROLE_UNLABELED
    out.roles[test_ids] = ROLE_TEST
    labeled_ids = []
    for c in range(out.n_classes):
        members = pool[out.true_classes[pool] == c]
        if members.size < labeled_per_class:
            raise ConfigurationError(
                f"class {c} has {members.size} train samples, "
                f"need {labeled_per_class} labeled"
            )
        pick = rng.choice(members, size=labeled_per_class, replace=False)
        labeled_ids.append(pick)
    out.roles[np.concatenate(labeled_ids)] = ROLE_LABELED
    return out


def inject_ood(
    dataset: SplitDataset, ood_source: SplitDataset, count: int, rng: np.random.Generator
) -> SplitDataset:
    """Append count of ood_source's samples, which have the dataset's
    width, to the unlabeled pool with the sentinel hidden class."""
    pick = rng.choice(ood_source.n_samples, size=count, replace=False)
    feats = np.vstack([dataset.features, ood_source.features[pick]])
    classes = np.concatenate(
        [dataset.true_classes, np.full(count, OOD_CLASS, dtype=np.int64)]
    )
    roles = np.concatenate(
        [dataset.roles, np.full(count, ROLE_UNLABELED, dtype=np.int64)]
    )
    return SplitDataset(feats, classes, roles, dataset.n_classes)
