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
import struct
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigurationError, FormatError

ROLE_LABELED = 0
ROLE_UNLABELED = 1
ROLE_TEST = 2
_ROLE_NAMES = {ROLE_LABELED: "labeled", ROLE_UNLABELED: "unlabeled", ROLE_TEST: "test"}
_ROLE_CODES = {v: k for k, v in _ROLE_NAMES.items()}

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
        header = ["id", "role", "class"] + [f"x{i}" for i in range(self.dim)]
        write_csv_columns(path, header, ["%s"] * 3 + ["%r"] * self.dim, self.n_samples,
                          self.label_columns() + list(self.features.T))

    @classmethod
    def load_csv(cls, path, n_classes: int) -> "SplitDataset":
        """Read a CSV written by save_csv. A row with the wrong field
        count, an unknown role, or an id, class or feature that does not
        parse raises FormatError, as do ids other than 0..n-1. Ids and
        classes are plain ASCII digits, and a feature holds no whitespace,
        underscore or non-ASCII character, though float() takes them. Field
        counts are checked over the whole file first; then rows are
        parsed BLOCK_ROWS at a time, each block's columns in the order
        id, role, class, x0.., so the fault reported is the first of a
        file's first faulty block."""
        try:
            with open(path, newline="") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"dataset CSV is not text: {exc}") from None
        if not lines:
            raise FormatError("empty dataset CSV")
        width = lines[0].count(",") + 1
        if width < 3:
            raise FormatError(f"dataset CSV header has {width} columns, needs at least 3")
        for i, commas in enumerate(map(str.count, lines, repeat(","))):
            if commas != width - 1:
                raise FormatError(
                    f"dataset CSV line {i + 1} has {commas + 1} fields, header has {width}"
                )
        n = len(lines) - 1
        features = np.empty((n, width - 3))
        classes = np.empty(n, dtype=np.int64)
        roles = np.empty(n, dtype=np.int64)
        for start in range(0, n, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n)
            text = ",".join(lines[1 + start:1 + stop])
            fields = text.split(",")
            id_col, role_col, class_col, *feature_cols = (fields[j::width] for j in range(width))
            line = start + 2  # the file line of row start
            if id_col != list(map(str, range(start, stop))) and (
                    _parse_column(id_col, _parse_count, "id", line) != list(range(start, stop))):
                raise FormatError("dataset CSV ids not contiguous")
            roles[start:stop] = _parse_column(
                role_col, _ROLE_CODES.__getitem__, "role", line, few=True)
            classes[start:stop] = _parse_column(class_col, _parse_class, "class", line, few=True)
            number = _strict_float if _loose(text) else float  # one scan of a clean block
            for j, col in enumerate(feature_cols):
                features[start:stop, j] = _parse_column(col, number, f"x{j}", line)
        return cls(features, classes, roles, n_classes)


def _parse_count(text: str) -> int:
    """A non-negative int below 2**63 as %s prints it: plain ASCII digits."""
    value = int(text) if text.isascii() and text.isdigit() else -1
    if not 0 <= value < 2**63:
        raise ValueError(text)
    return value


def _parse_class(text: str) -> int:
    return OOD_CLASS if text == "" else _parse_count(text)


def _loose(text: str) -> bool:
    """Whether text holds what float() takes but save_csv never writes:
    whitespace, an underscore or a non-ASCII character."""
    return not text.isascii() or any(c in text for c in " \t\n\v\f\r_")


def _strict_float(text: str) -> float:
    if _loose(text):
        raise ValueError(text)
    return float(text)


def _parse_column(col: list[str], parse, name: str, first_line: int,
                  few: bool = False) -> list:
    """parse() of every entry of a data column whose first entry is on
    file line first_line, or of each distinct entry once when the column
    has few; the first entry it rejects raises FormatError naming its
    line and column."""
    try:
        if few:
            table = {text: parse(text) for text in set(col)}
            return list(map(table.__getitem__, col))
        return list(map(parse, col))
    except (ValueError, KeyError, OverflowError):
        for line, text in enumerate(col, start=first_line):
            try:
                parse(text)
            except (ValueError, KeyError, OverflowError):
                raise FormatError(
                    f"dataset CSV line {line}: bad {name} {text!r}"
                ) from None
        raise


def write_csv_columns(path, header: list[str], formats: list[str], n_rows: int, columns: list,
                      line_end: str = "\r\n", header_end: str | None = None) -> None:
    """Write n_rows rows as a CSV file, BLOCK_ROWS rows at a time: columns
    holds n_rows values each (a Coded column n_rows codes), sliced per
    block, and formats the %-format of each column's fields. The bytes are
    those csv.writer writes for the fields fmt % value prints, with CRLF
    line ends unless line_end says otherwise; header_end ends the header
    line instead when given (metrics.csv has an LF header over CRLF rows).

    A block is one uint8 matrix, written as its valid bytes. Numpy kernels
    print float64 arrays under %r, %s or %.9g and integer arrays under %s
    or %d, with NUL in their holes, and fmt % value the values they cannot
    print exactly. Any other column is printed by fmt % value and quoted
    once per distinct text (a Coded column once per value)."""
    end = np.frombuffer(line_end.encode(), np.uint8)[None]
    with open(path, "wb") as fh:
        fh.write((",".join(map(_quoted, header)) + (header_end or line_end)).encode())
        for start in range(0, n_rows, BLOCK_ROWS):
            rows = slice(start, min(start + BLOCK_ROWS, n_rows))
            block = [Coded(c.values, c.codes[rows]) if isinstance(c, Coded) else c[rows]
                     for c in columns]
            fh.write(_block(formats, block, rows.stop - start, end))


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


def _float_field(fmt: str, x: np.ndarray) -> np.ndarray:
    """Float64 values as fmt % value prints them: %r (or %s) the shortest
    round-trip digits, %.9g nine significant digits, both in fixed
    notation. Zero, subnormals, inf, nan, %r's powers of two (the gap below
    is half the gap above), exact ties at the printed length, values the
    scaling cannot bring into range and 20-digit fractions go through %."""
    shortest = fmt != "%.9g"
    digits, top = (17, 15) if shortest else (9, 8)
    # With x = M*2**E (M with its hidden bit), e10 = floor(log10|x|)
    # estimated and s = digits-1-e10, |x|*10**s = I + R/2**t exactly for
    # P = M*5**s, a 128-bit product of 32-bit limbs, t = -(E+s),
    # I = P >> t and R = P mod 2**t. A row is kept when x is normal, e10
    # lies in -4..top, 1 <= t <= 55 and 10**(digits-1) <= I < 10**digits.
    bits = x.view("<u8")
    biased = (bits >> 52).astype(np.int64) & 0x7FF
    normal = (biased > 0) & (biased < 0x7FF)
    e10 = np.floor(np.log10(np.abs(np.where(normal, x, 1.0)))).astype(np.int64)
    s = digits - 1 - np.minimum(np.maximum(e10, -4), top)
    t = 1075 - biased - s
    ok = normal & (e10 >= -4) & (e10 <= top) & (t >= 1) & (t <= 55)
    shift = np.minimum(np.maximum(t, 1), 55).astype(np.uint64)
    mantissa, five = bits & (2**52 - 1) | 2**52, _POW5[s]
    m0, m1, f0, f1 = mantissa & (2**32 - 1), mantissa >> 32, five & (2**32 - 1), five >> 32
    low, mid = m0 * f0, m0 * f1 + m1 * f0
    carry = (low >> 32) + (mid & (2**32 - 1))
    lo = low & (2**32 - 1) | carry << 32
    hi = m1 * f1 + (mid >> 32) + (carry >> 32)
    scaled = hi << (64 - shift) | lo >> shift
    ok &= (hi >> shift == 0) & (scaled >= _POW10[digits - 1]) & (scaled < _POW10[digits])
    scaled, rest, unit, five = (v.astype(np.int64) for v in
                                (scaled, lo & ((1 << shift) - 1), 1 << shift, five))
    del biased, s, t, shift, mantissa, m0, m1, f0, f1, low, mid, carry, lo, hi  # block memory
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
        ok &= bits & (2**52 - 1) != 0
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


def _read_idx_header(fh, expected_magic: int, path) -> list[int]:
    raw = fh.read(4)
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw)[0]
    if magic != expected_magic:
        raise FormatError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    n_dims = magic & 0xFF
    dims = []
    for _ in range(n_dims):
        raw = fh.read(4)
        if len(raw) < 4:
            raise FormatError(f"{path}: truncated IDX dimension list")
        dims.append(struct.unpack(">I", raw)[0])
    return dims


def _read_idx(path, expected_magic: int) -> tuple[list[int], bytes]:
    """The dimensions and the data of one IDX file. The data must be
    exactly the bytes the dimensions imply, checked against the file
    size before any of it is read."""
    with open(path, "rb") as fh:
        dims = _read_idx_header(fh, expected_magic, path)
        need = math.prod(dims)
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have < need:
            raise FormatError(f"{path}: truncated IDX data: {have} of {need} bytes")
        if have > need:
            raise FormatError(f"{path}: {have - need} trailing bytes after the IDX data")
        return dims, fh.read(need)


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
