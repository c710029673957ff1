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
from dataclasses import dataclass
from itertools import chain, cycle, repeat

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

    def label_columns(self, start: int, stop: int) -> list:
        """The id, role and class columns of rows start..stop-1 in the
        CSV layout, each field printed with %s; the class of an
        out-of-distribution row is empty."""
        classes = self.true_classes[start:stop].tolist()
        class_names = {c: "" if c == OOD_CLASS else c for c in set(classes)}
        return [
            range(start, stop),
            list(map(_ROLE_NAMES.__getitem__, self.roles[start:stop].tolist())),
            list(map(class_names.__getitem__, classes)),
        ]

    def save_csv(self, path) -> None:
        """Header id,role,class,x0..x{d-1}; one row per sample with
        repr() floats, CRLF line ends."""
        header = ["id", "role", "class"] + [f"x{i}" for i in range(self.dim)]
        write_csv_columns(
            path, header, ["%s"] * 3 + ["%r"] * self.dim, self.n_samples,
            lambda start, stop: self.label_columns(start, stop)
            + self.features[start:stop].T.tolist(),
        )

    @classmethod
    def load_csv(cls, path, n_classes: int) -> "SplitDataset":
        """Read a CSV written by save_csv. A row with the wrong field
        count, an unknown role, or an id, class or feature that does not
        parse raises FormatError, as do ids other than 0..n-1. Field
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
            fields = ",".join(lines[1 + start:1 + stop]).split(",")
            id_col, role_col, class_col, *feature_cols = (fields[j::width] for j in range(width))
            line = start + 2  # the file line of row start
            if _parse_column(id_col, int, "id", line) != list(range(start, stop)):
                raise FormatError("dataset CSV ids not contiguous")
            roles[start:stop] = _parse_column(
                role_col, _ROLE_CODES.__getitem__, "role", line, few=True)
            classes[start:stop] = _parse_column(class_col, _parse_class, "class", line, few=True)
            for j, col in enumerate(feature_cols):
                features[start:stop, j] = _parse_column(col, float, f"x{j}", line)
        return cls(features, classes, roles, n_classes)


def _parse_class(text: str) -> int:
    if text == "":
        return OOD_CLASS
    value = int(text)
    if not 0 <= value < 2**63:
        raise ValueError(text)
    return value


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


def write_csv_columns(path, header: list[str], formats: list[str], n_rows: int, columns,
                      line_end: str = "\r\n", header_end: str | None = None) -> None:
    """Write n_rows rows as a CSV file, BLOCK_ROWS rows at a time:
    columns(start, stop) gives the columns of rows start..stop-1, and
    formats holds the %-format of each column's fields. The bytes are
    those csv.writer writes for the printed fields, with CRLF line ends
    unless line_end says otherwise; header_end ends the header line
    instead when given (metrics.csv has an LF header over CRLF rows)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quoted, header)) + (header_end or line_end))
        for start in range(0, n_rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n_rows)
            fh.write(_block_text(formats, line_end,
                                 tuple(chain.from_iterable(zip(*columns(start, stop))))))


def _block_text(formats: list[str], line_end: str, fields: tuple) -> str:
    """The lines of one block of row-major fields. The block is printed
    whole, and again field by field, quoted, only if it has a double
    quote or more commas, CRs and LFs than separators and line ends
    (counted on its UTF-8 bytes, which no other character uses)."""
    width = len(formats)
    rows = len(fields) // width
    text = ((",".join(formats) + line_end) * rows) % fields
    raw = np.frombuffer(text.encode(), np.uint8)
    marks = sum(np.count_nonzero(raw == c) for c in b",\r\n")
    if '"' not in text and marks == rows * (width - 1 + len(line_end)):
        return text
    texts = [_quoted(fmt % value) for fmt, value in zip(cycle(formats), fields)]
    return "".join(",".join(texts[i:i + width]) + line_end for i in range(0, len(texts), width))


def _quoted(text: str) -> str:
    """A field as csv.writer prints it: in double quotes, with its double
    quotes doubled, if it holds a comma, a double quote or a line break."""
    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\r\n') else text


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
