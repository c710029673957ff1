"""The %-based CSV printer that data.write_csv_columns' numpy kernels are
checked against: each block of rows printed with one % operation, and
again field by field, quoted as csv.writer quotes, when the block has a
double quote or more commas, CRs and LFs than separators and line ends
(test_csv_kernels). And the str-based dataset CSV reader that
SplitDataset.load_csv's byte reader is checked against (test_data):
str.splitlines, str.split and one int() or float() per field."""

from itertools import chain, cycle, repeat

import numpy as np

from d2ssl.data import BLOCK_ROWS, OOD_CLASS, ROLE_LABELED, ROLE_TEST, ROLE_UNLABELED
from d2ssl.errors import FormatError

_ROLE_CODES = {"labeled": ROLE_LABELED, "unlabeled": ROLE_UNLABELED, "test": ROLE_TEST}


def oracle_csv_bytes(header, formats, n_rows, columns, block_rows,
                     line_end="\r\n", header_end=None) -> bytes:
    """The bytes write_csv_columns writes for the same arguments, with
    blocks of block_rows rows; columns(start, stop) gives sequences of
    Python values."""
    text = [",".join(map(quoted, header)) + (header_end or line_end)]
    for start in range(0, n_rows, block_rows):
        stop = min(start + block_rows, n_rows)
        text.append(block_text(formats, line_end,
                               tuple(chain.from_iterable(zip(*columns(start, stop))))))
    return "".join(text).encode()


def block_text(formats, line_end, fields: tuple) -> str:
    """The lines of one block of row-major fields."""
    width = len(formats)
    rows = len(fields) // width
    text = ((",".join(formats) + line_end) * rows) % fields
    raw = np.frombuffer(text.encode(), np.uint8)
    marks = sum(np.count_nonzero(raw == c) for c in b",\r\n")
    if '"' not in text and marks == rows * (width - 1 + len(line_end)):
        return text
    texts = [quoted(fmt % value) for fmt, value in zip(cycle(formats), fields)]
    return "".join(",".join(texts[i:i + width]) + line_end for i in range(0, len(texts), width))


def quoted(text: str) -> str:
    """A field as csv.writer prints it."""
    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\r\n') else text


def oracle_load_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The features, classes and roles of a dataset CSV, or FormatError:
    lines split at every break str.splitlines knows, fields at commas,
    ids and classes plain ASCII digits below 2**63, and a feature what
    float() takes but whitespace, an underscore or a non-ASCII character."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    return features, classes, roles


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
