"""The %-based CSV printer that data.write_csv_columns' numpy kernels are
checked against: each block of rows printed with one % operation, and
again field by field, quoted as csv.writer quotes, when the block has a
double quote or more commas, CRs and LFs than separators and line ends
(test_csv_kernels)."""

from itertools import chain, cycle

import numpy as np


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
