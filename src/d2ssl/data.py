"""Dataset construction: synthetic generators, IDX binary loading,
labeled/unlabeled/test splitting, and unlabeled-pool manipulations.

Hidden classes of unlabeled samples are kept for evaluation but must
never be read by training code; only metrics and diagnostics consult
``true_classes``. Out-of-distribution samples carry the sentinel class
OOD_CLASS and are excluded from accuracy denominators.
"""

from __future__ import annotations

import struct
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

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class SplitDataset:
    features: np.ndarray      # (n, d) float64
    true_classes: np.ndarray  # (n,) int, OOD_CLASS for out-of-distribution
    roles: np.ndarray         # (n,) int role codes
    n_classes: int
    note: str = ""

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
            self.features.copy(), self.true_classes.copy(), self.roles.copy(),
            self.n_classes, self.note,
        )

    def label_columns(self) -> list[list[str]]:
        """The id, role and class columns of the CSV layout, as text;
        the class of an out-of-distribution row is empty."""
        classes = self.true_classes.tolist()
        class_names = {c: "" if c == OOD_CLASS else str(c) for c in set(classes)}
        return [
            list(map(str, range(self.n_samples))),
            list(map(_ROLE_NAMES.__getitem__, self.roles.tolist())),
            list(map(class_names.__getitem__, classes)),
        ]

    def save_csv(self, path) -> None:
        """Header id,role,class,x0..x{d-1}; one row per sample with
        repr() floats, CRLF line ends."""
        header = ["id", "role", "class"] + [f"x{i}" for i in range(self.dim)]
        cols = self.label_columns()
        cols += [list(map(repr, col)) for col in self.features.T.tolist()]
        write_csv_columns(path, header, cols)

    @classmethod
    def load_csv(cls, path, n_classes: int) -> "SplitDataset":
        """Read a CSV written by save_csv. A row with the wrong field
        count, an unknown role, or an id, class or feature that does not
        parse raises FormatError, as do ids other than 0..n-1."""
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
        fields = ",".join(lines[1:]).split(",") if len(lines) > 1 else []
        ids, roles, classes, *feats = (fields[j::width] for j in range(width))
        if _parse_column(ids, int, "id") != list(range(len(ids))):
            raise FormatError("dataset CSV ids not contiguous")
        roles = _parse_column(roles, _ROLE_CODES.__getitem__, "role", few=True)
        classes = _parse_column(classes, _parse_class, "class", few=True)
        features = np.empty((len(ids), width - 3))
        for j, col in enumerate(feats):
            features[:, j] = _parse_column(col, float, f"x{j}")
        return cls(features, np.array(classes, dtype=np.int64),
                   np.array(roles, dtype=np.int64), n_classes)


def _parse_class(text: str) -> int:
    if text == "":
        return OOD_CLASS
    value = int(text)
    if not 0 <= value < 2**63:
        raise ValueError(text)
    return value


def _parse_column(col: list[str], parse, name: str, few: bool = False) -> list:
    """parse() of every entry of a data column, or of each distinct entry
    once when the column has few; the first entry it rejects raises
    FormatError naming its line and column."""
    try:
        if few:
            table = {text: parse(text) for text in set(col)}
            return list(map(table.__getitem__, col))
        return list(map(parse, col))
    except (ValueError, KeyError, OverflowError):
        for line, text in enumerate(col, start=2):
            try:
                parse(text)
            except (ValueError, KeyError, OverflowError):
                raise FormatError(
                    f"dataset CSV line {line}: bad {name} {text!r}"
                ) from None
        raise


def write_csv_columns(path, header: list[str], columns: list[list[str]]) -> None:
    """Write equal-length columns of text fields as a CSV file: the bytes
    csv.writer writes for them (comma-separated, CRLF line ends). No
    field may contain a comma, a quote or a line break."""
    rows = map(",".join, zip(*columns))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *rows]) + "\r\n")


def gen_gaussians(
    n_classes: int,
    dim: int,
    per_class: int,
    centers: np.ndarray,
    spread: float,
    rng: np.random.Generator,
) -> SplitDataset:
    """Isotropic Gaussian blobs, one per class, all initially unsplit
    (role unlabeled until split() assigns roles)."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.shape != (n_classes, dim):
        raise ConfigurationError(f"centers must be ({n_classes}, {dim})")
    if per_class <= 0:
        raise ConfigurationError("per_class must be positive")
    for i in range(n_classes):
        for j in range(i + 1, n_classes):
            if np.allclose(centers[i], centers[j]):
                raise ConfigurationError(f"duplicate centers for classes {i} and {j}")
    feats = np.zeros((n_classes * per_class, dim))
    classes = np.zeros(n_classes * per_class, dtype=np.int64)
    for c in range(n_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        feats[block] = centers[c] + spread * rng.standard_normal((per_class, dim))
        classes[block] = c
    roles = np.full(n_classes * per_class, ROLE_UNLABELED, dtype=np.int64)
    return SplitDataset(feats, classes, roles, n_classes, note="gaussians")


def gen_two_moons(
    n_per_moon: int, noise: float, rng: np.random.Generator
) -> SplitDataset:
    """Two interleaved half-circles, the standard 2-class toy set."""
    if n_per_moon <= 0:
        raise ConfigurationError("n_per_moon must be positive")
    if noise < 0:
        raise ConfigurationError("noise must be non-negative")
    t = np.linspace(0.0, np.pi, n_per_moon)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    feats = np.vstack([upper, lower])
    feats += noise * rng.standard_normal(feats.shape)
    classes = np.repeat([0, 1], n_per_moon).astype(np.int64)
    roles = np.full(2 * n_per_moon, ROLE_UNLABELED, dtype=np.int64)
    return SplitDataset(feats, classes, roles, 2, note="two_moons")


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


def load_idx(images_path, labels_path) -> SplitDataset:
    """Parse the big-endian IDX pair used by the MNIST distribution.

    Pixels are scaled to [0, 1]; all samples start unsplit (unlabeled).
    """
    with open(images_path, "rb") as fh:
        dims = _read_idx_header(fh, IDX_IMAGES_MAGIC, images_path)
        count = dims[0]
        pixels = int(np.prod(dims[1:])) if len(dims) > 1 else 1
        buf = fh.read(count * pixels)
        if len(buf) < count * pixels:
            raise FormatError(f"{images_path}: truncated image data")
        feats = np.frombuffer(buf, dtype=np.uint8).reshape(count, pixels)
        feats = feats.astype(np.float64) / 255.0
    with open(labels_path, "rb") as fh:
        ldims = _read_idx_header(fh, IDX_LABELS_MAGIC, labels_path)
        lcount = ldims[0]
        buf = fh.read(lcount)
        if len(buf) < lcount:
            raise FormatError(f"{labels_path}: truncated label data")
        labels = np.frombuffer(buf, dtype=np.uint8).astype(np.int64)
    if count != lcount:
        raise FormatError(f"image count {count} != label count {lcount}")
    roles = np.full(count, ROLE_UNLABELED, dtype=np.int64)
    n_classes = int(labels.max()) + 1 if count else 0
    return SplitDataset(feats, labels.copy(), roles, n_classes, note="idx")


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


def unbalance(
    dataset: SplitDataset, keep_counts: list[int], rng: np.random.Generator
) -> SplitDataset:
    """Subsample the unlabeled pool to the given per-class counts."""
    out = dataset.copy()
    keep: list[np.ndarray] = []
    for c, count in enumerate(keep_counts):
        members = np.flatnonzero(
            (out.roles == ROLE_UNLABELED) & (out.true_classes == c)
        )
        if count > members.size:
            raise ConfigurationError(
                f"class {c}: keep count {count} exceeds unlabeled pool {members.size}"
            )
        if count:
            keep.append(rng.choice(members, size=count, replace=False))
    kept = np.concatenate(keep) if keep else np.array([], dtype=np.int64)
    drop_mask = (out.roles == ROLE_UNLABELED)
    drop_mask[kept] = False
    sel = np.flatnonzero(~drop_mask)
    return SplitDataset(
        out.features[sel], out.true_classes[sel], out.roles[sel],
        out.n_classes, out.note + "+unbalanced",
    )


def inject_ood(
    dataset: SplitDataset, ood_source: SplitDataset, count: int, rng: np.random.Generator
) -> SplitDataset:
    """Append out-of-distribution samples to the unlabeled pool with the
    sentinel hidden class."""
    if ood_source.dim != dataset.dim:
        raise ConfigurationError(
            f"OOD feature dim {ood_source.dim} != dataset dim {dataset.dim}"
        )
    if count == 0:
        return dataset.copy()
    if count > ood_source.n_samples:
        raise ConfigurationError("not enough OOD samples to inject")
    pick = rng.choice(ood_source.n_samples, size=count, replace=False)
    feats = np.vstack([dataset.features, ood_source.features[pick]])
    classes = np.concatenate(
        [dataset.true_classes, np.full(count, OOD_CLASS, dtype=np.int64)]
    )
    roles = np.concatenate(
        [dataset.roles, np.full(count, ROLE_UNLABELED, dtype=np.int64)]
    )
    return SplitDataset(feats, classes, roles, dataset.n_classes,
                        dataset.note + "+ood")
