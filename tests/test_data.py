"""Dataset generator, split, CSV and IDX-format tests."""

import csv
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2ssl.data import (
    OOD_CLASS,
    ROLE_LABELED,
    ROLE_TEST,
    ROLE_UNLABELED,
    SplitDataset,
    gen_gaussians,
    gen_two_moons,
    inject_ood,
    load_idx,
    split,
    unbalance,
)
from d2ssl.errors import ConfigurationError, FormatError
from d2ssl.numerics import seeded_rng

CENTERS = 3.0 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)


def test_gaussians_spread_zero_at_centers():
    ds = gen_gaussians(4, 2, 10, CENTERS, 0.0, seeded_rng(0))
    for c in range(4):
        block = ds.features[ds.true_classes == c]
        np.testing.assert_allclose(block, np.tile(CENTERS[c], (10, 1)))


def test_gaussians_deterministic():
    a = gen_gaussians(4, 2, 50, CENTERS, 1.0, seeded_rng(3))
    b = gen_gaussians(4, 2, 50, CENTERS, 1.0, seeded_rng(3))
    np.testing.assert_array_equal(a.features, b.features)


def test_gaussians_duplicate_centers_error():
    bad = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ConfigurationError):
        gen_gaussians(2, 2, 5, bad, 1.0, seeded_rng(0))


def test_gaussians_validation():
    with pytest.raises(ConfigurationError):
        gen_gaussians(4, 2, 0, CENTERS, 1.0, seeded_rng(0))
    with pytest.raises(ConfigurationError):
        gen_gaussians(4, 3, 5, CENTERS, 1.0, seeded_rng(0))


def test_two_moons_noise_zero_on_arcs():
    ds = gen_two_moons(100, 0.0, seeded_rng(0))
    upper = ds.features[ds.true_classes == 0]
    # Upper moon: unit circle around the origin, y >= 0.
    np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
    assert np.all(upper[:, 1] >= -1e-12)


def test_two_moons_balanced():
    ds = gen_two_moons(123, 0.1, seeded_rng(1))
    assert int(np.sum(ds.true_classes == 0)) == 123
    assert int(np.sum(ds.true_classes == 1)) == 123


def test_two_moons_validation():
    with pytest.raises(ConfigurationError):
        gen_two_moons(0, 0.1, seeded_rng(0))
    with pytest.raises(ConfigurationError):
        gen_two_moons(10, -0.1, seeded_rng(0))


@given(labeled=st.integers(1, 5), frac=st.floats(0.1, 0.6))
@settings(max_examples=20, deadline=None)
def test_split_is_partition(labeled, frac):
    raw = gen_gaussians(4, 2, 40, CENTERS, 1.0, seeded_rng(0))
    ds = split(raw, labeled, frac, seeded_rng(1))
    n = ds.n_samples
    assert (
        ds.labeled_indices.size + ds.unlabeled_indices.size + ds.test_indices.size == n
    )
    for c in range(4):
        got = int(np.sum(ds.true_classes[ds.labeled_indices] == c))
        assert got == labeled


def test_split_deterministic():
    raw = gen_gaussians(4, 2, 40, CENTERS, 1.0, seeded_rng(0))
    a = split(raw, 3, 0.5, seeded_rng(9))
    b = split(raw, 3, 0.5, seeded_rng(9))
    np.testing.assert_array_equal(a.roles, b.roles)


def test_split_insufficient_class():
    raw = gen_gaussians(4, 2, 4, CENTERS, 1.0, seeded_rng(0))
    with pytest.raises(ConfigurationError):
        split(raw, 5, 0.5, seeded_rng(0))


def test_labeled_per_class_equals_population():
    raw = gen_gaussians(2, 2, 6, CENTERS[:2], 1.0, seeded_rng(0))
    ds = split(raw, 6, 0.0, seeded_rng(0))
    assert ds.unlabeled_indices.size == 0


def test_unbalance_counts():
    raw = gen_gaussians(4, 2, 50, CENTERS, 1.0, seeded_rng(0))
    ds = split(raw, 2, 0.2, seeded_rng(0))
    out = unbalance(ds, [10, 5, 0, 7], seeded_rng(1))
    for c, want in enumerate([10, 5, 0, 7]):
        got = int(np.sum(
            (out.roles == ROLE_UNLABELED) & (out.true_classes == c)
        ))
        assert got == want
    # labeled and test sets untouched
    assert out.labeled_indices.size == ds.labeled_indices.size
    assert out.test_indices.size == ds.test_indices.size


def test_unbalance_excess_error():
    raw = gen_gaussians(2, 2, 10, CENTERS[:2], 1.0, seeded_rng(0))
    ds = split(raw, 1, 0.0, seeded_rng(0))
    with pytest.raises(ConfigurationError):
        unbalance(ds, [100, 1], seeded_rng(0))


def test_unbalanced_reference_counts_sum():
    # The published unbalanced per-class counts total 23000.   [PAPER]
    counts = [2770, 3452, 2042, 4062, 4047, 758, 590, 2588, 2201, 490]
    assert sum(counts) == 23000


def test_inject_ood():
    raw = gen_gaussians(4, 2, 20, CENTERS, 1.0, seeded_rng(0))
    ds = split(raw, 2, 0.2, seeded_rng(0))
    ood = gen_gaussians(1, 2, 30, np.zeros((1, 2)), 1.0, seeded_rng(5))
    out = inject_ood(ds, ood, 12, seeded_rng(6))
    assert out.unlabeled_indices.size == ds.unlabeled_indices.size + 12
    assert int(np.sum(out.true_classes == OOD_CLASS)) == 12
    same = inject_ood(ds, ood, 0, seeded_rng(6))
    assert same.n_samples == ds.n_samples


def test_inject_ood_dim_mismatch():
    raw = gen_gaussians(4, 2, 10, CENTERS, 1.0, seeded_rng(0))
    ds = split(raw, 1, 0.2, seeded_rng(0))
    ood3 = gen_gaussians(1, 3, 5, np.zeros((1, 3)), 1.0, seeded_rng(0))
    with pytest.raises(ConfigurationError):
        inject_ood(ds, ood3, 3, seeded_rng(0))


def test_csv_round_trip(tmp_path):
    raw = gen_gaussians(4, 2, 15, CENTERS, 1.0, seeded_rng(0))
    ds = split(raw, 2, 0.3, seeded_rng(1))
    ood = gen_gaussians(1, 2, 5, np.zeros((1, 2)), 1.0, seeded_rng(2))
    ds = inject_ood(ds, ood, 3, seeded_rng(3))
    path = tmp_path / "ds.csv"
    ds.save_csv(path)
    loaded = SplitDataset.load_csv(path, ds.n_classes)
    np.testing.assert_array_equal(loaded.features, ds.features)
    np.testing.assert_array_equal(loaded.true_classes, ds.true_classes)
    np.testing.assert_array_equal(loaded.roles, ds.roles)


EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]


def save_csv_by_rows(ds, path):
    """The row-by-row csv.writer writer, kept as the byte-level reference."""
    names = {ROLE_LABELED: "labeled", ROLE_UNLABELED: "unlabeled", ROLE_TEST: "test"}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "role", "class"] + [f"x{i}" for i in range(ds.dim)])
        for i in range(ds.n_samples):
            cls = "" if ds.true_classes[i] == OOD_CLASS else int(ds.true_classes[i])
            w.writerow([i, names[int(ds.roles[i])], cls]
                       + [repr(float(v)) for v in ds.features[i]])


def ood_dataset(dim=2, edge=False):
    """A small split dataset with three OOD rows; with edge=True its first
    rows carry nan, +-inf, -0.0 and the smallest subnormal."""
    centers = np.zeros((4, dim))
    centers[:, 0] = 3.0 * np.arange(4)
    ds = split(gen_gaussians(4, dim, 15, centers, 1.0, seeded_rng(0)), 2, 0.3, seeded_rng(1))
    ood = gen_gaussians(1, dim, 5, np.zeros((1, dim)), 1.0, seeded_rng(2))
    ds = inject_ood(ds, ood, 3, seeded_rng(3))
    if edge:
        ds.features[:len(EDGE_FLOATS), 0] = EDGE_FLOATS
    return ds


@pytest.mark.parametrize("dim,edge", [(1, False), (2, True), (5, True)])
def test_save_csv_bytes_match_csv_writer(tmp_path, dim, edge):
    ds = ood_dataset(dim, edge)
    ds.save_csv(tmp_path / "new.csv")
    save_csv_by_rows(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = SplitDataset.load_csv(tmp_path / "new.csv", ds.n_classes)
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert loaded.true_classes.tobytes() == ds.true_classes.tobytes()
    assert loaded.roles.tobytes() == ds.roles.tobytes()


def test_csv_header_only(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("id,role,class,x0,x1\r\n")
    loaded = SplitDataset.load_csv(path, 4)
    assert loaded.features.shape == (0, 2) and loaded.n_samples == 0


def write_csv_with(tmp_path, line, text):
    """The dataset CSV of ood_dataset() with data line `line` replaced."""
    path = tmp_path / "ds.csv"
    ood_dataset().save_csv(path)
    lines = path.read_text().splitlines()
    lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_csv_unknown_role(tmp_path):
    path = write_csv_with(tmp_path, 3, "2,trainer,1,0.5,0.5")
    with pytest.raises(FormatError, match=r"line 4: bad role 'trainer'"):
        SplitDataset.load_csv(path, 4)


def test_load_csv_row_one_feature_short(tmp_path):
    path = write_csv_with(tmp_path, 3, "2,test,1,0.5")
    with pytest.raises(FormatError, match=r"line 4 has 4 fields, header has 5"):
        SplitDataset.load_csv(path, 4)


@pytest.mark.parametrize("text,what", [
    ("2x,test,1,0.5,0.5", "id"),
    ("2,test,one,0.5,0.5", "class"),
    ("2,test,-3,0.5,0.5", "class"),
    ("2,test,1,0.5,half", "x1"),
])
def test_load_csv_unparsable_field(tmp_path, text, what):
    path = write_csv_with(tmp_path, 3, text)
    with pytest.raises(FormatError, match=rf"line 4: bad {what}"):
        SplitDataset.load_csv(path, 4)


def test_load_csv_ids_not_contiguous(tmp_path):
    path = write_csv_with(tmp_path, 3, "7,test,1,0.5,0.5")
    with pytest.raises(FormatError, match="not contiguous"):
        SplitDataset.load_csv(path, 4)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_load_csv_mutated_file_loads_or_raises_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    ood_dataset().save_csv(path)
    blob = bytearray(path.read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
    if kind == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "extend":
        blob += data.draw(st.binary(min_size=1, max_size=20))
    else:
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(blob))
    try:
        SplitDataset.load_csv(path, 4)
    except FormatError:
        pass


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("")
    with pytest.raises(FormatError):
        SplitDataset.load_csv(path, 4)


# ---- IDX binary format ----

def write_idx_pair(tmp_path, images, labels):
    img_path = tmp_path / "imgs.idx3-ubyte"
    lbl_path = tmp_path / "lbls.idx1-ubyte"
    n, rows, cols = images.shape
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return img_path, lbl_path


def test_idx_round_trip(tmp_path):
    images = seeded_rng(0).integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
    labels = [0, 2, 1, 2]
    img, lbl = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img, lbl)
    assert ds.n_samples == 4 and ds.dim == 9
    np.testing.assert_array_equal(ds.true_classes, labels)
    np.testing.assert_allclose(
        ds.features, images.reshape(4, 9).astype(np.float64) / 255.0
    )
    assert np.all(ds.roles == ROLE_UNLABELED)


def test_idx_bad_magic(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, [0, 1])
    # Labels file carrying the image magic must be rejected.
    blob = lbl.read_bytes()
    lbl.write_bytes(struct.pack(">I", 0x00000803) + blob[4:])
    with pytest.raises(FormatError):
        load_idx(img, lbl)


def test_idx_truncated(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2])
    blob = img.read_bytes()
    img.write_bytes(blob[:-3])
    with pytest.raises(FormatError):
        load_idx(img, lbl)


def test_idx_empty_file(tmp_path):
    img = tmp_path / "empty.idx"
    img.write_bytes(b"")
    lbl = tmp_path / "empty2.idx"
    lbl.write_bytes(b"")
    with pytest.raises(FormatError):
        load_idx(img, lbl)


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, [0, 1])
    with pytest.raises(FormatError):
        load_idx(img, lbl)
