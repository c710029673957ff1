"""Dataset generator, split, CSV and IDX-format tests."""

import csv
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import oracle_load_csv
from d2ssl.cli import build_dataset, parse_config
from d2ssl.data import (
    BLOCK_ROWS,
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


# The generators trust their arguments: parse_config checks the settings
# build_dataset hands them.
def test_gaussians_duplicate_centers_error():
    for bad in ({"gauss_center_scale": "0"},
                {"gauss_dim": "1", "layer_sizes": "1,64,2,4"},
                {"gauss_classes": "2", "gauss_center_scale": "1e-9", "layer_sizes": "2,64,2,2"}):
        with pytest.raises(ConfigurationError, match="duplicate centers for classes 0 and "):
            parse_config("", bad)


def test_gaussians_validation():
    with pytest.raises(ConfigurationError, match="gauss_per_class"):
        parse_config("", {"gauss_per_class": "0"})
    with pytest.raises(ConfigurationError, match="layer_sizes"):
        parse_config("", {"gauss_dim": "3"})  # the centers and the model take 2


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
    moons = {"dataset": "two_moons", "layer_sizes": "2,64,2,2"}
    for key, value in (("moons_per_class", "0"), ("moons_noise", "-0.1")):
        with pytest.raises(ConfigurationError, match=key):
            parse_config("", {**moons, key: value})


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
    # inject_ood trusts its source's width: build_dataset draws the OOD
    # rows in the dataset's own width.
    ds = build_dataset(parse_config("", {"gauss_dim": "3", "layer_sizes": "3,8,4",
                                         "gauss_per_class": "30", "ood_count": "7"}))
    assert ds.dim == 3
    ood = ds.true_classes == OOD_CLASS
    assert ood.sum() == 7 and np.all(ds.roles[ood] == ROLE_UNLABELED)


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


def block_pool(n_rows):
    """n_rows 2-D rows of every role and class, OOD ones included, with
    features over twenty orders of magnitude."""
    rng = seeded_rng(0)
    scale = 10.0 ** rng.integers(-10, 10, (n_rows, 2))
    return SplitDataset(rng.standard_normal((n_rows, 2)) * scale,
                        rng.integers(OOD_CLASS, 4, n_rows), rng.integers(0, 3, n_rows), 4)


BLOCK_EDGES = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]


@pytest.mark.parametrize("n_rows", BLOCK_EDGES)
def test_save_csv_bytes_and_round_trip_at_block_edges(tmp_path, n_rows):
    ds = block_pool(n_rows)
    ds.save_csv(tmp_path / "new.csv")
    save_csv_by_rows(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = SplitDataset.load_csv(tmp_path / "new.csv", ds.n_classes)
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert loaded.true_classes.tobytes() == ds.true_classes.tobytes()
    assert loaded.roles.tobytes() == ds.roles.tobytes()


@pytest.mark.parametrize("field,text,what", [
    (0, "9x", "id"), (1, "trainer", "role"), (2, "-3", "class"), (4, "half", "x1"),
])
def test_load_csv_fault_in_a_later_block_names_its_line(tmp_path, field, text, what):
    path = tmp_path / "ds.csv"
    block_pool(2 * BLOCK_ROWS + 1).save_csv(path)
    lines = path.read_text().splitlines()
    line = BLOCK_ROWS + 7  # the sixth row of the second block, after the header line
    fields = lines[line - 1].split(",")
    fields[field] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"^dataset CSV line {line}: bad {what} '{text}'$"):
        SplitDataset.load_csv(path, 4)


def test_save_csv_peak_memory_does_not_grow_with_rows(tmp_path):
    """Text is made one block of rows at a time, so four blocks of rows
    peak about where one block does."""
    def traced_peak(n_rows):
        ds = block_pool(n_rows)
        tracemalloc.start()
        ds.save_csv(tmp_path / "ds.csv")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    one, four = traced_peak(BLOCK_ROWS), traced_peak(4 * BLOCK_ROWS)
    assert four < 1.5 * one, (one, four)


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
    ("2,test,9223372036854775808,0.5,0.5", "class"),
    ("00000000000000000002,test,1,0.5,0.5", "id"),
])
def test_load_csv_unparsable_field(tmp_path, text, what):
    path = write_csv_with(tmp_path, 3, text)
    with pytest.raises(FormatError, match=rf"line 4: bad {what}"):
        SplitDataset.load_csv(path, 4)


# float() and int() take these texts, but save_csv never writes them.
@pytest.mark.parametrize("text,what,field", [
    ("2,test,1,1_0,0.5", "x0", "1_0"),
    ("2,test,1,0.5, 0.5", "x1", " 0.5"),
    ("2,test,1,0.5\t,0.5", "x0", "0.5\t"),
    ("2,test,1,\u0661.5,0.5", "x0", "\u0661.5"),
    ("2,test,+1,0.5,0.5", "class", "+1"),
    ("2,test,1 ,0.5,0.5", "class", "1 "),
    ("2,test,\u0661,0.5,0.5", "class", "\u0661"),
    ("+2,test,1,0.5,0.5", "id", "+2"),
    (" 2,test,1,0.5,0.5", "id", " 2"),
    ("\u0662,test,1,0.5,0.5", "id", "\u0662"),
    ("2,test,1,+1.5,0.5", "x0", "+1.5"),
    ("2,test,1,0.5,Infinity", "x1", "Infinity"),
    ("2,test,1,1.,0.5", "x0", "1."),
    ("2,test,1,0.5,.5", "x1", ".5"),
    ("2,test,1,1E5,0.5", "x0", "1E5"),
    ("2,test,1,0.5,1e5", "x1", "1e5"),
    ("2,test,1,NaN,0.5", "x0", "NaN"),
])
def test_load_csv_rejects_loose_numbers(tmp_path, text, what, field):
    path = write_csv_with(tmp_path, 3, text)
    message = f"dataset CSV line 4: bad {what} {field!r}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        SplitDataset.load_csv(path, 4)


def test_load_csv_reads_zero_padded_ids(tmp_path):
    path = write_csv_with(tmp_path, 3, "0000000000000000002,test,1,0.5,0.5")
    loaded = SplitDataset.load_csv(path, 4)
    assert loaded.features[2].tolist() == [0.5, 0.5] and loaded.true_classes[2] == 1


def test_load_csv_ids_not_contiguous(tmp_path):
    path = write_csv_with(tmp_path, 3, "7,test,1,0.5,0.5")
    with pytest.raises(FormatError, match="not contiguous"):
        SplitDataset.load_csv(path, 4)


# What str.splitlines breaks a line at besides LF and CRLF.
OTHER_LINE_ENDS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", OTHER_LINE_ENDS)
def test_load_csv_other_line_ends_are_field_text(tmp_path, sep):
    path = write_csv_with(tmp_path, 3, f"2,test,1,0.5,{sep}0.5")
    message = f"dataset CSV line 4: bad x1 {sep + '0.5'!r}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        SplitDataset.load_csv(path, 4)


def test_load_csv_vertical_tab_names_its_line_and_field(tmp_path):
    path = write_csv_with(tmp_path, 2, "1,test,1,0.25,\x0b0.5")
    with pytest.raises(FormatError, match=r"^dataset CSV line 3: bad x1 '\\x0b0.5'$"):
        SplitDataset.load_csv(path, 4)


@pytest.mark.parametrize("edit", [
    lambda blob: blob.replace(b"\r\n", b"\r"),  # CR-only line ends
    lambda blob: blob.replace(b"\r\n", b"\n\r"),  # LF CR
    lambda blob: blob[:-2] + b"\x1c",  # a file separator for the last CRLF
    lambda blob: blob.replace(b"\r\n", "\u2028".encode(), 1),  # after the header
], ids=["cr_only", "lf_cr", "x1c_last_line_end", "u2028_header_end"])
def test_load_csv_line_ends_are_lf_or_crlf(tmp_path, edit):
    path = tmp_path / "ds.csv"
    ood_dataset().save_csv(path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError):
        SplitDataset.load_csv(path, 4)


def test_load_csv_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    """The file is read once as bytes and parsed a block at a time, so
    four blocks peak near the file, the bytes and the arrays returned.
    The str reader of csv_oracle peaks at 5.5 times this file."""
    path = tmp_path / "ds.csv"
    block_pool(4 * BLOCK_ROWS).save_csv(path)
    tracemalloc.start()
    SplitDataset.load_csv(path, 4)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3 * path.stat().st_size, (peak, path.stat().st_size)


# save_csv's grammar, restated: the texts outside it that the str reader
# of csv_oracle takes are the only files it loads and load_csv does not.
COUNT = re.compile(r"[0-9]{1,19}")
FEATURE = re.compile(r"-?([0-9]+\.[0-9]+|[0-9](\.[0-9]+)?e[-+][0-9]{2,3}|inf)|nan")


def outside_grammar(blob: bytes) -> bool:
    """Whether a dataset CSV that the str reader takes holds a line end
    other than LF or CRLF, a header other than save_csv's, or an id,
    role, class or feature text outside save_csv's grammar."""
    lines = re.split("\r?\n", blob.decode())
    if lines[-1] == "":
        lines.pop()
    if any(sep in line for line in lines for sep in OTHER_LINE_ENDS):
        return True
    width = lines[0].count(",") + 1
    if lines[0] != ",".join(["id", "role", "class"] + [f"x{j}" for j in range(width - 3)]):
        return True
    for line in lines[1:]:
        fields = line.split(",")
        if not (COUNT.fullmatch(fields[0]) and fields[1] in ("labeled", "unlabeled", "test")
                and (fields[2] == "" or COUNT.fullmatch(fields[2]))
                and all(FEATURE.fullmatch(f) for f in fields[3:])):
            return True
    return False


# Field texts a mutation may put in place of another.
FIELD_TEXTS = ["+1.5", "Infinity", "1.", ".5", "1E5", "1e5", "NaN", "-nan", "1_0", " 1.5",
               "007", "00000000000000000000001", "9223372036854775808", "", "-0.0", "1e-05",
               "inf", "-inf", "nan", "1.5e+16", "5e-324", "0.1\x1c", "\u2028", "1.5\r"]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_load_csv_mutated_file_loads_or_raises_format_error(tmp_path_factory, data):
    """Every mutated file loads or raises FormatError. Where both readers
    load it the arrays are bit-equal, and where only the str reader of
    csv_oracle loads it the file holds a text outside save_csv's grammar."""
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    ood_dataset().save_csv(path)
    blob = bytearray(path.read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "extend", "flip", "field"]))
    if kind == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "extend":
        blob += data.draw(st.binary(min_size=1, max_size=20))
    elif kind == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    else:
        lines = blob.decode().split("\r\n")
        row = data.draw(st.integers(1, len(lines) - 2))
        fields = lines[row].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
            st.sampled_from(FIELD_TEXTS) | st.text(max_size=4))
        lines[row] = ",".join(fields)
        blob = bytearray("\r\n".join(lines).encode())
    path.write_bytes(bytes(blob))
    try:
        want = oracle_load_csv(path)
    except FormatError:
        want = None
    try:
        got = SplitDataset.load_csv(path, 4)
    except FormatError:
        assert want is None or outside_grammar(bytes(blob))
    else:
        assert want is not None
        for g, w in zip([got.features, got.true_classes, got.roles], want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


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
    with pytest.raises(FormatError) as info:
        load_idx(img, lbl)
    assert str(info.value) == f"{lbl}: bad IDX magic 0x00000803, expected 0x00000801"


# The image file: magic 4 bytes, dimension list 12, pixels 12, 28 in all.
@pytest.mark.parametrize("cut,message", [
    (3, "truncated IDX header: 3 of 4 bytes"),
    (10, "truncated IDX dimension list: 6 of 12 bytes"),
    (-3, "truncated IDX data: 9 of 12 bytes"),
], ids=["header", "dimension-list", "data"])
def test_idx_truncated(tmp_path, cut, message):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2])
    blob = img.read_bytes()
    assert len(blob) == 28
    img.write_bytes(blob[:cut])
    with pytest.raises(FormatError) as info:
        load_idx(img, lbl)
    assert str(info.value) == f"{img}: {message}"


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


@pytest.mark.parametrize("which", ["images", "labels"])
def test_idx_trailing_bytes(tmp_path, which):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2])
    path = img if which == "images" else lbl
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load_idx(img, lbl)


@pytest.mark.parametrize("header", [
    struct.pack(">IIII", 0x00000803, 0xFFFFFFFF, 28, 28),
    struct.pack(">IIII", 0x00000803, 2, 0xFFFFFFFF, 0xFFFFFFFF),
], ids=["count", "image size"])
def test_idx_huge_count_is_truncation(tmp_path, header):
    # The header's byte count is checked against the file size before
    # any data is read, so a huge count cannot ask for a huge buffer.
    img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    img.write_bytes(header + bytes(8))
    with pytest.raises(FormatError, match="truncated"):
        load_idx(img, lbl)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_idx_mutated_pair_loads_or_raises_format_error(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("idx")
    images = seeded_rng(0).integers(0, 256, size=(5, 3, 2)).astype(np.uint8)
    paths = write_idx_pair(tmp, images, [0, 3, 1, 2, 1])
    for path in paths:
        if not data.draw(st.booleans()):
            continue
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
        ds = load_idx(*paths)
    except FormatError:
        return
    assert ds.features.shape[0] == ds.true_classes.shape[0]
