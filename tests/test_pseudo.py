"""Joint-loss, gradient, update, and snapshot-format tests."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from d2ssl.errors import ConfigurationError, FormatError, FrozenUpdateError
from gradient_oracle import gradient_check
from d2ssl.numerics import entropy, log_softmax, seeded_rng, softmax, softmax_pair
from d2ssl.pseudo import (
    CLASSIFICATION_LOSSES,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    D2Config,
    PseudoLabelStore,
    d2_loss,
    d2_update_pseudo_batch,
    grad_wrt_network_logits,
    grad_wrt_pseudo_logits,
    load_snapshot,
    save_snapshot,
    convergence_residual,
)

CFG = D2Config(alpha=0.1, beta=0.03, lam=4000.0)

finite = st.floats(min_value=-30.0, max_value=30.0,
                   allow_nan=False, allow_infinity=False)


def vec(n):
    return arrays(np.float64, n, elements=finite)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        D2Config(alpha=0.0)
    with pytest.raises(ConfigurationError):
        D2Config(beta=-0.1)
    with pytest.raises(ConfigurationError):
        D2Config(lam=-1.0)
    with pytest.raises(ConfigurationError):
        D2Config(classification_loss="hinge")


@pytest.mark.parametrize("key", ["alpha", "beta", "lam", "init_scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite(key, value):
    with pytest.raises(ConfigurationError, match=key):
        D2Config(**{key: value})


def test_loss_breakdown_weights():
    # At p_hat == p_tilde the matching term vanishes: total = beta * H.
    z = np.array([[1.0, -0.5, 0.2]])
    lp = log_softmax(z)
    l_c, l_e, total = d2_loss(lp, lp, CFG)
    assert l_c.shape == l_e.shape == total.shape == (1,)
    assert l_c[0] == pytest.approx(0.0, abs=1e-12)
    assert total[0] == pytest.approx(CFG.beta * l_e[0], abs=1e-12)
    assert l_e[0] == pytest.approx(float(entropy(np.exp(lp), log_p=lp)[0]), abs=1e-12)


def test_loss_hand_computed_two_class():
    # p_hat = (0.75, 0.25), p_tilde = (0.5, 0.5)            [DERIVED]
    # KL = 0.75 ln 1.5 + 0.25 ln 0.5, H = -(0.75 ln 0.75 + 0.25 ln 0.25)
    lp_hat = np.log(np.array([[0.75, 0.25]]))
    lp_til = np.log(np.array([[0.5, 0.5]]))
    kl = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    h = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    l_c, l_e, total = d2_loss(lp_hat, lp_til, CFG)
    assert l_c[0] == pytest.approx(kl, abs=1e-12)
    assert l_e[0] == pytest.approx(h, abs=1e-12)
    assert total[0] == pytest.approx(0.1 * kl + 0.03 * h, abs=1e-12)


def test_loss_batched_matches_rowwise():
    rng = seeded_rng(0)
    zh = rng.standard_normal((6, 4))
    zt = rng.standard_normal((6, 4))
    l_c, l_e, total = d2_loss(log_softmax(zh), log_softmax(zt), CFG)
    for i in range(6):
        row_c, _, row_total = d2_loss(log_softmax(zh[i:i + 1]), log_softmax(zt[i:i + 1]), CFG)
        assert l_c[i] == pytest.approx(row_c[0], abs=1e-12)
        assert total[i] == pytest.approx(row_total[0], abs=1e-12)


@pytest.mark.parametrize("variant", CLASSIFICATION_LOSSES)
@given(zh=vec(4), zt=vec(4))
@settings(max_examples=60, deadline=None)
def test_network_gradient_gauge_sum_zero(variant, zh, zt):
    cfg = D2Config(alpha=0.1, beta=0.03, classification_loss=variant)
    g = grad_wrt_network_logits(softmax(zh[None]), log_softmax(zh[None]),
                                log_softmax(zt[None]), cfg, np.empty((1, 4)))
    assert abs(g.sum()) < 1e-10


@pytest.mark.parametrize("variant", CLASSIFICATION_LOSSES)
@given(zh=vec(4), zt=vec(4))
@settings(max_examples=60, deadline=None)
def test_pseudo_gradient_gauge_sum_zero(variant, zh, zt):
    cfg = D2Config(alpha=0.1, beta=0.03, classification_loss=variant)
    g = grad_wrt_pseudo_logits(softmax(zh), softmax(zt), cfg)
    assert abs(g.sum()) < 1e-10


@pytest.mark.parametrize("variant", CLASSIFICATION_LOSSES)
def test_network_gradient_matches_oracle(variant):
    cfg = D2Config(alpha=0.1, beta=0.03, classification_loss=variant)
    rng = seeded_rng(11)
    for _ in range(3):
        zh = rng.standard_normal(5)
        zt = rng.standard_normal(5)

        def loss_of(y):
            return d2_loss(log_softmax(y[None]), log_softmax(zt[None]), cfg)[2][0]

        analytic = grad_wrt_network_logits(
            softmax(zh[None]), log_softmax(zh[None]), log_softmax(zt[None]), cfg,
            np.empty((1, 5)),
        )
        assert gradient_check(loss_of, zh, analytic, step=1e-5) < 1e-6


@pytest.mark.parametrize("variant", CLASSIFICATION_LOSSES)
def test_pseudo_gradient_matches_oracle(variant):
    cfg = D2Config(alpha=0.1, beta=0.03, classification_loss=variant)
    rng = seeded_rng(13)
    for _ in range(3):
        zh = rng.standard_normal(5)
        zt = rng.standard_normal(5)

        def loss_of(y):
            return d2_loss(log_softmax(zh[None]), log_softmax(y[None]), cfg)[2][0]

        analytic = grad_wrt_pseudo_logits(softmax(zh), softmax(zt), cfg)
        assert gradient_check(loss_of, zt, analytic, step=1e-5) < 1e-6


def make_store(n=4, classes=3, frozen_first=True):
    logits = seeded_rng(5).standard_normal((n, classes))
    frozen = np.zeros(n, dtype=bool)
    if frozen_first:
        frozen[0] = True
    return PseudoLabelStore(logits, frozen)


def test_update_frozen_raises():
    store = make_store()
    with pytest.raises(FrozenUpdateError):
        d2_update_pseudo_batch(store, np.array([0]), softmax(np.zeros((1, 3))), CFG,
                               store.probs([0]))
    with pytest.raises(FrozenUpdateError):
        d2_update_pseudo_batch(store, np.array([0, 1]), softmax(np.zeros((2, 3))), CFG,
                               store.probs([0, 1]))


def test_update_moves_toward_prediction():
    store = make_store(frozen_first=False)
    cfg = D2Config(alpha=0.1, beta=0.03, lam=10.0)
    p_hat = softmax(np.array([[3.0, 0.0, 0.0]]))
    before = softmax(store.logits[1])[0]
    d2_update_pseudo_batch(store, np.array([1]), p_hat, cfg, store.probs([1]))
    after = softmax(store.logits[1])[0]
    assert after > before  # pulled toward the sharper prediction


@pytest.mark.parametrize("variant", CLASSIFICATION_LOSSES)
def test_update_conserves_logit_sum(variant):
    # The pseudo-gradient sums to zero, so sum(y) is invariant.  [TRIVIAL]
    cfg = D2Config(alpha=0.1, beta=0.03, lam=1234.5, classification_loss=variant)
    store = make_store(frozen_first=False)
    sums = store.logits.sum(axis=1).copy()
    p_hat = softmax(seeded_rng(6).standard_normal((4, 3)))
    d2_update_pseudo_batch(store, np.arange(4), p_hat, cfg, store.probs(np.arange(4)))
    np.testing.assert_allclose(store.logits.sum(axis=1), sums, atol=1e-9)


def test_residual_hand_computed():
    # t = (a-b) log p_hat_n - a log p_tilde_n - L at n = argmax p_hat  [DERIVED]
    lp_hat = np.log(np.array([[0.75, 0.25]]))
    lp_til = np.log(np.array([[0.5, 0.5]]))
    _, _, total = d2_loss(lp_hat, lp_til, CFG)
    t = convergence_residual(lp_hat, lp_til, total, CFG)
    expected = 0.07 * np.log(0.75) - 0.1 * np.log(0.5) - total[0]
    assert t.shape == (1,)
    assert t[0] == pytest.approx(expected, abs=1e-12)


def test_residual_argmax_tie_lowest_index():
    lp = log_softmax(np.array([[1.0, 1.0, 0.0]]))
    total = d2_loss(lp, lp, CFG)[2]
    t = convergence_residual(lp, lp, total, CFG)
    expected = 0.07 * lp[0, 0] - 0.1 * lp[0, 0] - total[0]
    assert t[0] == pytest.approx(expected, abs=1e-12)


def test_residual_and_exponential_link_are_the_same_identity():
    # For any pair of distributions, p_tilde_n equals
    # exp(-(L + t)/alpha) * p_hat_n^(1 - beta/alpha) exactly; at t = 0
    # this reduces to the exponential link.                 [DERIVED]
    cfg = CFG
    rng = seeded_rng(21)
    for _ in range(10):
        lp_hat = log_softmax(rng.standard_normal((1, 4)))
        lp_til = log_softmax(rng.standard_normal((1, 4)))
        total = d2_loss(lp_hat, lp_til, cfg)[2][0]
        t = convergence_residual(lp_hat, lp_til, total, cfg)[0]
        n = int(np.argmax(lp_hat[0]))
        predicted = np.exp(-(total + t) / cfg.alpha) * np.exp(lp_hat[0, n]) ** (
            1.0 - cfg.beta / cfg.alpha
        )
        assert np.exp(lp_til[0, n]) == pytest.approx(predicted, rel=1e-9)


def test_snapshot_round_trip(tmp_path):
    store = make_store(n=5, classes=4)
    path = tmp_path / "pseudo.d2pl"
    save_snapshot(store, path)
    assert path.read_bytes()[:4] == SNAPSHOT_MAGIC == b"D2PL"
    loaded = load_snapshot(path)
    np.testing.assert_array_equal(loaded.logits, store.logits)
    np.testing.assert_array_equal(loaded.frozen, store.frozen)
    assert loaded.n_classes == store.n_classes


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.d2pl"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_snapshot(path)


# make_store's snapshot: magic 4 bytes, header 12, then 4 records of 33
# bytes (id 8, frozen 1, 3 logits 24), 148 in all.
@pytest.mark.parametrize("cut,message", [
    (9, "truncated snapshot header: 5 of 12 bytes"),
    (-5, "truncated snapshot records: 127 of 132 bytes"),
], ids=["header", "records"])
def test_snapshot_truncated(tmp_path, cut, message):
    store = make_store()
    path = tmp_path / "pseudo.d2pl"
    save_snapshot(store, path)
    blob = path.read_bytes()
    assert len(blob) == 148
    path.write_bytes(blob[:cut])
    with pytest.raises(FormatError) as info:
        load_snapshot(path)
    assert str(info.value) == message


def snapshot_by_records(store, order=None) -> bytes:
    """The record-by-record writer, kept as the byte-level reference."""
    order = range(store.n_samples) if order is None else order
    out = [SNAPSHOT_MAGIC,
           struct.pack("<III", SNAPSHOT_VERSION, store.n_classes, store.n_samples)]
    for i in order:
        out.append(struct.pack("<qB", i, int(store.frozen[i])))
        out.append(np.ascontiguousarray(store.logits[i], dtype="<f8").tobytes())
    return b"".join(out)


@pytest.mark.parametrize("classes", [1, 4])
def test_snapshot_bytes_match_record_writer(tmp_path, classes):
    store = make_store(n=7, classes=classes)
    store.logits[1:6, 0] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    path = tmp_path / "pseudo.d2pl"
    save_snapshot(store, path)
    assert path.read_bytes() == snapshot_by_records(store)
    loaded = load_snapshot(path)
    assert loaded.logits.tobytes() == store.logits.tobytes()
    np.testing.assert_array_equal(loaded.frozen, store.frozen)


def test_snapshot_records_in_any_order(tmp_path):
    store = make_store(n=5, classes=3)
    path = tmp_path / "pseudo.d2pl"
    path.write_bytes(snapshot_by_records(store, order=[3, 0, 4, 2, 1]))
    loaded = load_snapshot(path)
    assert loaded.logits.tobytes() == store.logits.tobytes()
    np.testing.assert_array_equal(loaded.frozen, store.frozen)


def test_snapshot_trailing_bytes(tmp_path):
    store = make_store()
    path = tmp_path / "pseudo.d2pl"
    save_snapshot(store, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_snapshot(path)


def test_snapshot_tail_is_sized_not_read(tmp_path):
    # One record, then 8 MB more: the records' size is checked against the
    # file before anything is read, so the tail is never loaded.
    store = make_store(n=1, classes=3)
    path = tmp_path / "pseudo.d2pl"
    tail = 8 * 2**20
    with open(path, "wb") as fh:
        fh.write(snapshot_by_records(store))
        fh.truncate(fh.tell() + tail)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as info:
            load_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{tail} trailing bytes after the snapshot records"
    assert peak < 2**20


def test_snapshot_duplicate_id(tmp_path):
    store = make_store(n=3, classes=3)
    path = tmp_path / "pseudo.d2pl"
    path.write_bytes(snapshot_by_records(store, order=[0, 1, 0]))
    with pytest.raises(FormatError, match="sample id 0 appears 2 times"):
        load_snapshot(path)


@pytest.mark.parametrize("sid", [-1, 3])
def test_snapshot_id_out_of_range(tmp_path, sid):
    store = make_store(n=3, classes=3)
    blob = bytearray(snapshot_by_records(store))
    blob[16:24] = struct.pack("<q", sid)  # the first record's id
    path = tmp_path / "pseudo.d2pl"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="out of range"):
        load_snapshot(path)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_snapshot_mutated_file_loads_or_raises_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("d2pl") / "pseudo.d2pl"
    save_snapshot(make_store(n=4, classes=3), path)
    blob = bytearray(path.read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
    if kind == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "extend":
        blob += data.draw(st.binary(min_size=1, max_size=40))
    else:
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(blob))
    try:
        load_snapshot(path)
    except FormatError:
        pass


@pytest.mark.parametrize("n_classes", range(2, 8))
@pytest.mark.parametrize("variant", CLASSIFICATION_LOSSES)
def test_loss_and_gradients_bit_equal_on_class_major_inputs(n_classes, variant):
    """The softmax hands out class-major views for fewer than 8 classes;
    every per-sample reduction over them gives the bits it gives on C
    copies, so the loss columns and the updates do not move."""
    cfg = D2Config(alpha=0.1, beta=0.03, classification_loss=variant)
    rng = seeded_rng(n_classes)
    p_hat, p_hat_log = softmax_pair(rng.standard_normal((240, n_classes)) * 6.0)
    # sliced from a 3-D batch, like one batch of the epoch's pseudo-labels
    p_tilde, p_tilde_log = (
        t[1] for t in softmax_pair(rng.standard_normal((2, 240, n_classes)) * 6.0)
    )
    assert not p_hat.flags.c_contiguous and not p_tilde.flags.c_contiguous
    c = np.ascontiguousarray
    for got, want in zip(d2_loss(p_hat_log, p_tilde_log, cfg),
                         d2_loss(c(p_hat_log), c(p_tilde_log), cfg)):
        assert got.tobytes() == want.tobytes()
    got = grad_wrt_network_logits(p_hat, p_hat_log, p_tilde_log, cfg, np.empty(p_hat.shape))
    want = grad_wrt_network_logits(c(p_hat), c(p_hat_log), c(p_tilde_log), cfg,
                                   np.empty(p_hat.shape))
    assert got.tobytes() == want.tobytes()
    got = grad_wrt_pseudo_logits(p_hat, p_tilde, cfg)
    want = grad_wrt_pseudo_logits(c(p_hat), c(p_tilde), cfg)
    assert got.tobytes() == want.tobytes()
