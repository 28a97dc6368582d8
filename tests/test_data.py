import io
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import whole_matrix_oracles as whole
from resom import data as data_mod
from resom.association import LateralSynapses, load_synapses, save_synapses
from resom.data import (
    DataFormatError,
    FeatureMatrix,
    class_count,
    load_features,
    load_idx,
    load_idx_labels,
    load_rsm1,
    nonfinite_rows,
    normalize_minmax,
    opened,
    pair_by_class,
    save_rsm1,
    standardize_then_minmax,
)
from resom.experiments import write_metrics
from resom.som import SomGrid, load_som, save_som
from scalar_oracles import same_bits


def idx_image_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x803, n, rows, cols) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x801, labels.size) + labels.tobytes()


class TestIdx:
    def test_pixel_scaling(self, tmp_path):
        img = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
        path = tmp_path / "img.idx"
        path.write_bytes(idx_image_bytes(img))
        m = load_idx(path)
        assert m.values.shape == (1, 4)
        np.testing.assert_allclose(m.values, [[0.0, 1.0, 128 / 255, 64 / 255]])

    def test_all_zero_image(self, tmp_path):
        path = tmp_path / "img.idx"
        path.write_bytes(idx_image_bytes(np.zeros((1, 28, 28), dtype=np.uint8)))
        m = load_idx(path)
        assert m.values.shape == (1, 784)
        assert not m.values.any()

    def test_labels_attach(self, tmp_path):
        imgs = tmp_path / "i.idx"
        labs = tmp_path / "l.idx"
        imgs.write_bytes(idx_image_bytes(np.zeros((3, 2, 2), dtype=np.uint8)))
        labs.write_bytes(idx_label_bytes([1, 0, 2]))
        m = load_idx(imgs, labs)
        assert m.labels.tolist() == [1, 0, 2]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 1, 1) + b"\x00")
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(path)

    def test_images_without_pixels(self, tmp_path):
        # 16 bytes announcing 2^32 - 1 images of 0x0 pixels
        path = tmp_path / "empty.idx"
        path.write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0, 0))
        with pytest.raises(DataFormatError, match="no pixels"):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 3)
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(path)

    def test_count_mismatch(self, tmp_path):
        imgs = tmp_path / "i.idx"
        labs = tmp_path / "l.idx"
        imgs.write_bytes(idx_image_bytes(np.zeros((3, 2, 2), dtype=np.uint8)))
        labs.write_bytes(idx_label_bytes([0, 1]))
        with pytest.raises(DataFormatError, match="mismatch"):
            load_idx(imgs, labs)

    def test_label_file_magic(self, tmp_path):
        path = tmp_path / "l.idx"
        path.write_bytes(struct.pack(">II", 0x803, 0))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx_labels(path)


class TestRsm1:
    @settings(max_examples=30, deadline=None)
    @given(
        values=hnp.arrays(
            dtype=np.float32,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.floats(-1e6, 1e6, width=32),
        ),
        data=st.data(),
    )
    def test_roundtrip_bit_exact(self, tmp_path_factory, values, data):
        labels = data.draw(
            hnp.arrays(np.int64, values.shape[0], elements=st.integers(0, 50))
        )
        path = tmp_path_factory.mktemp("rsm1") / "m.rsm1"
        m = FeatureMatrix(values, labels)
        save_rsm1(m, path)
        back = load_rsm1(path)
        assert np.array_equal(m.values, back.values)
        assert np.array_equal(m.labels, back.labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rsm1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataFormatError, match="magic"):
            load_rsm1(path)

    def test_sniffing(self, tmp_path):
        m = FeatureMatrix(np.ones((2, 3), dtype=np.float32), [0, 1])
        rsm = tmp_path / "m.rsm1"
        save_rsm1(m, rsm)
        assert np.array_equal(load_features(rsm).values, m.values)
        idx = tmp_path / "m.idx"
        idx.write_bytes(idx_image_bytes(np.zeros((1, 2, 2), dtype=np.uint8)))
        assert load_features(idx).values.shape == (1, 4)


    @settings(max_examples=30, deadline=None)
    @given(values=hnp.arrays(np.float32, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                             elements=st.floats(-1e6, 1e6, width=32)),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    def test_non_finite_cell_is_a_data_error(self, tmp_path_factory, values, bad, data):
        row = data.draw(st.integers(0, values.shape[0] - 1))
        values[row, data.draw(st.integers(0, values.shape[1] - 1))] = bad
        path = tmp_path_factory.mktemp("rsm1") / "m.rsm1"
        save_rsm1(FeatureMatrix(values, np.zeros(values.shape[0], dtype=np.int64)), path)
        with pytest.raises(DataFormatError, match=f"m.rsm1: row {row} holds a non-finite"):
            load_features(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_nonfinite_rows_equal_the_exact_row_mask(dtype, data):
    # Rows of huge finite values overflow a float64 row sum; they are finite.
    huge = 1e308 if dtype is np.float64 else float(np.finfo(np.float32).max)
    special = st.sampled_from([huge, -huge, np.nan, np.inf, -np.inf])
    values = data.draw(hnp.arrays(
        dtype, st.tuples(st.integers(0, 6), st.integers(0, 6)),
        elements=st.one_of(st.floats(width=np.dtype(dtype).itemsize * 8), special),
    ))
    want = np.flatnonzero(~np.isfinite(values).all(axis=1))
    assert np.array_equal(nonfinite_rows(values), want)


def assert_every_prefix_is_a_data_error(blob: bytes, load, path=None) -> None:
    """Each proper prefix of ``blob`` is a DataFormatError; its message names
    ``path``, the file ``load`` reads it from, unless that is None."""
    for cut in range(len(blob)):
        with pytest.raises(DataFormatError) as refused:
            load(blob[:cut])
        assert path is None or str(refused.value).startswith(f"{path}: ")


def load_via_file(path, reader):
    def load(blob):
        path.write_bytes(blob)
        return reader(path)

    return load


small_sides = st.integers(0, 4)
f32_values = st.floats(-1e6, 1e6, width=32)


class TestCodecFuzz:
    """Round trip and prefix truncation of IDX, RSM1, RSOM and RLAT: a
    well-formed file decodes to what was encoded, and every proper prefix of
    it is a DataFormatError (CLI exit 3), never a traceback or a short read."""

    @settings(max_examples=25, deadline=None)
    @given(images=hnp.arrays(np.uint8, st.tuples(small_sides, st.integers(1, 4), st.integers(1, 4))),
           data=st.data())
    def test_idx(self, tmp_path_factory, images, data):
        labels = data.draw(hnp.arrays(np.uint8, images.shape[0]))
        tmp = tmp_path_factory.mktemp("idx")
        (tmp / "i.idx").write_bytes(idx_image_bytes(images))
        (tmp / "l.idx").write_bytes(idx_label_bytes(labels))
        m = load_idx(tmp / "i.idx", tmp / "l.idx")
        flat = images.reshape(images.shape[0], images.shape[1] * images.shape[2])
        assert np.array_equal(m.values, flat.astype(np.float32) / np.float32(255.0))
        assert np.array_equal(m.labels, labels)
        cut = tmp / "cut"
        assert_every_prefix_is_a_data_error(
            idx_image_bytes(images), load_via_file(cut, load_idx), cut
        )
        assert_every_prefix_is_a_data_error(
            idx_label_bytes(labels), load_via_file(cut, load_idx_labels), cut
        )

    @settings(max_examples=25, deadline=None)
    @given(values=hnp.arrays(np.float32, st.tuples(small_sides, small_sides), elements=f32_values),
           data=st.data())
    def test_rsm1(self, tmp_path_factory, values, data):
        labels = data.draw(hnp.arrays(np.int64, values.shape[0], elements=st.integers(0, 0xFFFF)))
        tmp = tmp_path_factory.mktemp("rsm1")
        save_rsm1(FeatureMatrix(values, labels), tmp / "m.rsm1")
        back = load_rsm1(tmp / "m.rsm1")
        assert np.array_equal(back.values, values) and np.array_equal(back.labels, labels)
        blob = (tmp / "m.rsm1").read_bytes()
        cut = tmp / "cut"
        assert_every_prefix_is_a_data_error(blob, load_via_file(cut, load_rsm1), cut)

    @settings(max_examples=25, deadline=None)
    @given(width=st.integers(1, 3), height=st.integers(1, 3), dim=st.integers(1, 4),
           labeled=st.booleans(), data=st.data())
    def test_rsom(self, width, height, dim, labeled, data):
        k = width * height
        weights = data.draw(hnp.arrays(np.float32, (k, dim), elements=f32_values))
        labels = data.draw(hnp.arrays(np.int64, k, elements=st.integers(0, 0xFFFF)))
        grid = SomGrid(width, height, weights, labels if labeled else None)
        buf = io.BytesIO()
        save_som(grid, buf)
        back = load_som(io.BytesIO(buf.getvalue()))
        assert (back.width, back.height) == (width, height)
        assert np.array_equal(back.weights, grid.weights)
        assert (back.labels is None) == (not labeled)
        if labeled:
            assert np.array_equal(back.labels, labels)
        assert_every_prefix_is_a_data_error(buf.getvalue(), lambda b: load_som(io.BytesIO(b)))

    @settings(max_examples=25, deadline=None)
    @given(n_source=st.integers(1, 5), n_target=st.integers(1, 5),
           tag=st.text("XYAB", min_size=2, max_size=2), data=st.data())
    def test_rlat(self, n_source, n_target, tag, data):
        syn = LateralSynapses.empty(n_source, n_target)
        syn.exists[:] = data.draw(hnp.arrays(bool, (n_source, n_target)))
        syn.weights[syn.exists] = data.draw(
            hnp.arrays(np.float32, syn.n_synapses, elements=f32_values)
        )
        buf = io.BytesIO()
        save_synapses(syn, buf, tag)
        back, direction = load_synapses(io.BytesIO(buf.getvalue()))
        assert direction == tag
        assert np.array_equal(back.exists, syn.exists)
        assert np.array_equal(back.weights, syn.weights)
        assert_every_prefix_is_a_data_error(
            buf.getvalue(), lambda b: load_synapses(io.BytesIO(b))
        )


class TestOpened:
    def test_open_file_is_passed_through_and_left_open(self):
        buf = io.BytesIO()
        with opened(buf, "wb") as f:
            assert f is buf
        assert not buf.closed

    def test_path_is_opened_and_closed(self, tmp_path):
        with opened(tmp_path / "a.bin", "wb") as f:
            f.write(b"abc")
        assert f.closed
        with opened(tmp_path / "a.bin", "rb") as f:
            assert f.read() == b"abc"
        assert f.closed

    def test_a_raising_block_leaves_the_earlier_file_and_no_temp(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("earlier")
        with pytest.raises(RuntimeError), opened(path, "w") as f:
            f.write("later")
            raise RuntimeError
        assert path.read_text() == "earlier"
        assert list(tmp_path.iterdir()) == [path]

    def test_a_written_path_gets_the_mode_bits_of_open(self, tmp_path):
        umask = os.umask(0o022)  # mkstemp's files would be 0600, not 0644
        try:
            with open(tmp_path / "plain", "w"):
                pass
            with opened(tmp_path / "committed", "w"):
                pass
        finally:
            os.umask(umask)
        mode = (tmp_path / "plain").stat().st_mode
        assert (tmp_path / "committed").stat().st_mode == mode == 0o100644

    @pytest.mark.parametrize("save, obj, text", [
        (save_som, SomGrid(2, 1, np.eye(2), np.array([0, 1])), False),
        (save_synapses, LateralSynapses.empty(2, 3), False),
        (save_rsm1, FeatureMatrix(np.eye(2), [0, 1]), False),
        (write_metrics, {"b": 2, "a": 0.5}, True),
    ], ids=["rsom", "rlat", "rsm1", "metrics"])
    def test_writers_give_the_same_bytes_to_a_path_and_a_file(self, tmp_path, save, obj, text):
        buf = io.StringIO() if text else io.BytesIO()
        save(obj, buf)
        save(obj, tmp_path / "out")
        written = (tmp_path / "out").read_text() if text else (tmp_path / "out").read_bytes()
        assert written == buf.getvalue()


def two_synapses() -> LateralSynapses:
    syn = LateralSynapses.empty(3, 2)
    syn.exists[2, 0] = syn.exists[0, 1] = True
    syn.weights[2, 0], syn.weights[0, 1] = -1.25, 0.5
    return syn


# Each writer's output, and the same layout packed by hand as the README
# "File formats" section gives it.  A change made to a writer and its reader
# alike passes every round trip; it fails here.
LAYOUTS = {
    "rsm1": (
        lambda f: save_rsm1(FeatureMatrix([[1.5, -2.0], [0.25, 3.0]], [7, 0]), f),
        b"RSM1" + struct.pack("<II4f2H", 2, 2, 1.5, -2.0, 0.25, 3.0, 7, 0),
    ),
    "rsom": (
        lambda f: save_som(SomGrid(2, 1, [[0.5, 1.0], [2.0, -1.0]]), f),
        b"RSOM" + struct.pack("<IIIB4f", 2, 1, 2, 0, 0.5, 1.0, 2.0, -1.0),
    ),
    "rsom-labeled": (
        lambda f: save_som(SomGrid(2, 1, [[0.5, 1.0], [2.0, -1.0]], [3, 65535]), f),
        b"RSOM" + struct.pack("<IIIB4f2H", 2, 1, 2, 1, 0.5, 1.0, 2.0, -1.0, 3, 65535),
    ),
    "rlat": (
        lambda f: save_synapses(two_synapses(), f, "YX"),
        b"RLATYX" + struct.pack("<III", 3, 2, 2)
        + struct.pack("<HHf", 0, 1, 0.5) + struct.pack("<HHf", 2, 0, -1.25),
    ),
}


@pytest.mark.parametrize("name", LAYOUTS)
def test_writer_bytes_follow_the_documented_layout(name):
    write, expected = LAYOUTS[name]
    buf = io.BytesIO()
    write(buf)
    assert buf.getvalue() == expected


@pytest.mark.parametrize("name, reader", [("rsom", load_som), ("rlat", load_synapses)])
def test_every_prefix_of_a_file_names_the_file(tmp_path, name, reader):
    path = tmp_path / f"cut.{name}"
    assert_every_prefix_is_a_data_error(LAYOUTS[name][1], load_via_file(path, reader), path)


@pytest.mark.parametrize("blob, reader, message", [
    (b"RSM2", load_rsm1, "bad magic"),
    (b"\x00\x00\x08\x03" + struct.pack(">III", 1, 0, 3), load_idx, "IDX images of 0x3"),
    (b"RSOM" + struct.pack("<IIIB", 0, 1, 2, 0), load_som, "checkpoint holds no weights"),
    (b"RLAT" + struct.pack("<2sIII", b"\xff\xff", 1, 1, 0), load_synapses, "direction tag"),
    (b"", load_features, "truncated payload"),
], ids=["magic", "idx-layout", "rsom-layout", "rlat-layout", "load-features"])
def test_a_refused_header_names_the_file(tmp_path, blob, reader, message):
    path = tmp_path / "refused"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError) as refused:
        reader(path)
    assert str(refused.value).startswith(f"{path}: ") and message in str(refused.value)


def test_an_in_memory_file_is_not_named():
    with pytest.raises(DataFormatError) as refused:
        load_rsm1(io.BytesIO())
    assert str(refused.value) == "truncated payload: wanted 4 bytes, 0 left"


class TestNormalization:
    def test_standardize_then_minmax_column(self):
        # z-scores of {1,2,3} with population std sqrt(2/3): +/- sqrt(3/2)
        train = FeatureMatrix(np.array([[1.0], [2.0], [3.0]]), [0, 0, 0])
        test = FeatureMatrix(np.array([[2.0], [9.0]]), [0, 0])
        z = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.std([1.0, 2.0, 3.0])
        np.testing.assert_allclose(z, [-1.2247, 0.0, 1.2247], atol=1e-4)
        tr, te = standardize_then_minmax(train, test)
        np.testing.assert_allclose(tr.values.ravel(), [0.0, 0.5, 1.0], atol=1e-7)
        np.testing.assert_allclose(te.values.ravel(), [0.5, 1.0], atol=1e-7)  # clamped

    def test_constant_column_maps_to_zero(self):
        train = FeatureMatrix(np.full((3, 2), 5.0), [0, 0, 0])
        test = FeatureMatrix(np.full((2, 2), 7.0), [0, 0])
        tr, te = standardize_then_minmax(train, test)
        assert not tr.values.any()
        assert not te.values.any()

    def test_minmax_range_and_clamp(self):
        train = FeatureMatrix(np.array([[0.0, 10.0], [4.0, 30.0]]), [0, 1])
        test = FeatureMatrix(np.array([[-2.0, 40.0]]), [0])
        tr, te = normalize_minmax(train, test)
        assert tr.values.min() == 0.0 and tr.values.max() == 1.0
        np.testing.assert_allclose(te.values, [[0.0, 1.0]])

    @settings(max_examples=50, deadline=None)
    @given(
        values=hnp.arrays(
            dtype=np.float32,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=10),
            elements=st.floats(-100, 100, width=32),
        )
    )
    def test_minmax_idempotent(self, values):
        m = FeatureMatrix(values, np.zeros(values.shape[0]))
        once, _ = normalize_minmax(m, m)
        twice, _ = normalize_minmax(once, once)
        np.testing.assert_allclose(once.values, twice.values, atol=1e-12)
        assert once.values.min() >= 0.0 and once.values.max() <= 1.0


    @pytest.mark.parametrize("normalize", ["normalize_minmax", "standardize_then_minmax"])
    def test_blocks_of_seven_equal_the_whole_matrix(self, monkeypatch, normalize):
        # 60 training and 25 test rows in blocks of 7 end in a short block.
        # Column 1 is constant (zero range, zero variance) and column 2 takes
        # two values; the test rows leave the training range, so the clamp runs.
        rng = np.random.default_rng(21)
        train_values = rng.normal(size=(60, 4)).astype(np.float32)
        train_values[:, 1] = 0.25
        train_values[:, 2] = np.where(np.arange(60) % 2, 1.5, -2.0)
        train = FeatureMatrix(train_values, np.zeros(60))
        test = FeatureMatrix(3 * rng.normal(size=(25, 4)).astype(np.float32), np.ones(25))
        monkeypatch.setattr(data_mod, "SAMPLE_BLOCK", 7)
        got = getattr(data_mod, normalize)(train, test)
        want = getattr(whole, normalize)(train, test)
        for g, w in zip(got, want):
            assert same_bits(g.values, w.values)
            assert np.array_equal(g.labels, w.labels)
        assert not got[1].values[:, 1].any()

    @pytest.mark.parametrize("normalize, bound", [
        ("normalize_minmax", 2.0),  # a whole-matrix float64 cast peaked at 4.0x
        ("standardize_then_minmax", 3.0),  # at 5.0x
    ])
    def test_casts_one_sample_block_at_a_time(self, normalize, bound):
        rng = np.random.default_rng(22)
        train = FeatureMatrix(rng.random((100, 784), dtype=np.float32), np.zeros(100))
        test = FeatureMatrix(rng.random((20_000, 784), dtype=np.float32), np.zeros(20_000))
        tracemalloc.start()
        try:
            getattr(data_mod, normalize)(train, test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * test.values.nbytes


class TestClassCount:
    def test_one_plus_the_largest_class_any_array_names(self):
        # A class of one array alone counts; an empty array names none.
        empty = np.zeros(0, dtype=np.int64)
        assert class_count(np.array([0, 1, 1]), empty, np.array([3])) == 4
        assert class_count(np.full(6, 5)) == 6  # six labels may name six classes

    def test_more_classes_than_labels_is_a_stray_label(self):
        # 1 + 40 000 rows of confusion: 11.9 GiB, asked for after training.
        with pytest.raises(DataFormatError,
                           match="labels name class 40000: 40001 classes, 3 labels"):
            class_count(np.array([0, 1]), np.array([40000]))
        with pytest.raises(DataFormatError, match="labels name class 6: 7 classes, 6 labels"):
            class_count(np.full(6, 6))


class TestPairing:
    def make(self, labels_x, labels_y):
        x = FeatureMatrix(np.arange(len(labels_x), dtype=float)[:, None], labels_x)
        y = FeatureMatrix(np.arange(len(labels_y), dtype=float)[:, None] + 100, labels_y)
        return x, y

    def test_label_consistency(self):
        x, y = self.make([0, 1, 0, 1, 1], [1, 0, 0, 1])
        pairs = pair_by_class(x, y, seed=3)
        assert np.array_equal(pairs.x.labels, pairs.y.labels[pairs.pairing])

    def test_equal_counts_bijection(self):
        x, y = self.make([0, 1, 0, 1], [1, 0, 1, 0])
        pairs = pair_by_class(x, y, seed=0)
        assert sorted(pairs.pairing.tolist()) == [0, 1, 2, 3]

    def test_reuse_covers_every_y_row(self):
        # 60 x-rows of class 7 against 35 y-rows: each y-row used at least once
        x, y = self.make([7] * 60, [7] * 35)
        pairs = pair_by_class(x, y, seed=1)
        assert pairs.pairing.size == 60
        assert set(pairs.pairing.tolist()) == set(range(35))

    def test_deterministic(self):
        x, y = self.make([0, 1] * 30, [0] * 10 + [1] * 10)
        a = pair_by_class(x, y, seed=9).pairing
        b = pair_by_class(x, y, seed=9).pairing
        assert np.array_equal(a, b)

    def test_missing_class(self):
        x, y = self.make([0, 1], [0, 0])
        with pytest.raises(DataFormatError, match="class 1 present in x but absent in y"):
            pair_by_class(x, y, seed=0)

    @pytest.mark.parametrize("n_x, n_y", [(0, 2), (2, 0), (0, 0)])
    def test_no_rows_is_a_data_error(self, n_x, n_y):
        x, y = self.make([0] * n_x, [0] * n_y)
        with pytest.raises(DataFormatError, match="no rows to pair"):
            pair_by_class(x, y, seed=0)
