"""Dataset loading, the binary codec of all four file formats, normalization
and multimodal pairing.  ``load_features`` is the one way feature files
enter, and ``nonfinite_rows`` the one non-finite rule, which training shares.

Feature matrices are stored as float32 (the on-disk precision of the RSM1
cache format) with integer class labels.  All normalization statistics come
from the training split only; the test split is clamped to [0, 1] so the
Gaussian activity kernel downstream stays in (0, 1].
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

IDX_IMAGES_MAGIC = b"\x00\x00\x08\x03"
IDX_LABELS_MAGIC = b"\x00\x00\x08\x01"
RSM1_MAGIC = b"RSM1"


class DataFormatError(ValueError):
    """Malformed or unusable input data (bad magic, truncation, count
    mismatch, a non-finite feature, no rows to pair, a broken record file)."""


@dataclass
class FeatureMatrix:
    """Row-per-sample features with optional class labels in [0, n_classes)."""

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.values.shape[0],):
                raise ValueError("one label per row required")
            if self.labels.size and self.labels.min() < 0:
                raise ValueError("labels must be non-negative")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise ValueError("matrix carries no labels")
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def take(self, rows: np.ndarray) -> "FeatureMatrix":
        labels = None if self.labels is None else self.labels[rows]
        return FeatureMatrix(self.values[rows], labels)


@dataclass
class PairedDataset:
    """Two modalities with a row map: y-row ``pairing[i]`` accompanies x-row i."""

    x: FeatureMatrix
    y: FeatureMatrix
    pairing: np.ndarray

    def __post_init__(self):
        self.pairing = np.ascontiguousarray(self.pairing, dtype=np.int64)
        if self.pairing.shape != (self.x.n_samples,):
            raise ValueError("need exactly one y-partner per x-row")
        if self.x.labels is None or self.y.labels is None:
            raise ValueError("pairing requires labeled modalities")
        if not np.array_equal(self.x.labels, self.y.labels[self.pairing]):
            raise ValueError("paired rows must share the same class label")

    @property
    def n_samples(self) -> int:
        return self.x.n_samples

    @property
    def y_values(self) -> np.ndarray:
        """y features aligned to x rows."""
        return self.y.values[self.pairing]


def class_count(*labels: np.ndarray) -> int:
    """The confusion's row count: 1 + the largest class any of ``labels``
    names.  Callers pass the test rows' labels and the map labels (or the
    label subsets they come from), so a class of one modality alone counts.
    A count above the number of labels leaves classes that no label names,
    the mark of a stray label: a DataFormatError, before any confusion."""
    count = max(int(a.max()) + 1 for a in labels if a.size)
    n_labels = sum(a.size for a in labels)
    if count > n_labels:
        raise DataFormatError(f"labels name class {count - 1}: {count} classes, {n_labels} labels")
    return count


def opened(path_or_file, mode: str, newline=None):
    """A context manager over ``path_or_file``: an open file (or None) is used
    as is and left open; a path is opened in ``mode``.  To write, the block
    gets a new temp file beside the path, which replaces the path when the
    block ends and is removed when it raises: whole or not at all."""
    if path_or_file is None or hasattr(path_or_file, "write" if "w" in mode else "read"):
        return contextlib.nullcontext(path_or_file)
    if "w" not in mode:
        return open(path_or_file, mode)
    return _committed(path_or_file, mode.replace("w", "x"), newline)


@contextlib.contextmanager
def _committed(path, mode: str, newline):
    if os.path.isdir(path):  # else found only by the os.replace after the work
        raise IsADirectoryError(f"Is a directory: {str(path)!r}")
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        f = open(tmp, mode, newline=newline)  # open's umask permissions, unlike mkstemp's 0600
    except OSError as e:  # told as the output's error, not the temp's
        raise OSError(e.errno, e.strerror, str(path)) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Binary codec: magic | struct header | arrays, for IDX, RSM1, RSOM and RLAT
# ---------------------------------------------------------------------------

def _read_exact(f, n: int) -> bytes:
    """Exactly ``n`` bytes of ``f``; a seekable file is checked for them first."""
    if f.seekable():
        here = f.tell()
        left = f.seek(0, io.SEEK_END) - here
        f.seek(here)
        if n > left:
            raise DataFormatError(f"truncated payload: wanted {n} bytes, {left} left")
    data = f.read(n)
    if len(data) != n:
        raise DataFormatError(f"truncated payload: wanted {n} bytes, got {len(data)}")
    return data


def write_binary(path_or_file, magic: bytes, header: str, fields, arrays) -> None:
    """Write ``magic | struct.pack(header, *fields)``, then each (dtype, array)
    pair of ``arrays`` row-major in that dtype.  Unsigned arrays out of their
    dtype's range are refused before the file is opened: nothing wraps around."""
    for dtype, a in arrays:
        if np.dtype(dtype).kind == "u" and a.size:
            info = np.iinfo(dtype)
            if a.min() < 0 or a.max() > info.max:
                raise ValueError(f"values outside the u{info.bits} range [0, {info.max}]")
    with opened(path_or_file, "wb") as f:
        f.write(magic + struct.pack(header, *fields))
        for dtype, a in arrays:
            # A tobytes() copy, not the array's buffer: freeing it raises glibc's mmap
            # threshold; without it the digits-sweep set-up peaked at 246, not 239 MB.
            f.write(np.ascontiguousarray(a, dtype=dtype).tobytes())


def encoded(save, value) -> bytes:
    """The bytes ``save(value, file)`` writes: a stage's one encoding."""
    buf = io.BytesIO()
    save(value, buf)
    return buf.getvalue()


def read_binary(path_or_file, magic: bytes, header: str, layout) -> tuple[tuple, list]:
    """``(header fields, arrays)`` of a file ``write_binary`` wrote.  After the
    magic and the ``struct`` header, ``layout(*fields)`` lists the arrays as
    (dtype, count) pairs or refuses the header with DataFormatError.  The
    arrays are read-only views of one exact read, so a short file or an
    oversize header is a DataFormatError before any array is allocated; its
    message starts with the file's name when the file has one."""
    with opened(path_or_file, "rb") as f:
        try:
            got = _read_exact(f, len(magic))
            if got != magic:
                raise DataFormatError(f"bad magic {got!r}, expected {magic!r}")
            fields = struct.unpack(header, _read_exact(f, struct.calcsize(header)))
            shapes = [(np.dtype(dtype), count) for dtype, count in layout(*fields)]
            sizes = [dtype.itemsize * count for dtype, count in shapes]
            payload = _read_exact(f, sum(sizes))
        except DataFormatError as e:
            if getattr(f, "name", None) is None:  # an in-memory file
                raise
            raise DataFormatError(f"{f.name}: {e}") from None
    starts = accumulate(sizes, initial=0)
    return fields, [np.frombuffer(payload, dt, n, at) for (dt, n), at in zip(shapes, starts)]


# IDX, the big-endian MNIST distribution format.

def load_idx_labels(path_or_file) -> np.ndarray:
    _, (labels,) = read_binary(path_or_file, IDX_LABELS_MAGIC, ">I", lambda n: [("u1", n)])
    return labels.astype(np.int64)


def _idx_pixels(count: int, rows: int, cols: int) -> list:
    if rows * cols == 0:
        raise DataFormatError(f"IDX images of {rows}x{cols} hold no pixels")
    return [("u1", count * rows * cols)]


def load_idx(path_or_file, labels_path=None) -> FeatureMatrix:
    """Load an IDX image file, flattened row-major and scaled to [0, 1].

    With ``labels_path`` the label file is attached; counts must match.
    """
    (count, rows, cols), (pixels,) = read_binary(
        path_or_file, IDX_IMAGES_MAGIC, ">III", _idx_pixels
    )
    values = pixels.reshape(count, rows * cols).astype(np.float32) / np.float32(255.0)
    labels = None
    if labels_path is not None:
        labels = load_idx_labels(labels_path)
        if labels.shape[0] != count:
            images = getattr(path_or_file, "name", path_or_file)
            raise DataFormatError(f"{images}: image/label count mismatch: {count} images, "
                                  f"{labels.shape[0]} labels in {labels_path}")
    return FeatureMatrix(values, labels)


# RSM1, the little-endian cache for features prepared offline.

def save_rsm1(matrix: FeatureMatrix, path_or_file) -> None:
    if matrix.labels is None:
        raise ValueError("RSM1 stores labeled matrices")
    write_binary(path_or_file, RSM1_MAGIC, "<II", matrix.values.shape,
                 [("<f4", matrix.values), ("<u2", matrix.labels)])


def load_rsm1(path_or_file) -> FeatureMatrix:
    (rows, cols), (values, labels) = read_binary(
        path_or_file, RSM1_MAGIC, "<II", lambda rows, cols: [("<f4", rows * cols), ("<u2", rows)]
    )
    return FeatureMatrix(values.reshape(rows, cols), labels.astype(np.int64))


def nonfinite_rows(values: np.ndarray) -> np.ndarray:
    """Indices of the rows of 2-D ``values`` that hold a NaN or an infinity,
    with no n x d mask: a row with a finite float64 sum is finite, and only
    the others (an overflowing sum of huge values, too) are checked by value."""
    with np.errstate(over="ignore", invalid="ignore"):  # such sums only flag their row
        suspects = np.flatnonzero(~np.isfinite(values.sum(axis=1, dtype=np.float64)))
    return suspects[~np.isfinite(values[suspects]).all(axis=1)]


def load_features(path, labels_path=None, n_features=None) -> FeatureMatrix:
    """Load a feature file, sniffing RSM1 vs IDX by magic.  A labels file
    given with an RSM1 file, which holds its own labels, is a ValueError.
    A file of no rows or no features, rows of another width than
    ``n_features`` (when given), then a non-finite value, are a
    DataFormatError naming the file (and the first row holding one)."""
    with open(path, "rb") as f:
        rsm1 = f.read(len(RSM1_MAGIC)) == RSM1_MAGIC
        if rsm1 and labels_path is not None:
            raise ValueError(f"{path} is an RSM1 file, which holds its own labels; "
                             f"the labels file {labels_path} would be ignored")
        f.seek(0)
        data = load_rsm1(f) if rsm1 else load_idx(f, labels_path)
    if not data.n_samples or not data.n_features:
        raise DataFormatError(f"{path}: holds {data.n_samples} rows of {data.n_features} features")
    if n_features is not None and data.n_features != n_features:
        raise DataFormatError(
            f"{path}: rows have {data.n_features} features, the map takes {n_features}"
        )
    bad = nonfinite_rows(data.values)
    if bad.size:
        raise DataFormatError(f"{path}: row {bad[0]} holds a non-finite value")
    return data


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize_minmax(
    train: FeatureMatrix, test: FeatureMatrix
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Per-feature min-max rescale to [0, 1] with train-split statistics.

    Zero-range features map to 0.  Test values are clamped to [0, 1].
    """
    x = train.values.astype(np.float64)
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)

    def apply(m: FeatureMatrix, clamp: bool) -> FeatureMatrix:
        out = (m.values.astype(np.float64) - lo) / safe
        out[:, span == 0] = 0.0
        if clamp:
            np.clip(out, 0.0, 1.0, out=out)
        return FeatureMatrix(out.astype(np.float32), m.labels)

    return apply(train, clamp=False), apply(test, clamp=True)


def standardize_then_minmax(
    train: FeatureMatrix, test: FeatureMatrix
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Z-score per feature (train statistics, population std) then min-max.

    Zero-variance features map to 0 in both splits.
    """
    x = train.values.astype(np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    safe_std = np.where(std > 0, std, 1.0)

    def zscore(m: FeatureMatrix) -> FeatureMatrix:
        z = (m.values.astype(np.float64) - mean) / safe_std
        z[:, std == 0] = 0.0
        return FeatureMatrix(z.astype(np.float32), m.labels)

    return normalize_minmax(zscore(train), zscore(test))


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def pair_by_class(x: FeatureMatrix, y: FeatureMatrix, seed: int) -> PairedDataset:
    """Pair every x-row with a same-class y-row, deterministically from seed.

    When a class has fewer y-rows than x-rows, each y-row is used at least
    once and the remainder is drawn uniformly with replacement.
    """
    if x.labels is None or y.labels is None:
        raise ValueError("both modalities must be labeled")
    if x.n_samples == 0 or y.n_samples == 0:
        raise DataFormatError(f"no rows to pair: x has {x.n_samples}, y has {y.n_samples}")
    rng = np.random.default_rng(seed)
    pairing = np.full(x.n_samples, -1, dtype=np.int64)
    for c in np.unique(x.labels):
        xi = np.flatnonzero(x.labels == c)
        yi = np.flatnonzero(y.labels == c)
        if yi.size == 0:
            raise DataFormatError(f"class {c} present in x but absent in y")
        if yi.size >= xi.size:
            chosen = rng.permutation(yi)[: xi.size]
        else:
            extra = rng.choice(yi, size=xi.size - yi.size, replace=True)
            chosen = rng.permutation(np.concatenate([rng.permutation(yi), extra]))
        pairing[xi] = chosen
    return PairedDataset(x, y, pairing)
