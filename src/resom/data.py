"""Dataset loading, normalization and multimodal pairing.

Feature matrices are stored as float32 (the on-disk precision of the RSM1
cache format) with integer class labels.  All normalization statistics come
from the training split only; the test split is clamped to [0, 1] so the
Gaussian activity kernel downstream stays in (0, 1].
"""

from __future__ import annotations

import contextlib
import io
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
RSM1_MAGIC = b"RSM1"


class DataFormatError(ValueError):
    """Malformed IDX or RSM1 payload (bad magic, truncation, count mismatch)."""


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

    def take(self, rows: np.ndarray) -> "PairedDataset":
        # Re-indexing keeps the alignment: row i of the result pairs x[rows[i]]
        # with its original partner.
        x = self.x.take(rows)
        y = self.y.take(self.pairing[rows])
        return PairedDataset(x, y, np.arange(len(rows)))


def opened(path_or_file, mode: str):
    """A context manager over ``path_or_file``: a path is opened in ``mode``
    and closed on exit; an open file is used as is and left open."""
    if hasattr(path_or_file, "write" if "w" in mode else "read"):
        return contextlib.nullcontext(path_or_file)
    return open(path_or_file, mode)


# ---------------------------------------------------------------------------
# IDX (big-endian MNIST distribution format)
# ---------------------------------------------------------------------------

def _read_exact(f, n: int) -> bytes:
    """Exactly ``n`` bytes of ``f``.  A seekable file is checked against the
    bytes it has left before reading, so a header announcing more than the
    file holds allocates nothing."""
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


def _read_be_u32(f) -> int:
    return struct.unpack(">I", _read_exact(f, 4))[0]


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = _read_be_u32(f)
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(f"bad IDX label magic 0x{magic:08x}")
        count = _read_be_u32(f)
        raw = _read_exact(f, count)
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_idx(path, labels_path=None) -> FeatureMatrix:
    """Load an IDX image file, flattened row-major and scaled to [0, 1].

    With ``labels_path`` the label file is attached; counts must match.
    """
    with open(path, "rb") as f:
        magic = _read_be_u32(f)
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(f"bad IDX image magic 0x{magic:08x}")
        count = _read_be_u32(f)
        rows = _read_be_u32(f)
        cols = _read_be_u32(f)
        if rows * cols == 0:
            raise DataFormatError(f"IDX images of {rows}x{cols} hold no pixels")
        raw = _read_exact(f, count * rows * cols)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    values = pixels.astype(np.float32) / np.float32(255.0)
    labels = None
    if labels_path is not None:
        labels = load_idx_labels(labels_path)
        if labels.shape[0] != count:
            raise DataFormatError(
                f"image/label count mismatch: {count} images, {labels.shape[0]} labels"
            )
    return FeatureMatrix(values, labels)


# ---------------------------------------------------------------------------
# RSM1 (little-endian binary cache for features prepared offline)
# ---------------------------------------------------------------------------

def save_rsm1(matrix: FeatureMatrix, path) -> None:
    """magic "RSM1" | u32 rows | u32 cols | f32 data row-major | u16 labels."""
    if matrix.labels is None:
        raise ValueError("RSM1 stores labeled matrices")
    if matrix.labels.size and matrix.labels.max() > 0xFFFF:
        raise ValueError("labels exceed u16 range")
    with open(path, "wb") as f:
        f.write(RSM1_MAGIC)
        f.write(struct.pack("<II", matrix.n_samples, matrix.n_features))
        f.write(np.ascontiguousarray(matrix.values, dtype="<f4").tobytes())
        f.write(matrix.labels.astype("<u2").tobytes())


def load_rsm1(path) -> FeatureMatrix:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4)
        if magic != RSM1_MAGIC:
            raise DataFormatError(f"bad RSM1 magic {magic!r}")
        rows, cols = struct.unpack("<II", _read_exact(f, 8))
        values = np.frombuffer(_read_exact(f, rows * cols * 4), dtype="<f4")
        labels = np.frombuffer(_read_exact(f, rows * 2), dtype="<u2")
    return FeatureMatrix(values.reshape(rows, cols), labels.astype(np.int64))


def load_features(path, labels_path=None) -> FeatureMatrix:
    """Load a feature file, sniffing RSM1 vs IDX by magic."""
    with open(path, "rb") as f:
        head = f.read(4)
    if head == RSM1_MAGIC:
        return load_rsm1(path)
    return load_idx(path, labels_path)


def to_csv(matrix: FeatureMatrix, path) -> None:
    header = ",".join(f"f{i}" for i in range(matrix.n_features))
    if matrix.labels is not None:
        header += ",label"
        body = np.column_stack([matrix.values, matrix.labels])
    else:
        body = matrix.values
    np.savetxt(path, body, delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize_minmax(
    train: FeatureMatrix, test: FeatureMatrix | None = None
) -> FeatureMatrix | tuple[FeatureMatrix, FeatureMatrix]:
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

    if test is None:
        return apply(train, clamp=False)
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
    rng = np.random.default_rng(seed)
    pairing = np.full(x.n_samples, -1, dtype=np.int64)
    for c in np.unique(x.labels):
        xi = np.flatnonzero(x.labels == c)
        yi = np.flatnonzero(y.labels == c)
        if yi.size == 0:
            raise ValueError(f"class {c} present in x but absent in y")
        if yi.size >= xi.size:
            chosen = rng.permutation(yi)[: xi.size]
        else:
            extra = rng.choice(yi, size=xi.size - yi.size, replace=True)
            chosen = rng.permutation(np.concatenate([rng.permutation(yi), extra]))
        pairing[xi] = chosen
    return PairedDataset(x, y, pairing)
