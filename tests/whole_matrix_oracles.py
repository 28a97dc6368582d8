"""Whole-matrix reference forms of the stages that work one SAMPLE_BLOCK of
rows at a time.

Each function draws, casts or normalizes every row in one step: the
synthetic generator's noise in one draw, each normalizer's split cast to
float64 whole, ``som.distances``' rows cast whole before one ``cdist``, and
min-max rows computed into fresh temporaries.  The library computes the
same elementwise operations in the same order, a block of rows at a time
(and, for the convergence fields it owns, in place); the block-boundary
tests check it against these forms bit for bit.
"""

import numpy as np
from scipy.spatial.distance import cdist

from resom.data import FeatureMatrix


def sample_modality(rng, centers, labels, noise):
    """The generator's points: every row's noise in one draw, float64."""
    points = centers[labels] + rng.normal(scale=noise, size=(labels.size, centers.shape[1]))
    return np.clip(points, 0.0, 1.0)


def normalize_minmax(train, test):
    x = train.values.astype(np.float64)
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)

    def apply(m, clamp):
        out = (m.values.astype(np.float64) - lo) / safe
        out[:, span == 0] = 0.0
        if clamp:
            np.clip(out, 0.0, 1.0, out=out)
        return FeatureMatrix(out.astype(np.float32), m.labels)

    return apply(train, clamp=False), apply(test, clamp=True)


def standardize_then_minmax(train, test):
    x = train.values.astype(np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    safe_std = np.where(std > 0, std, 1.0)

    def zscore(m):
        z = (m.values.astype(np.float64) - mean) / safe_std
        z[:, std == 0] = 0.0
        return FeatureMatrix(z.astype(np.float32), m.labels)

    return normalize_minmax(zscore(train), zscore(test))


def distances(som, values):
    """One cdist of the rows cast to float64 as a whole."""
    return cdist(np.asarray(values, dtype=np.float64), som.weights)


def minmax_rows(fields):
    lo = fields.min(axis=1, keepdims=True)
    span = fields.max(axis=1, keepdims=True) - lo
    return np.where(span > 0, (fields - lo) / np.where(span > 0, span, 1.0), 0.0)
