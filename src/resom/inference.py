"""Cross-map inference: divergence labeling and convergence classification.

Both directions of the reentrant step are one max-product operator on the
synapses, ``synapse_max``: divergence sets each neuron of one map to the max
over its incoming synapses of weight * source activity, and convergence's
max lateral support is the same operation on the transposed synapses (W
and Wᵀ).  Divergence labels map y with the direct labeling rule,
``labeling.class_means``, on the induced activities; neurons left without
any incoming synapse keep the default label 0.

Convergence computes each map's afferent field, multiplies it by lateral
support from the other map, and elects a single global winner across both
maps.  The eight variants combine max/sum lateral support, raw/min-max
normalized activities, and all-neurons vs BMUs-only updates.  In BMUs-only
mode every non-BMU activity is zeroed, so the global winner is always one of
the two local BMUs, the support is evaluated at each sample's BMU only, and
normalization (when enabled) applies to the lateral contributions only,
leaving the two competing afferent activities raw.  The sum variant's
support (the mean over a neuron's synapses) is one masked matrix product.

Scoring has one result type, ``Score`` (accuracy, confusion, no-decision
count), and one function, ``score``, that scores predictions against true
labels; the number of classes is ``data.class_count``'s.  Both test
scorers read a map's distances to its unpaired test rows: ``unimodal_score``
predicts each row as its BMU's label, and ``score_convergence`` classifies a
``PairedDataset``'s pairs, gathering map y's rows by the pairing.  So a built
seed, and ``resom converge``, measure each map's distances once;
``evaluate_unimodal`` derives them from rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .association import LateralSynapses
from .data import FeatureMatrix, PairedDataset
from .labeling import class_means
from .som import SomGrid, activities_batch, activities_from_distances, distances

# The values each choice field of ConvergenceConfig accepts.
CHOICES = {
    "update": ("max", "sum"),
    "activities": ("raw", "norm"),
    "neurons": ("all", "bmu"),
    "disconnected": ("zero", "keep"),
}


@dataclass(frozen=True)
class ConvergenceConfig:
    update: str = "max"
    activities: str = "norm"
    neurons: str = "bmu"
    kernel_width_x: float = 1.0
    kernel_width_y: float = 1.0
    disconnected: str = "zero"

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if not (0 < self.kernel_width_x < math.inf and 0 < self.kernel_width_y < math.inf):
            raise ValueError("kernel widths must be positive and finite")

    def name(self) -> str:
        return f"{self.update}-{self.activities}-{self.neurons}"


# Every update x activities x neurons combination, unit kernel widths.
ALL_VARIANTS = tuple(
    ConvergenceConfig(update, activities, neurons)
    for update, activities, neurons in itertools.product(
        CHOICES["update"], CHOICES["activities"], CHOICES["neurons"]
    )
)


def minmax_rows(fields: np.ndarray) -> np.ndarray:
    """Min-max normalize each row via its BMU/WMU; constant rows become 0."""
    lo = fields.min(axis=1, keepdims=True)
    span = fields.max(axis=1, keepdims=True) - lo
    return np.where(span > 0, (fields - lo) / np.where(span > 0, span, 1.0), 0.0)


def synapse_max(
    weights: np.ndarray, exists: np.ndarray, fields: np.ndarray, at: np.ndarray | None = None
) -> np.ndarray:
    """Max-product transmission through the existing synapses of (W, E).

    Column j of the result is the max, over the inputs i with ``exists[i, j]``,
    of ``fields[:, i] * weights[i, j]``, and 0 where column j has no input.
    Divergence passes a direction's (W, E) and max lateral support passes
    (Wᵀ, Eᵀ).  With ``at``, sample s gets only column ``at[s]`` (one value
    per sample); the samples are grouped by that column, so the work is
    O(n_samples * inputs per column) rather than O(n_samples * columns * inputs).
    """
    # One group per output column j: (j, the rows of ``fields`` it reads,
    # the cells of ``out`` it writes).
    n = fields.shape[0]
    if at is None:
        out = np.zeros((n, exists.shape[1]))
        groups = ((j, slice(None), (slice(None), j)) for j in range(exists.shape[1]))
    else:
        out = np.zeros(n)
        order = np.argsort(at, kind="stable")
        cols, starts = np.unique(at[order], return_index=True)
        groups = ((j, rows[:, None], rows) for j, rows in zip(cols, np.split(order, starts[1:])))
    for j, rows, cell in groups:
        inputs = np.flatnonzero(exists[:, j])
        if inputs.size:
            out[cell] = (fields[rows, inputs] * weights[inputs, j]).max(axis=1)
    return out


def disconnected_targets(syn: LateralSynapses) -> np.ndarray:
    """Target neurons with no incoming synapse (stuck at default label 0)."""
    return ~syn.exists.any(axis=0)


def diverge_label(
    som_x: SomGrid,
    som_y: SomGrid,
    syn_xy: LateralSynapses,
    subset_x: FeatureMatrix,
    kernel_width: float,
    n_classes: int | None = None,
) -> SomGrid:
    """Label som_y's neurons from som_x's labeled subset through x->y synapses.

    The direct labeling rule with divergent activities in place of afferent
    ones; samples whose induced field is entirely zero contribute nothing,
    and neurons with all-zero class means take label 0.
    """
    if subset_x.labels is None:
        raise ValueError("labeled subset required")
    ax = activities_batch(som_x, subset_x.values, kernel_width)
    induced = synapse_max(syn_xy.weights, syn_xy.exists, ax)
    means = class_means(induced, subset_x.labels, n_classes or subset_x.n_classes)
    return replace(som_y, labels=np.argmax(means, axis=1))


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------

def _synapse_mean(
    syn: LateralSynapses, fields: np.ndarray, at: np.ndarray | None = None
) -> np.ndarray:
    """The "sum" update's support: each source neuron's mean of weight *
    other-map activity over its synapses, 0 if it has none; with ``at``,
    only at neuron ``at[s]`` for sample s.  It stays one masked matmul,
    gathered afterwards, because a BLAS product does not sum in the order of
    an elementwise sum."""
    total = fields @ np.where(syn.exists, syn.weights, 0.0).T
    counts = syn.exists.sum(axis=1)
    if at is not None:
        total, counts = total[np.arange(at.size), at], counts[at]
    return np.where(counts > 0, total / np.maximum(counts, 1), 0.0)


@dataclass
class ConvergenceBatch:
    """Vectorized decisions: map_ids[i] is '' for a no-decision sample."""

    map_ids: np.ndarray  # '<U1'
    neurons: np.ndarray
    labels: np.ndarray  # -1 on no-decision

    @property
    def no_decision(self) -> np.ndarray:
        return self.map_ids == ""


def converge_from_fields(
    som_x: SomGrid,
    som_y: SomGrid,
    syn_xy: LateralSynapses,
    syn_yx: LateralSynapses,
    ax: np.ndarray,
    ay: np.ndarray,
    cfg: ConvergenceConfig,
) -> ConvergenceBatch:
    """Decision phase on precomputed afferent fields (one row per sample)."""
    if som_x.labels is None or som_y.labels is None:
        raise ValueError("both maps must be labeled")
    rows = np.arange(ax.shape[0])
    bmu_x = np.argmax(ax, axis=1)
    bmu_y = np.argmax(ay, axis=1)

    def support(syn, other_fields, at=None):
        """Lateral support of syn's source neurons from the other map (only
        neuron ``at[s]`` for sample s, given ``at``); a neuron without
        synapses gets 0, or 1 under the "keep" convention."""
        if cfg.update == "max":
            sup = synapse_max(syn.weights.T, syn.exists.T, other_fields, at)
        else:
            sup = _synapse_mean(syn, other_fields, at)
        if cfg.disconnected == "keep":
            connected = syn.exists.any(axis=1)
            sup = np.where(connected if at is None else connected[at], sup, 1.0)
        return sup

    if cfg.neurons == "all":
        if cfg.activities == "norm":
            ax, ay = minmax_rows(ax), minmax_rows(ay)
        new_x = ax * support(syn_xy, ay)
        new_y = ay * support(syn_yx, ax)
        best_x_idx = np.argmax(new_x, axis=1)
        best_y_idx = np.argmax(new_y, axis=1)
        best_x = new_x[rows, best_x_idx]
        best_y = new_y[rows, best_y_idx]
    else:  # bmu: only the two local BMUs keep (updated) activity
        lateral = minmax_rows if cfg.activities == "norm" else (lambda a: a)
        best_x = ax[rows, bmu_x] * support(syn_xy, lateral(ay), bmu_x)
        best_y = ay[rows, bmu_y] * support(syn_yx, lateral(ax), bmu_y)
        best_x_idx, best_y_idx = bmu_x, bmu_y

    x_wins = best_x >= best_y  # fixed map order: x wins exact ties
    decided = np.maximum(best_x, best_y) > 0
    neurons = np.where(x_wins, best_x_idx, best_y_idx)
    labels = np.where(x_wins, som_x.labels[best_x_idx], som_y.labels[best_y_idx])
    map_ids = np.where(x_wins, "x", "y").astype("<U1")
    map_ids[~decided] = ""
    return ConvergenceBatch(
        map_ids=map_ids,
        neurons=np.where(decided, neurons, -1),
        labels=np.where(decided, labels, -1),
    )


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Score:
    """A test-set result; a no-decision sample counts as an error."""

    accuracy: float
    confusion: np.ndarray  # (n_classes, n_classes) counts, rows = true class
    n_no_decision: int


def score(pred: np.ndarray, true: np.ndarray, n_classes: int) -> Score:
    """Score predictions against true labels; ``pred < 0`` is a no-decision."""
    decided = pred >= 0
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (true[decided], pred[decided]), 1)
    return Score(float(np.mean(pred == true)), confusion, int((~decided).sum()))


def unimodal_score(som: SomGrid, dist: np.ndarray, true: np.ndarray, n_classes: int) -> Score:
    """Predict each row of ``dist`` as its BMU's label (kernel width cancels out)."""
    return score(som.labels[np.argmin(dist, axis=1)], true, n_classes)


def score_convergence(
    som_x: SomGrid,
    som_y: SomGrid,
    syn_xy: LateralSynapses,
    syn_yx: LateralSynapses,
    pairs: PairedDataset,
    dist_x: np.ndarray,
    dist_y: np.ndarray,
    cfg: ConvergenceConfig,
    n_classes: int,
) -> Score:
    """Convergence over ``pairs`` from each map's distances to its test rows;
    map y's rows are unpaired, and gathered here by the pairing."""
    ax = activities_from_distances(dist_x, cfg.kernel_width_x)
    ay = activities_from_distances(dist_y[pairs.pairing], cfg.kernel_width_y)
    batch = converge_from_fields(som_x, som_y, syn_xy, syn_yx, ax, ay, cfg)
    return score(batch.labels, pairs.x.labels, n_classes)


def evaluate_unimodal(som: SomGrid, matrix: FeatureMatrix, n_classes: int) -> Score:
    """Each row is predicted as its BMU's label (kernel width cancels out)."""
    if som.labels is None:
        raise ValueError("map must be labeled")
    return unimodal_score(som, distances(som, matrix.values), matrix.labels, n_classes)


def gain_matrix(conv_confusion: np.ndarray, uni_confusion: np.ndarray) -> np.ndarray:
    """Row-normalized confusion difference (convergence minus unimodal).

    Rows with samples in both matrices sum to zero; positive diagonal means
    the fusion improved that class.
    """

    def normalize(m):
        totals = m.sum(axis=1, keepdims=True).astype(np.float64)
        return m / np.where(totals > 0, totals, 1.0)

    return normalize(conv_confusion) - normalize(uni_confusion)
