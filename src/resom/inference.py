"""Cross-map inference: divergence labeling and convergence classification.

Divergence drives one map's activity purely through its incoming lateral
synapses (max of weight * source activity) and reuses the accumulator-based
labeling on those induced activities; neurons left without any incoming
synapse keep the default label 0.

Convergence computes each map's afferent field, multiplies it by lateral
support from the other map, and elects a single global winner across both
maps.  The eight variants combine max/sum lateral support, raw/min-max
normalized activities, and all-neurons vs BMUs-only updates.  In BMUs-only
mode every non-BMU activity is zeroed, so the global winner is always one of
the two local BMUs, and normalization (when enabled) applies to the lateral
contributions only, leaving the two competing afferent activities raw.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .association import LateralSynapses
from .data import FeatureMatrix, PairedDataset
from .labeling import ClassAccumulators
from .som import SomGrid, activities_batch

UPDATES = ("max", "sum")
ACTIVITY_MODES = ("raw", "norm")
NEURON_MODES = ("all", "bmu")
DISCONNECTED_MODES = ("zero", "keep")


@dataclass(frozen=True)
class ConvergenceConfig:
    update: str = "max"
    activities: str = "norm"
    neurons: str = "bmu"
    kernel_width_x: float = 1.0
    kernel_width_y: float = 1.0
    disconnected: str = "zero"

    def __post_init__(self):
        if self.update not in UPDATES:
            raise ValueError(f"update must be one of {UPDATES}")
        if self.activities not in ACTIVITY_MODES:
            raise ValueError(f"activities must be one of {ACTIVITY_MODES}")
        if self.neurons not in NEURON_MODES:
            raise ValueError(f"neurons must be one of {NEURON_MODES}")
        if self.disconnected not in DISCONNECTED_MODES:
            raise ValueError(f"disconnected must be one of {DISCONNECTED_MODES}")
        if self.kernel_width_x <= 0 or self.kernel_width_y <= 0:
            raise ValueError("kernel widths must be positive")

    def name(self) -> str:
        return f"{self.update}-{self.activities}-{self.neurons}"


# Every update x activities x neurons combination, unit kernel widths.
ALL_VARIANTS = tuple(
    ConvergenceConfig(update, activities, neurons)
    for update, activities, neurons in itertools.product(
        UPDATES, ACTIVITY_MODES, NEURON_MODES
    )
)


@dataclass(frozen=True)
class GlobalDecision:
    map_id: str  # "x" | "y"
    neuron: int
    label: int


def minmax_rows(fields: np.ndarray) -> np.ndarray:
    """Min-max normalize each row via its BMU/WMU; constant rows become 0."""
    lo = fields.min(axis=1, keepdims=True)
    span = fields.max(axis=1, keepdims=True) - lo
    out = np.where(span > 0, (fields - lo) / np.where(span > 0, span, 1.0), 0.0)
    return out


def divergent_activity(syn: LateralSynapses, field_src: np.ndarray, target: int) -> float:
    """max over incoming synapses of weight * source activity; 0 if none."""
    src = np.flatnonzero(syn.exists[:, target])
    if src.size == 0:
        return 0.0
    return float(np.max(syn.weights[src, target] * np.asarray(field_src)[src]))


def divergent_field_batch(syn: LateralSynapses, src_fields: np.ndarray) -> np.ndarray:
    """(n_samples, n_target) induced activities from (n_samples, n_source)."""
    out = np.zeros((src_fields.shape[0], syn.n_target))
    for t in range(syn.n_target):
        src = np.flatnonzero(syn.exists[:, t])
        if src.size:
            out[:, t] = (src_fields[:, src] * syn.weights[src, t]).max(axis=1)
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

    Mirrors the direct labeling procedure with divergent activities in place
    of afferent ones; samples whose induced field is entirely zero contribute
    nothing, and all-zero accumulators resolve to label 0.
    """
    if subset_x.labels is None:
        raise ValueError("labeled subset required")
    n_classes = n_classes or subset_x.n_classes
    ax = activities_batch(som_x, subset_x.values, kernel_width)
    induced = divergent_field_batch(syn_xy, ax)
    peak = induced.max(axis=1)
    induced /= np.where(peak > 0, peak, 1.0)[:, None]
    accs = ClassAccumulators.from_activities(induced, subset_x.labels, n_classes)
    return replace(som_y, labels=accs.argmax_labels())


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------

def lateral_support(
    syn: LateralSynapses, other_fields: np.ndarray, update: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per source neuron, max or mean of weight * other-map activity.

    Returns (support (n_samples, n_source), connected mask (n_source,)); the
    support of a disconnected neuron is reported as 0, the caller decides
    whether that zeroes the neuron or leaves it untouched.
    """
    connected = syn.exists.any(axis=1)
    if update == "sum":
        masked = np.where(syn.exists, syn.weights, 0.0)
        out = other_fields @ masked.T
        counts = syn.exists.sum(axis=1)
        out[:, connected] /= counts[connected]
        out[:, ~connected] = 0.0
    elif update == "max":
        out = np.zeros((other_fields.shape[0], syn.n_source))
        for s in np.flatnonzero(connected):
            idx = np.flatnonzero(syn.exists[s])
            out[:, s] = (other_fields[:, idx] * syn.weights[s, idx]).max(axis=1)
    else:
        raise ValueError(f"unknown update {update!r}")
    return out, connected


@dataclass
class ConvergenceBatch:
    """Vectorized decisions: map_ids[i] is '' for a no-decision sample."""

    map_ids: np.ndarray  # '<U1'
    neurons: np.ndarray
    labels: np.ndarray  # -1 on no-decision
    bmu_x: np.ndarray
    bmu_y: np.ndarray

    @property
    def no_decision(self) -> np.ndarray:
        return self.map_ids == ""


def converge_classify_batch(
    som_x: SomGrid,
    som_y: SomGrid,
    syn_xy: LateralSynapses,
    syn_yx: LateralSynapses,
    values_x: np.ndarray,
    values_y: np.ndarray,
    cfg: ConvergenceConfig,
) -> ConvergenceBatch:
    if som_x.labels is None or som_y.labels is None:
        raise ValueError("both maps must be labeled")
    ax = activities_batch(som_x, values_x, cfg.kernel_width_x)
    ay = activities_batch(som_y, values_y, cfg.kernel_width_y)
    return converge_from_fields(som_x, som_y, syn_xy, syn_yx, ax, ay, cfg)


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
    n = ax.shape[0]
    bmu_x = np.argmax(ax, axis=1)
    bmu_y = np.argmax(ay, axis=1)

    if cfg.neurons == "all":
        if cfg.activities == "norm":
            ax, ay = minmax_rows(ax), minmax_rows(ay)
        sup_x, conn_x = lateral_support(syn_xy, ay, cfg.update)
        sup_y, conn_y = lateral_support(syn_yx, ax, cfg.update)
        new_x = ax * sup_x
        new_y = ay * sup_y
        if cfg.disconnected == "keep":
            new_x[:, ~conn_x] = ax[:, ~conn_x]
            new_y[:, ~conn_y] = ay[:, ~conn_y]
        best_x_idx = np.argmax(new_x, axis=1)
        best_y_idx = np.argmax(new_y, axis=1)
        best_x = new_x[np.arange(n), best_x_idx]
        best_y = new_y[np.arange(n), best_y_idx]
    else:  # bmu: only the two local BMUs keep (updated) activity
        lat_x = minmax_rows(ay) if cfg.activities == "norm" else ay
        lat_y = minmax_rows(ax) if cfg.activities == "norm" else ax
        sup_x, conn_x = lateral_support(syn_xy, lat_x, cfg.update)
        sup_y, conn_y = lateral_support(syn_yx, lat_y, cfg.update)
        raw_x = ax[np.arange(n), bmu_x]
        raw_y = ay[np.arange(n), bmu_y]
        bmu_sup_x = sup_x[np.arange(n), bmu_x]
        bmu_sup_y = sup_y[np.arange(n), bmu_y]
        if cfg.disconnected == "keep":
            bmu_sup_x = np.where(conn_x[bmu_x], bmu_sup_x, 1.0)
            bmu_sup_y = np.where(conn_y[bmu_y], bmu_sup_y, 1.0)
        best_x = raw_x * bmu_sup_x
        best_y = raw_y * bmu_sup_y
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
        bmu_x=bmu_x,
        bmu_y=bmu_y,
    )


def converge_classify(
    v_x: np.ndarray,
    v_y: np.ndarray,
    som_x: SomGrid,
    som_y: SomGrid,
    syn_xy: LateralSynapses,
    syn_yx: LateralSynapses,
    cfg: ConvergenceConfig,
) -> GlobalDecision | None:
    """Single-sample convergence; None signals an explicit no-decision."""
    batch = converge_classify_batch(
        som_x, som_y, syn_xy, syn_yx,
        np.asarray(v_x)[None, :], np.asarray(v_y)[None, :], cfg,
    )
    if batch.no_decision[0]:
        return None
    return GlobalDecision(str(batch.map_ids[0]), int(batch.neurons[0]), int(batch.labels[0]))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class UnimodalEval:
    accuracy: float
    confusion: np.ndarray
    bmu_counts: np.ndarray


@dataclass
class ConvergenceEval:
    accuracy: float
    confusion: np.ndarray
    n_no_decision: int
    winner_counts_x: np.ndarray
    winner_counts_y: np.ndarray


def classify_unimodal_batch(som: SomGrid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels via the BMU's label (kernel width cancels out)."""
    if som.labels is None:
        raise ValueError("map must be labeled")
    d = cdist(np.ascontiguousarray(values, dtype=np.float64), som.weights)
    bmu = np.argmin(d, axis=1)
    return som.labels[bmu], bmu


def confusion_matrix(true: np.ndarray, pred: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_classes, n_classes) counts, rows = true class; pred<0 is skipped."""
    ok = pred >= 0
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (true[ok], pred[ok]), 1)
    return m


def evaluate_unimodal(som: SomGrid, matrix: FeatureMatrix, n_classes: int) -> UnimodalEval:
    pred, bmu = classify_unimodal_batch(som, matrix.values)
    acc = float(np.mean(pred == matrix.labels))
    return UnimodalEval(
        accuracy=acc,
        confusion=confusion_matrix(matrix.labels, pred, n_classes),
        bmu_counts=np.bincount(bmu, minlength=som.n_neurons),
    )


def evaluate_convergence(
    som_x: SomGrid,
    som_y: SomGrid,
    syn_xy: LateralSynapses,
    syn_yx: LateralSynapses,
    pairs: PairedDataset,
    cfg: ConvergenceConfig,
    n_classes: int,
) -> ConvergenceEval:
    """Accuracy over a paired test set; no-decision samples count as errors."""
    batch = converge_classify_batch(
        som_x, som_y, syn_xy, syn_yx, pairs.x.values, pairs.y_values, cfg
    )
    true = pairs.x.labels
    acc = float(np.mean(batch.labels == true))
    wins_x = np.bincount(batch.neurons[batch.map_ids == "x"], minlength=som_x.n_neurons)
    wins_y = np.bincount(batch.neurons[batch.map_ids == "y"], minlength=som_y.n_neurons)
    return ConvergenceEval(
        accuracy=acc,
        confusion=confusion_matrix(true, batch.labels, n_classes),
        n_no_decision=int(batch.no_decision.sum()),
        winner_counts_x=wins_x,
        winner_counts_y=wins_y,
    )


def gain_matrix(conv_confusion: np.ndarray, uni_confusion: np.ndarray) -> np.ndarray:
    """Row-normalized confusion difference (convergence minus unimodal).

    Rows with samples in both matrices sum to zero; positive diagonal means
    the fusion improved that class.
    """

    def normalize(m):
        totals = m.sum(axis=1, keepdims=True).astype(np.float64)
        return m / np.where(totals > 0, totals, 1.0)

    return normalize(conv_confusion) - normalize(uni_confusion)
