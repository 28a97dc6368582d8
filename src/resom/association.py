"""Lateral synapses between two maps: sprouting, Hebb/Oja learning, pruning.

A directed synapse src -> dst exists only after its endpoints were BMUs for
the same paired sample at least once.  The first co-occurrence sprouts the
synapse at weight 0 and does not update it; later co-occurrences apply the
learning rule.  Pruning is local to each source neuron: it keeps the top
ceil(keep_fraction * n_target) of that neuron's synapses by weight, where the
quota counts *potential* targets (the full size of the other map), not the
synapses that happen to exist.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from math import ceil, inf

import numpy as np

from .data import DataFormatError, PairedDataset, _read_exact, opened
from .som import SomGrid, bmu_stream

RLAT_MAGIC = b"RLAT"
RLAT_MAX_NEURONS = 1 << 16  # neuron indices are stored as u16
_RLAT_TRIPLE = np.dtype([("s", "<u2"), ("d", "<u2"), ("w", "<f4")])
RULES = ("hebb", "oja")


@dataclass
class LateralSynapses:
    """Dense (n_source, n_target) weights masked by an existence flag."""

    n_source: int
    n_target: int
    weights: np.ndarray
    exists: np.ndarray

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.exists = np.ascontiguousarray(self.exists, dtype=bool)
        shape = (self.n_source, self.n_target)
        if self.weights.shape != shape or self.exists.shape != shape:
            raise ValueError(f"weights/exists must both be {shape}")

    @classmethod
    def empty(cls, n_source: int, n_target: int) -> "LateralSynapses":
        return cls(
            n_source,
            n_target,
            np.zeros((n_source, n_target)),
            np.zeros((n_source, n_target), dtype=bool),
        )

    @property
    def n_synapses(self) -> int:
        return int(self.exists.sum())


def hebb_update(w: float, a_src: float, a_dst: float, eta: float) -> float:
    return w + eta * a_src * a_dst


def oja_update(w: float, a_src: float, a_dst: float, eta: float) -> float:
    return w + eta * (a_src * a_dst - w * a_dst * a_dst)


_UPDATES = {"hebb": hebb_update, "oja": oja_update}


def learn_direction(
    n_source: int,
    n_target: int,
    src_bmus: np.ndarray,
    src_acts: np.ndarray,
    dst_bmus: np.ndarray,
    dst_acts: np.ndarray,
    rule: str = "hebb",
    eta: float = 1.0,
    epochs: int = 1,
) -> LateralSynapses:
    """Sprout/update one direction from aligned BMU co-occurrence streams.

    Never touches the opposite direction; ``associate`` simply calls this
    twice with the roles swapped.
    """
    if rule not in _UPDATES:
        raise ValueError(f"unknown rule {rule!r}")
    update = _UPDATES[rule]
    syn = LateralSynapses.empty(n_source, n_target)
    W, E = syn.weights, syn.exists
    for _ in range(epochs):
        for s, t, a_s, a_t in zip(src_bmus, dst_bmus, src_acts, dst_acts):
            if not E[s, t]:
                E[s, t] = True  # sprout at 0; no update on first co-occurrence
            else:
                W[s, t] = update(W[s, t], a_s, a_t, eta)
    return syn


def associate(
    som_x: SomGrid,
    som_y: SomGrid,
    pairs: PairedDataset,
    rule: str = "hebb",
    eta: float = 1.0,
    epochs: int = 1,
) -> tuple[LateralSynapses, LateralSynapses]:
    """Learn both synapse directions over one (or more) passes of the pairs.

    Activities use the training kernel (width 1).  Returns (x->y, y->x).
    """
    bx, ax = bmu_stream(som_x, pairs.x.values)
    by, ay = bmu_stream(som_y, pairs.y_values)
    syn_xy = learn_direction(som_x.n_neurons, som_y.n_neurons, bx, ax, by, ay, rule, eta, epochs)
    syn_yx = learn_direction(som_y.n_neurons, som_x.n_neurons, by, ay, bx, ax, rule, eta, epochs)
    return syn_xy, syn_yx


def prune_quota(keep_fraction: float, n_target: int) -> int:
    if not 0 < keep_fraction < inf:
        raise ValueError(f"keep_fraction must be positive and finite, got {keep_fraction}")
    return ceil(keep_fraction * n_target)


def prune(syn: LateralSynapses, keep_fraction: float) -> LateralSynapses:
    """Keep each source neuron's strongest synapses, up to its quota.

    Weight ties keep the lower target index (stable sort), so pruning is
    deterministic.  Neurons with fewer synapses than the quota keep them all.
    """
    quota = prune_quota(keep_fraction, syn.n_target)
    # One stable sort per row: existing synapses first, strongest first, and
    # the lower target index first on equal keys.
    order = np.lexsort((-syn.weights, ~syn.exists), axis=1)[:, :quota]
    keep = np.take_along_axis(syn.exists, order, axis=1)
    src, dst = np.nonzero(keep)[0], order[keep]
    out = LateralSynapses.empty(syn.n_source, syn.n_target)
    out.exists[src, dst] = True
    out.weights[src, dst] = syn.weights[src, dst]
    return out


# ---------------------------------------------------------------------------
# RLAT synapse file: magic | 2-byte direction tag | u32 n_source | u32
# n_target | u32 n_triples | (u16 src, u16 dst, f32 w) triples sorted by
# (src, dst).  Little-endian.
# ---------------------------------------------------------------------------

def save_synapses(syn: LateralSynapses, path_or_file, direction: str = "XY") -> None:
    tag = direction.encode("ascii")
    if len(tag) != 2:
        raise ValueError("direction tag must be two characters")
    if max(syn.n_source, syn.n_target) > RLAT_MAX_NEURONS:
        raise ValueError(
            f"RLAT holds at most {RLAT_MAX_NEURONS} neurons per map, "
            f"got {syn.n_source} x {syn.n_target}"
        )
    src, dst = np.nonzero(syn.exists)
    with opened(path_or_file, "wb") as f:
        f.write(RLAT_MAGIC + tag)
        f.write(struct.pack("<III", syn.n_source, syn.n_target, src.size))
        triples = np.empty(src.size, dtype=_RLAT_TRIPLE)
        triples["s"], triples["d"] = src, dst
        triples["w"] = syn.weights[src, dst]
        f.write(triples.tobytes())


def load_synapses(path_or_file) -> tuple[LateralSynapses, str]:
    with opened(path_or_file, "rb") as f:
        magic = _read_exact(f, 4)
        if magic != RLAT_MAGIC:
            raise DataFormatError(f"bad synapse file magic {magic!r}")
        direction = _read_exact(f, 2)
        if not direction.isascii():
            raise DataFormatError(f"bad synapse direction tag {direction!r}")
        n_source, n_target, count = struct.unpack("<III", _read_exact(f, 12))
        triples = np.frombuffer(_read_exact(f, count * 8), dtype=_RLAT_TRIPLE)
        if count and (triples["s"].max() >= n_source or triples["d"].max() >= n_target):
            raise DataFormatError(f"synapse index out of range for {n_source} x {n_target}")
        syn = LateralSynapses.empty(n_source, n_target)
        syn.exists[triples["s"], triples["d"]] = True
        syn.weights[triples["s"], triples["d"]] = triples["w"].astype(np.float64)
        return syn, direction.decode("ascii")


def roundtrip_synapses(syn: LateralSynapses) -> LateralSynapses:
    """Pass synapses through the file encoding (weights rounded to f32)."""
    buf = io.BytesIO()
    save_synapses(syn, buf)
    buf.seek(0)
    return load_synapses(buf)[0]
