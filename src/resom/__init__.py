"""Reentrant self-organizing maps with lateral Hebbian association.

Unimodal maps learn by competitive training, get labeled from a small
labeled subset, and are wired together by sprouted/pruned lateral synapses;
divergence transfers labels across maps and convergence classifies by
electing a global winner over both maps.  A synchronous cellular grid
simulator reproduces the centralized computation with neighbor-only
communication.
"""

from .association import LateralSynapses, associate, prune
from .data import FeatureMatrix, PairedDataset, load_idx, pair_by_class
from .inference import ConvergenceConfig, diverge_label
from .grid import cost_report, ig_train, winner_wave
from .labeling import label_som, select_label_subset
from .som import SomGrid, TrainSchedule, make_som, train

__all__ = [
    "ConvergenceConfig",
    "FeatureMatrix",
    "LateralSynapses",
    "PairedDataset",
    "SomGrid",
    "TrainSchedule",
    "associate",
    "cost_report",
    "diverge_label",
    "ig_train",
    "label_som",
    "load_idx",
    "make_som",
    "pair_by_class",
    "prune",
    "select_label_subset",
    "train",
    "winner_wave",
]
