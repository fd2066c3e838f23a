"""MLP link predictor on hand-crafted structural features.

The fast learned backend: one fixed-length feature vector per candidate
link (see :func:`repro.attacks.muxlink.features.link_feature_matrix`),
classified by a small MLP trained with Adam on the self-supervised wire
samples. Roughly an order of magnitude faster than the GNN per fitness
evaluation, which is what makes GA populations affordable; the GNN backend
is used for final-report numbers.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.muxlink.features import (
    check_training_budget,
    feature_group_slices,
    link_feature_dim,
    link_feature_matrix,
    make_training_pairs,
)
from repro.attacks.muxlink.graph import ObservedGraph
from repro.errors import AttackError
from repro.registry import register_predictor
from repro.ml.layers import Linear, ReLU
from repro.ml.losses import bce_with_logits
from repro.ml.network import Sequential, fit
from repro.ml.optim import Adam
from repro.utils.rng import derive_rng, spawn_seeds


@register_predictor("mlp")
class MlpLinkPredictor:
    """Two-hidden-layer MLP over link feature vectors."""

    name = "mlp"

    def __init__(
        self,
        hidden: tuple[int, int] = (64, 32),
        epochs: int = 40,
        lr: float = 5e-3,
        batch_size: int = 64,
        n_train: int = 600,
        keygate_cols: bool = False,
        feature_weights: dict[str, float] | None = None,
    ) -> None:
        check_training_budget(n_train, epochs, lr, batch_size)
        self.hidden = hidden
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.n_train = n_train
        self.keygate_cols = bool(keygate_cols)
        groups = feature_group_slices(self.keygate_cols)
        if feature_weights:
            unknown = sorted(set(feature_weights) - set(groups))
            if unknown:
                raise AttackError(
                    f"unknown feature_weights groups {unknown}; "
                    f"choose from {sorted(groups)}"
                )
        self.feature_weights = dict(feature_weights or {})
        # Per-column multipliers applied *after* normalisation — scaling
        # raw columns would cancel in (x - mu) / sigma. `None` when every
        # weight is 1.0, keeping the historical path byte-identical.
        self._col_weights: np.ndarray | None = None
        if any(w != 1.0 for w in self.feature_weights.values()):
            weights = np.ones(link_feature_dim(self.keygate_cols))
            for group, w in self.feature_weights.items():
                weights[groups[group]] = float(w)
            self._col_weights = weights
        self._model: Sequential | None = None
        self._mu: np.ndarray | None = None
        self._sigma: np.ndarray | None = None
        self._graph: ObservedGraph | None = None
        self.train_history: list[float] = []

    def fit(self, graph: ObservedGraph, seed_or_rng=None) -> None:
        """Train on self-supervised wire samples from ``graph``."""
        rng = derive_rng(seed_or_rng)
        seeds = spawn_seeds(rng, 4)
        pairs, labels = make_training_pairs(graph, self.n_train, seeds[0])
        if not pairs:
            raise AttackError("observed graph has no wires to train on")
        x = link_feature_matrix(graph, pairs, keygate_cols=self.keygate_cols)
        y = labels.reshape(-1, 1)

        self._mu = x.mean(axis=0)
        self._sigma = x.std(axis=0) + 1e-8
        x_norm = (x - self._mu) / self._sigma
        if self._col_weights is not None:
            x_norm = x_norm * self._col_weights

        h1, h2 = self.hidden
        self._model = Sequential(
            [
                Linear(
                    link_feature_dim(self.keygate_cols),
                    h1,
                    seed_or_rng=seeds[1],
                    name="l1",
                ),
                ReLU(),
                Linear(h1, h2, seed_or_rng=seeds[2], name="l2"),
                ReLU(),
                Linear(h2, 1, seed_or_rng=seeds[3], name="out"),
            ]
        )
        optimizer = Adam(self._model.params(), lr=self.lr)
        self.train_history = fit(
            self._model,
            x_norm,
            y,
            bce_with_logits,
            optimizer,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed_or_rng=rng,
        )
        self._graph = graph

    def score_link(self, u: int, v: int) -> float:
        """Logit that ``u`` truly drives ``v``."""
        return float(self.score_links([(u, v)])[0])

    def score_links(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """Logits for many candidate links (one batched feature pass).

        Feature extraction and normalisation are batched; the model
        forward still runs row by row because BLAS matmuls accumulate in
        a shape-dependent order — a population-sized batch would round
        differently in the last ulp and break the attack's pinned
        bit-for-bit scores.
        """
        if self._model is None or self._graph is None:
            raise AttackError("predictor not fitted")
        x = link_feature_matrix(
            self._graph, list(pairs), keygate_cols=self.keygate_cols
        )
        x_norm = (x - self._mu) / self._sigma
        if self._col_weights is not None:
            x_norm = x_norm * self._col_weights
        # Inlined per-row forward: same ops as Linear (x @ W + b) and
        # ReLU (x * (x > 0)) without the layer-dispatch overhead, which
        # at one-row batches costs more than the matmuls themselves.
        steps = [
            (layer.weight.value, layer.bias.value)
            if isinstance(layer, Linear)
            else None
            for layer in self._model.layers
        ]
        scores = np.empty(x_norm.shape[0], dtype=np.float64)
        for i in range(x_norm.shape[0]):
            h = x_norm[i : i + 1]
            for wb in steps:
                h = h @ wb[0] + wb[1] if wb is not None else h * (h > 0)
            scores[i] = h[0, 0]
        return scores
