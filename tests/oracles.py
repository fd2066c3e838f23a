"""Reference implementations kept only as equivalence oracles.

``src/`` keeps one implementation of each hot-path concept. The plain,
unoptimised versions they replaced live here so tests and the
micro-benchmarks can check (and time) the fast paths against them:

* :func:`scratch_lock_with_genes` — the gene-application loop on a plain
  ``Netlist.copy()``: every insertion invalidates and rebuilds the full
  fanout map, topological order and lockable-wire pool.
* :func:`scalar_fit` / :func:`scalar_score_links` — the per-sample GNN
  pipeline: one enclosing subgraph, one dense adjacency and one conv
  forward/backward per training sample or scored link, driving a
  :class:`~repro.attacks.muxlink.gnn.GnnLinkPredictor`'s own weights.
* :func:`rebuild_fit` — the batched GNN training loop that rebuilds the
  block-diagonal operator and the stacked features for every minibatch.
  The hoisted :meth:`~repro.attacks.muxlink.gnn.GnnLinkPredictor.fit`
  must match it bit for bit.
* :class:`PerParamAdam` — Adam updating one parameter at a time, the
  bitwise reference for the flat-buffer :class:`~repro.ml.optim.Adam`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.attacks.muxlink.features import (
    make_training_pairs,
    subgraph_feature_matrix,
)
from repro.attacks.muxlink.gnn import GnnLinkPredictor, normalized_adjacency
from repro.attacks.muxlink.graph import ObservedGraph
from repro.attacks.muxlink.subgraph import (
    EnclosingSubgraph,
    extract_enclosing_subgraph,
    extract_enclosing_subgraphs,
)
from repro.errors import AttackError, LockingError
from repro.locking.base import LockedCircuit
from repro.locking.genome_lock import genotype_scheme_name
from repro.locking.key import Key
from repro.locking.primitives import Gene, primitive_for_gene
from repro.ml.layers import Param
from repro.ml.losses import bce_with_logits
from repro.ml.optim import Adam
from repro.netlist.netlist import Netlist
from repro.utils.rng import derive_rng


# ------------------------------------------------------------------ locking
def scratch_lock_with_genes(
    original: Netlist,
    genes: Sequence[Gene],
    key_prefix: str = "keyinput",
) -> LockedCircuit:
    """Apply ``genes`` in order to a plain copy of ``original``."""
    if not genes:
        raise LockingError("genotype must contain at least one gene")
    seen_wires: set[tuple[str, str]] = set()
    for idx, gene in enumerate(genes):
        for wire in gene.wires:
            if wire in seen_wires:
                raise LockingError(
                    f"gene {idx} reuses wire {wire[0]}->{wire[1]}; "
                    "genotype needs repair"
                )
            seen_wires.add(wire)

    locked = original.copy(f"{original.name}_auto{len(genes)}")
    insertions: list[Any] = []
    for idx, gene in enumerate(genes):
        try:
            insertions.append(
                primitive_for_gene(gene).apply_gene(
                    locked, gene, f"{key_prefix}{idx}"
                )
            )
        except LockingError as exc:
            raise LockingError(f"gene {idx} inapplicable: {exc}") from exc

    key = Key(
        tuple(f"{key_prefix}{i}" for i in range(len(genes))),
        tuple(g.k for g in genes),
    )
    return LockedCircuit(
        netlist=locked,
        key=key,
        scheme=genotype_scheme_name(genes),
        original=original,
        insertions=insertions,
    )


# --------------------------------------------------------------------- Adam
class PerParamAdam:
    """Adam with per-parameter moments, updated one parameter at a time."""

    def __init__(
        self,
        params: list[Param],
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self._params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self._params, self._m, self._v):
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad**2
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()


# ---------------------------------------------------------------------- GNN
def rebuild_fit(
    predictor: GnnLinkPredictor, graph: ObservedGraph, seed_or_rng=None
) -> int:
    """Batched training that rebuilds every minibatch from its subgraphs.

    Each step assembles the minibatch's block-diagonal operator and
    stacked features from scratch (``_forward_batch``) and updates with
    :class:`PerParamAdam`. Returns the number of training samples.
    """
    rng = derive_rng(seed_or_rng)
    predictor._graph = graph
    predictor._build(rng)
    pairs, labels = make_training_pairs(graph, predictor.n_train, rng)
    if not pairs:
        raise AttackError("observed graph has no wires to train on")
    subs = extract_enclosing_subgraphs(
        graph, pairs, predictor.hops, predictor.max_nodes, predictor.max_label
    )
    optimizer = PerParamAdam(predictor.params(), lr=predictor.lr)
    predictor.train_history = []
    order = np.arange(len(subs))
    batch = 8
    for _ in range(predictor.epochs):
        rng.shuffle(order)
        losses = []
        for start in range(0, len(order), batch):
            idx = order[start : start + batch]
            logits, ctx = predictor._forward_batch(
                [subs[int(i)] for i in idx], train=True
            )
            loss_sum, d = bce_with_logits(logits, labels[idx], reduction="sum")
            predictor._backward_batch(d, ctx)
            losses.extend([loss_sum / len(idx)] * len(idx))
            optimizer.step()
        predictor.train_history.append(float(np.mean(losses)))
    return len(subs)


def scalar_forward(
    predictor: GnnLinkPredictor, sub: EnclosingSubgraph
) -> tuple[float, dict]:
    """Logit for one subgraph; returns the backward context."""
    assert predictor._conv is not None and predictor._head is not None
    x = subgraph_feature_matrix(predictor._graph, sub, predictor.max_label)
    s = normalized_adjacency(sub.adj)
    h = predictor._conv.forward(s, x)  # (n, emb)
    readout = np.concatenate([h[0], h[1], h.mean(axis=0)]).reshape(1, -1)
    logit = predictor._head.forward(readout, train=True)
    return float(logit[0, 0]), {"n": h.shape[0], "emb": h.shape[1]}


def scalar_backward(
    predictor: GnnLinkPredictor, d_logit: float, ctx: dict
) -> None:
    """Accumulate weight gradients for one :func:`scalar_forward`."""
    assert predictor._conv is not None and predictor._head is not None
    d_read = predictor._head.backward(np.array([[d_logit]]))[0]
    emb, n = ctx["emb"], ctx["n"]
    d_h = np.tile(d_read[2 * emb :] / n, (n, 1))
    d_h[0] += d_read[:emb]
    d_h[1] += d_read[emb : 2 * emb]
    predictor._conv.backward(d_h)


def scalar_fit(
    predictor: GnnLinkPredictor, graph: ObservedGraph, seed_or_rng=None
) -> None:
    """Train ``predictor`` one subgraph at a time.

    Draws the same weights, training pairs and minibatch order as
    :meth:`GnnLinkPredictor.fit`, so the two agree up to floating-point
    reassociation.
    """
    rng = derive_rng(seed_or_rng)
    predictor._graph = graph
    predictor._build(rng)
    pairs, labels = make_training_pairs(graph, predictor.n_train, rng)
    if not pairs:
        raise AttackError("observed graph has no wires to train on")
    subs = [
        extract_enclosing_subgraph(
            graph, u, v, predictor.hops, predictor.max_nodes, predictor.max_label
        )
        for u, v in pairs
    ]
    optimizer = Adam(predictor.params(), lr=predictor.lr)
    predictor.train_history = []
    order = np.arange(len(subs))
    batch = 8
    for _ in range(predictor.epochs):
        rng.shuffle(order)
        losses = []
        for start in range(0, len(order), batch):
            for i in order[start : start + batch]:
                logit, ctx = scalar_forward(predictor, subs[int(i)])
                loss, d = bce_with_logits(
                    np.array([logit]), np.array([labels[int(i)]])
                )
                scalar_backward(predictor, float(d[0]), ctx)
                losses.append(loss)
            optimizer.step()
        predictor.train_history.append(float(np.mean(losses)))


def scalar_score_link(predictor: GnnLinkPredictor, u: int, v: int) -> float:
    """Logit that ``u`` truly drives ``v``, from its subgraph alone."""
    if predictor._graph is None or predictor._conv is None:
        raise AttackError("predictor not fitted")
    sub = extract_enclosing_subgraph(
        predictor._graph, u, v,
        predictor.hops, predictor.max_nodes, predictor.max_label,
    )
    return scalar_forward(predictor, sub)[0]


def scalar_score_links(
    predictor: GnnLinkPredictor, pairs: list[tuple[int, int]]
) -> np.ndarray:
    """The per-link loop over :func:`scalar_score_link`."""
    return np.array(
        [scalar_score_link(predictor, u, v) for u, v in pairs],
        dtype=np.float64,
    )
