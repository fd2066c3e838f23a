"""Message-passing GNN link predictor (DGCNN-style, pure numpy).

Mirrors the published MuxLink architecture at reduced scale: stacked
graph-convolution layers over the DRNL-labelled enclosing subgraph, a
centre+mean readout (in place of SortPooling — see DESIGN.md §3), and an
MLP head. Forward and backward passes are hand-derived; the test suite
validates them against finite differences.

Per layer (``S`` = row-normalised adjacency with self-loops, a constant):

.. math::  Z_l = \\tanh(S\\, Z_{l-1} W_l)

with gradients ``dW_l = (S Z_{l-1})^T dA`` and
``dZ_{l-1} = S^T (dA W_l^T)`` where ``dA = dZ_l · (1 - Z_l²)``.

Scoring and training are batched: a whole population of candidate
links is scored per call — the enclosing subgraphs are extracted in one
vectorised pass, their row-normalised adjacencies assembled into one
block-diagonal sparse operator (:class:`_BlockDiagAdj`), the conv stack
runs once over the stacked node set, and the centre+mean readout feeds
the MLP head one ``(B, 3·emb)`` batch. Training builds the operator, its
transpose and the first layer's ``S X`` once per fit over all training
subgraphs; each epoch restacks them in its shuffled order with one
gather, and each minibatch step slices its blocks out of that
permutation, leaving only weight-dependent work in the step. The slices
are bitwise the operator and ``S X`` the minibatch's own subgraphs would
build. The historical one-subgraph-at-a-time pipeline lives on only as a
test oracle (``tests/oracles.py``); the two agree to ~1e-9 in the
logits, because batched reductions reassociate floating-point sums.
"""

from __future__ import annotations

import time

import numpy as np

from repro.attacks.muxlink.features import (
    check_training_budget,
    make_training_pairs,
    subgraph_feature_matrix_stack,
)
from repro.attacks.muxlink.graph import ObservedGraph
from repro.attacks.muxlink.subgraph import (
    EnclosingSubgraph,
    _gather_slices,
    extract_enclosing_subgraphs,
)
from repro.errors import AttackError
from repro.obs import metrics as obs_metrics
from repro.registry import register_predictor
from repro.ml.layers import Linear, Param, ReLU
from repro.ml.losses import bce_with_logits
from repro.ml.network import Sequential
from repro.ml.optim import Adam
from repro.utils.rng import derive_rng, spawn_seeds

#: batch-size buckets for the links-per-call histogram (powers of two,
#: not latencies).
_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)

_GNN_BATCH_LINKS = obs_metrics.METRICS.histogram(
    "autolock_gnn_batch_links",
    "Candidate links per GnnLinkPredictor.score_links call",
    buckets=_SIZE_BUCKETS,
)
_GNN_STAGE_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_gnn_score_seconds",
    "Batched GNN scoring wall time split by stage",
    labels=("stage",),
)
def normalized_adjacency(adj: np.ndarray) -> np.ndarray:
    """Row-normalised ``A + I`` (mean-aggregation message passing)."""
    a_hat = adj + np.eye(len(adj))
    return a_hat / a_hat.sum(axis=1, keepdims=True)


class _BlockDiagAdj:
    """Block-diagonal row-normalised adjacency over stacked subgraphs.

    CSR-encoded so a batch of B subgraphs costs one sparse matmul per
    conv layer instead of B dense ones. Supports ``s @ z`` and
    ``s.T @ z``, which is all :class:`_GraphConvStack` needs — the stack
    runs unchanged over a single dense adjacency or a whole batch. Every
    row and column holds at least the self-loop, so ``np.add.reduceat``
    segment sums are well-defined in both orientations.

    CSR order inside a block does not depend on where the block sits, so
    restacking or slicing whole blocks (:meth:`take_blocks`,
    :meth:`block_rows`) yields bitwise the operator
    :meth:`from_subgraphs` builds for the same subgraphs.
    """

    __slots__ = ("n", "indptr", "indices", "data", "_t")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        t: _BlockDiagAdj | None = None,
    ) -> None:
        self.n = indptr.size - 1
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._t = t

    @classmethod
    def from_subgraphs(cls, subs: list[EnclosingSubgraph]) -> _BlockDiagAdj:
        blocks = [normalized_adjacency(sub.adj) for sub in subs]
        rows_l: list[np.ndarray] = []
        cols_l: list[np.ndarray] = []
        data_l: list[np.ndarray] = []
        offset = 0
        for block in blocks:
            r, c = np.nonzero(block)
            rows_l.append(r + offset)
            cols_l.append(c + offset)
            data_l.append(block[r, c])
            offset += block.shape[0]
        rows = np.concatenate(rows_l)
        cols = np.concatenate(cols_l)
        data = np.concatenate(data_l)
        counts = np.bincount(rows, minlength=offset)
        indptr = np.zeros(offset + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # np.nonzero emits row-major order per block and blocks are
        # appended in order, so (rows, cols, data) is already CSR-sorted.
        return cls(indptr, cols, data)

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        contrib = self.data[:, None] * z[self.indices]
        return np.add.reduceat(contrib, self.indptr[:-1], axis=0)

    def transposed(self) -> _BlockDiagAdj:
        """The transposed operator, holding no reference back to ``self``."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        order = np.lexsort((rows, self.indices))
        counts = np.bincount(self.indices, minlength=self.n)
        t_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=t_indptr[1:])
        return _BlockDiagAdj(t_indptr, rows[order], self.data[order])

    @property
    def T(self) -> _BlockDiagAdj:
        if self._t is None:
            self._t = self.transposed()
            self._t._t = self
        return self._t

    def take_blocks(
        self, bounds: np.ndarray, order: np.ndarray
    ) -> tuple[_BlockDiagAdj, np.ndarray]:
        """Blocks ``order`` restacked in that order, plus the node permutation.

        Block ``b`` spans nodes ``bounds[b] : bounds[b + 1]``. One
        vectorised gather moves every block's rows, entries and column
        indices; the returned node permutation reorders row-aligned data
        (features, ``s @ x``) the same way.
        """
        starts = bounds[order]
        sizes = bounds[order + 1] - starts
        nodes = _gather_slices(starts, sizes, np.arange(self.n))
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.diff(self.indptr)[nodes], out=indptr[1:])
        e_starts = self.indptr[starts]
        e_sizes = self.indptr[starts + sizes] - e_starts
        entries = _gather_slices(e_starts, e_sizes, np.arange(self.data.size))
        new_starts = np.zeros(order.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=new_starts[1:])
        indices = self.indices[entries] + np.repeat(new_starts - starts, e_sizes)
        return _BlockDiagAdj(indptr, indices, self.data[entries]), nodes

    def block_rows(
        self, lo: int, hi: int, t: _BlockDiagAdj | None = None
    ) -> _BlockDiagAdj:
        """Nodes ``lo:hi``, a run of whole blocks, as their own operator.

        ``data`` is a view; ``t`` (the same slice of the transpose) is
        linked one way only, so the slice forms no reference cycle.
        """
        e0, e1 = self.indptr[lo], self.indptr[hi]
        return _BlockDiagAdj(
            self.indptr[lo : hi + 1] - e0,
            self.indices[e0:e1] - lo,
            self.data[e0:e1],
            t,
        )


class _GraphConvStack:
    """Stacked tanh graph convolutions with manual backprop.

    ``s`` may be a dense ``(n, n)`` row-normalised adjacency or a
    :class:`_BlockDiagAdj` over a stacked batch — forward and backward
    only ever use ``s @ x`` and ``s.T @ x``.
    """

    def __init__(self, in_dim: int, hidden_dims: tuple[int, ...], seed_or_rng=None):
        rng = derive_rng(seed_or_rng)
        self.weights: list[Param] = []
        prev = in_dim
        for i, dim in enumerate(hidden_dims):
            bound = np.sqrt(6.0 / (prev + dim))
            self.weights.append(
                Param(rng.uniform(-bound, bound, size=(prev, dim)), name=f"gc{i}.W")
            )
            prev = dim
        self.out_dim = int(sum(hidden_dims))
        self._cache: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._s: np.ndarray | _BlockDiagAdj | None = None

    def forward(
        self, s: np.ndarray | _BlockDiagAdj, x: np.ndarray
    ) -> np.ndarray:
        """Return per-node embeddings: concat of all layer outputs."""
        return self.forward_sx(s, s @ x)

    def forward_sx(
        self, s: np.ndarray | _BlockDiagAdj, sx: np.ndarray
    ) -> np.ndarray:
        """:meth:`forward` from the first layer's ``s @ x``.

        ``s @ x`` does not depend on the weights, so training computes it
        once per fit instead of once per step.
        """
        self._s = s
        self._cache = []
        sz = sx
        outs = []
        for layer, w in enumerate(self.weights):
            if layer:
                sz = s @ z
            z = np.tanh(sz @ w.value)
            self._cache.append((sz, z))
            outs.append(z)
        return np.concatenate(outs, axis=1)

    def backward(self, d_h: np.ndarray) -> None:
        """Accumulate weight gradients from the concatenated embedding grad.

        The input gradient of the first layer is never formed: nothing
        upstream of the features is trainable.
        """
        assert self._cache is not None and self._s is not None, "backward before forward"
        # Split d_h back into per-layer chunks.
        chunks: list[np.ndarray] = []
        start = 0
        for w in self.weights:
            dim = w.value.shape[1]
            chunks.append(d_h[:, start : start + dim])
            start += dim
        carry: np.ndarray | None = None
        for layer in range(len(self.weights) - 1, -1, -1):
            sz, z = self._cache[layer]
            dz = chunks[layer] if carry is None else chunks[layer] + carry
            da = dz * (1.0 - z**2)
            self.weights[layer].grad += sz.T @ da
            if layer:
                carry = self._s.T @ (da @ self.weights[layer].value.T)

    def params(self) -> list[Param]:
        return list(self.weights)


@register_predictor("gnn")
class GnnLinkPredictor:
    """Enclosing-subgraph GNN with centre+mean readout and MLP head."""

    name = "gnn"

    def __init__(
        self,
        hidden_dims: tuple[int, ...] = (32, 32, 16),
        mlp_hidden: int = 32,
        hops: int = 2,
        epochs: int = 12,
        lr: float = 5e-3,
        n_train: int = 220,
        max_nodes: int = 100,
        max_label: int = 8,
    ) -> None:
        check_training_budget(n_train, epochs, lr)
        self.hidden_dims = hidden_dims
        self.mlp_hidden = mlp_hidden
        self.hops = hops
        self.epochs = epochs
        self.lr = lr
        self.n_train = n_train
        self.max_nodes = max_nodes
        self.max_label = max_label
        self._graph: ObservedGraph | None = None
        self._conv: _GraphConvStack | None = None
        self._head: Sequential | None = None
        self.train_history: list[float] = []

    # -- model plumbing ------------------------------------------------
    def _feature_dim(self) -> int:
        from repro.attacks.muxlink.features import subgraph_feature_dim

        return subgraph_feature_dim(self.max_label)

    def _build(self, seed_or_rng) -> None:
        rng = derive_rng(seed_or_rng)
        seeds = spawn_seeds(rng, 3)
        self._conv = _GraphConvStack(self._feature_dim(), self.hidden_dims, seeds[0])
        emb = self._conv.out_dim
        self._head = Sequential(
            [
                Linear(3 * emb, self.mlp_hidden, seed_or_rng=seeds[1], name="h1"),
                ReLU(),
                Linear(self.mlp_hidden, 1, seed_or_rng=seeds[2], name="out"),
            ]
        )

    def _forward_batch(
        self, subs: list[EnclosingSubgraph], train: bool = False
    ) -> tuple[np.ndarray, dict]:
        """Logits for a batch of subgraphs via one block-diagonal pass."""
        x = subgraph_feature_matrix_stack(self._graph, subs, self.max_label)
        s = _BlockDiagAdj.from_subgraphs(subs)
        counts = np.array([sub.n_nodes for sub in subs], dtype=np.int64)
        return self._forward_stacked(s, s @ x, counts, train)

    def _forward_stacked(
        self,
        s: _BlockDiagAdj,
        sx: np.ndarray,
        counts: np.ndarray,
        train: bool,
    ) -> tuple[np.ndarray, dict]:
        """Logits for stacked subgraphs of ``counts`` nodes each.

        The conv stack runs once over the stacked node set from the
        first layer's ``s @ x``; the centre+mean readout is gathered
        with segment offsets (positions 0/1 of each block are the
        candidate endpoints) so the MLP head scores all B logits in a
        single forward.
        """
        assert self._conv is not None and self._head is not None
        h = self._conv.forward_sx(s, sx)  # (n_total, emb)
        offsets = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        means = np.add.reduceat(h, offsets, axis=0) / counts[:, None]
        readout = np.concatenate(
            [h[offsets], h[offsets + 1], means], axis=1
        )  # (B, 3*emb)
        logits = self._head.forward(readout, train=train)[:, 0]
        ctx = {"counts": counts, "offsets": offsets, "emb": h.shape[1]}
        return logits, ctx

    def _backward_batch(self, d_logits: np.ndarray, ctx: dict) -> None:
        """Backward through :meth:`_forward_batch`'s segment readout."""
        assert self._conv is not None and self._head is not None
        d_read = self._head.backward(d_logits.reshape(-1, 1))  # (B, 3*emb)
        emb = ctx["emb"]
        counts, offsets = ctx["counts"], ctx["offsets"]
        # Mean-readout gradient spreads over each block's rows; the two
        # centre rows (segment offsets +0/+1, always distinct — every
        # subgraph holds both endpoints) add their direct terms.
        d_h = np.repeat(d_read[:, 2 * emb :] / counts[:, None], counts, axis=0)
        d_h[offsets] += d_read[:, :emb]
        d_h[offsets + 1] += d_read[:, emb : 2 * emb]
        self._conv.backward(d_h)

    def params(self) -> list[Param]:
        assert self._conv is not None and self._head is not None
        return self._conv.params() + self._head.params()

    # -- public API ------------------------------------------------------
    def fit(self, graph: ObservedGraph, seed_or_rng=None) -> None:
        """Self-supervised training on enclosing subgraphs of wire samples.

        The operator, its transpose and the first layer's ``s @ x`` are
        built once; each epoch permutes them and each step takes a slice.
        """
        rng = derive_rng(seed_or_rng)
        self._graph = graph
        self._build(rng)
        pairs, labels = make_training_pairs(graph, self.n_train, rng)
        if not pairs:
            raise AttackError("observed graph has no wires to train on")
        subs = extract_enclosing_subgraphs(
            graph, pairs, self.hops, self.max_nodes, self.max_label
        )
        counts = np.array([sub.n_nodes for sub in subs], dtype=np.int64)
        s_all = _BlockDiagAdj.from_subgraphs(subs)
        sx_all = s_all @ subgraph_feature_matrix_stack(graph, subs, self.max_label)
        # transposed(), not .T: a back-link would make a reference cycle.
        st_all = s_all.transposed()
        del subs
        bounds = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        optimizer = Adam(self.params(), lr=self.lr)
        self.train_history = []
        order = np.arange(counts.size)
        batch = 8
        for _ in range(self.epochs):
            rng.shuffle(order)
            s_ep, nodes = s_all.take_blocks(bounds, order)
            st_ep, _ = st_all.take_blocks(bounds, order)
            sx_ep = sx_all[nodes]
            counts_ep = counts[order]
            bounds_ep = np.zeros_like(bounds)
            np.cumsum(counts_ep, out=bounds_ep[1:])
            losses = []
            for start in range(0, order.size, batch):
                stop = min(start + batch, order.size)
                lo, hi = bounds_ep[start], bounds_ep[stop]
                s = s_ep.block_rows(lo, hi, t=st_ep.block_rows(lo, hi))
                logits, ctx = self._forward_stacked(
                    s, sx_ep[lo:hi], counts_ep[start:stop], train=True
                )
                # reduction="sum" makes the one batched backward
                # gradient-equivalent to one pass per sample; the
                # repeated batch-mean keeps train_history the per-sample
                # epoch mean.
                loss_sum, d = bce_with_logits(
                    logits, labels[order[start:stop]], reduction="sum"
                )
                self._backward_batch(d, ctx)
                losses.extend([loss_sum / (stop - start)] * (stop - start))
                optimizer.step()
            self.train_history.append(float(np.mean(losses)))

    def score_link(self, u: int, v: int) -> float:
        """Logit that ``u`` truly drives ``v``."""
        return float(self.score_links([(u, v)])[0])

    def score_links(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """Logits for many links in one block-diagonal batched pass."""
        if self._graph is None or self._conv is None:
            raise AttackError("predictor not fitted")
        _GNN_BATCH_LINKS.observe(len(pairs))
        if not pairs:
            return np.zeros(0, dtype=np.float64)
        started = time.perf_counter()
        subs = extract_enclosing_subgraphs(
            self._graph, pairs, self.hops, self.max_nodes, self.max_label
        )
        _GNN_STAGE_SECONDS.observe(
            time.perf_counter() - started, stage="extract"
        )
        started = time.perf_counter()
        logits, _ = self._forward_batch(subs, train=False)
        _GNN_STAGE_SECONDS.observe(
            time.perf_counter() - started, stage="forward"
        )
        return np.asarray(logits, dtype=np.float64)
