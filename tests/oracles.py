"""Reference implementations kept only as equivalence oracles.

``src/`` keeps one implementation of each hot-path concept. The plain,
unoptimised versions they replaced live here so tests and the
micro-benchmarks can check (and time) the fast paths against them:

* :func:`bfs_has_path` — reachability as an unbounded breadth-first
  search over the whole fanout cone. :meth:`~repro.netlist.netlist.
  Netlist.has_path`, pruned by the topological index, must give the
  same answer on every query.
* :func:`deque_topological_order` — the Kahn sort counting in-degrees
  from the fanins with a ``deque`` of ready gates;
  :meth:`~repro.netlist.netlist.Netlist.topological_order` must return
  the identical list (and the identical cycle error).
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
* :func:`scalar_link_feature_vector` — the MuxLink-MLP link descriptor
  one pair at a time, masking an observed edge by removing it from the
  graph and running a full bounded BFS. The analytic masking in
  :func:`~repro.attacks.muxlink.features.link_feature_matrix` must match
  it bit for bit.
* :func:`loop_fit` / :func:`loop_mlp_fit` — the MLP training loop that
  gathers ``x[idx]`` per minibatch, forms every input gradient and steps
  a :class:`PerParamAdam`; :func:`~repro.ml.network.fit` and
  :meth:`~repro.attacks.muxlink.mlp_predictor.MlpLinkPredictor.fit` must
  match it bit for bit.
* :func:`rebuild_extract_observed` — the observed-graph builder going
  through ``add_node``/``add_edge`` and re-testing every gate for being
  a key MUX.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

import numpy as np

from repro.attacks.muxlink.features import (
    KEYGATE_KIND_VOCAB,
    LINK_FEATURE_DIM,
    N_KEYGATE_KINDS,
    N_TYPES,
    link_feature_dim,
    make_training_pairs,
    subgraph_feature_matrix,
    type_index,
)
from repro.attacks.muxlink.gnn import GnnLinkPredictor, normalized_adjacency
from repro.attacks.muxlink.graph import (
    KEYGATE_KIND_BIT,
    MuxQuery,
    ObservedGraph,
)
from repro.attacks.muxlink.mlp_predictor import MlpLinkPredictor
from repro.attacks.muxlink.subgraph import (
    EnclosingSubgraph,
    extract_enclosing_subgraph,
    extract_enclosing_subgraphs,
)
from repro.errors import AttackError, LockingError, NetlistError
from repro.locking.base import LockedCircuit
from repro.locking.genome_lock import genotype_scheme_name
from repro.locking.key import Key
from repro.locking.primitives import Gene, primitive_for_gene
from repro.ml.layers import Linear, Param, ReLU
from repro.ml.losses import bce_with_logits
from repro.ml.network import Sequential
from repro.ml.optim import Adam
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.utils.rng import derive_rng, spawn_seeds


# ------------------------------------------------------------------ netlist
def bfs_has_path(netlist: Netlist, src: str, dst: str) -> bool:
    """True if a directed path ``src`` ⇝ ``dst`` exists (src == dst counts)."""
    if not netlist.is_signal(src) or not netlist.is_signal(dst):
        raise NetlistError(f"has_path: unknown signal {src!r} or {dst!r}")
    if src == dst:
        return True
    fanouts = netlist.fanouts()
    seen = {src}
    frontier = deque([src])
    while frontier:
        sig = frontier.popleft()
        for consumer, _pin in fanouts.get(sig, []):
            if consumer == dst:
                return True
            if consumer not in seen:
                seen.add(consumer)
                frontier.append(consumer)
    return False


def deque_topological_order(netlist: Netlist) -> list[str]:
    """Gate names in dependency order; raises on a combinational cycle."""
    indeg: dict[str, int] = {}
    for gate in netlist.gates.values():
        indeg[gate.name] = sum(1 for src in gate.fanins if src in netlist.gates)
    ready = deque(sorted(n for n, d in indeg.items() if d == 0))
    fanouts = netlist.fanouts()
    order: list[str] = []
    while ready:
        name = ready.popleft()
        order.append(name)
        for consumer, _pin in fanouts.get(name, []):
            indeg[consumer] -= 1
            if indeg[consumer] == 0:
                ready.append(consumer)
    if len(order) != len(netlist.gates):
        stuck = sorted(set(netlist.gates) - set(order))[:5]
        raise NetlistError(
            f"combinational cycle detected involving gates near {stuck}"
        )
    return order


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


# ------------------------------------------------------------ MLP features
def _bounded_distance(graph: ObservedGraph, u: int, v: int, limit: int = 4) -> int:
    """Shortest-path length u→v up to ``limit`` (limit+1 = unreachable)."""
    if u == v:
        return 0
    dist = {u: 0}
    frontier = deque([u])
    while frontier:
        node = frontier.popleft()
        d = dist[node]
        if d == limit:
            continue
        for nxt in graph.adj[node]:
            if nxt == v:
                return d + 1
            if nxt not in dist:
                dist[nxt] = d + 1
                frontier.append(nxt)
    return limit + 1


def _neighbor_type_histogram(graph: ObservedGraph, u: int) -> np.ndarray:
    hist = np.zeros(N_TYPES, dtype=np.float64)
    for nxt in graph.adj[u]:
        hist[type_index(graph.gtypes[nxt])] += 1.0
    total = hist.sum()
    return hist / total if total > 0 else hist


def _level_delta_onehot(delta: int) -> np.ndarray:
    onehot = np.zeros(7, dtype=np.float64)
    onehot[int(np.clip(delta + 2, 0, 6))] = 1.0
    return onehot


def scalar_link_feature_vector(
    graph: ObservedGraph, u: int, v: int, keygate_cols: bool = False
) -> np.ndarray:
    """Descriptor of ``u → v`` with the edge masked in place if present.

    Removes the edge from ``graph``, runs a full bounded BFS and
    rebuilds both neighbour histograms, then restores the edge.
    """
    removed = graph.remove_undirected(u, v)
    try:
        feats = np.zeros(link_feature_dim(keygate_cols), dtype=np.float64)
        feats[type_index(graph.gtypes[u])] = 1.0
        feats[N_TYPES + type_index(graph.gtypes[v])] = 1.0
        base = 2 * N_TYPES
        deg_u, deg_v = graph.degree(u), graph.degree(v)
        feats[base + 0] = np.log1p(deg_u)
        feats[base + 1] = np.log1p(deg_v)
        feats[base + 2] = np.log1p(min(deg_u, deg_v))
        base += 3
        common = graph.adj[u] & graph.adj[v]
        union = graph.adj[u] | graph.adj[v]
        feats[base + 0] = float(len(common))
        feats[base + 1] = len(common) / len(union) if union else 0.0
        feats[base + 2] = float(
            sum(1.0 / np.log1p(graph.degree(w)) for w in common if graph.degree(w) > 1)
        )
        base += 3
        dist = _bounded_distance(graph, u, v, limit=4)
        feats[base + min(dist, 5)] = 1.0
        base += 6
        feats[base : base + 7] = _level_delta_onehot(graph.levels[v] - graph.levels[u])
        base += 7
        max_level = max(max(graph.levels), 1)
        feats[base + 0] = graph.levels[u] / max_level
        feats[base + 1] = graph.levels[v] / max_level
        base += 2
        feats[base : base + N_TYPES] = _neighbor_type_histogram(graph, u)
        feats[base + N_TYPES : base + 2 * N_TYPES] = _neighbor_type_histogram(graph, v)
        if keygate_cols:
            ku = graph.keygate_kinds.get(u)
            if ku is not None:
                feats[LINK_FEATURE_DIM + KEYGATE_KIND_VOCAB.index(ku)] = 1.0
            kv = graph.keygate_kinds.get(v)
            if kv is not None:
                feats[
                    LINK_FEATURE_DIM + N_KEYGATE_KINDS + KEYGATE_KIND_VOCAB.index(kv)
                ] = 1.0
        return feats
    finally:
        if removed:
            graph.restore_undirected(u, v)


def scalar_link_feature_matrix(
    graph: ObservedGraph,
    pairs: list[tuple[int, int]],
    keygate_cols: bool = False,
) -> np.ndarray:
    """:func:`scalar_link_feature_vector` stacked row by row."""
    out = np.zeros((len(pairs), link_feature_dim(keygate_cols)))
    for row, (u, v) in enumerate(pairs):
        out[row] = scalar_link_feature_vector(graph, u, v, keygate_cols)
    return out


# ------------------------------------------------------------ MLP training
def loop_fit(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    loss_fn,
    optimizer,
    epochs: int = 50,
    batch_size: int = 64,
    seed_or_rng=None,
) -> list[float]:
    """Minibatch loop gathering ``x[idx]`` per step, full backward pass."""
    rng = derive_rng(seed_or_rng)
    n = len(x)
    history: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        losses: list[float] = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            out = model.forward(x[idx], train=True)
            loss, grad = loss_fn(out, y[idx])
            model.backward(grad)
            optimizer.step()
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


def loop_mlp_fit(
    predictor: MlpLinkPredictor, graph: ObservedGraph, seed_or_rng=None
) -> None:
    """Train ``predictor`` like :meth:`MlpLinkPredictor.fit`, the old way.

    Scalar masked features, :func:`loop_fit` and :class:`PerParamAdam`;
    draws the same pairs, weights and minibatch order.
    """
    rng = derive_rng(seed_or_rng)
    seeds = spawn_seeds(rng, 4)
    pairs, labels = make_training_pairs(graph, predictor.n_train, seeds[0])
    if not pairs:
        raise AttackError("observed graph has no wires to train on")
    x = scalar_link_feature_matrix(graph, pairs, predictor.keygate_cols)
    predictor._mu = x.mean(axis=0)
    predictor._sigma = x.std(axis=0) + 1e-8
    x_norm = (x - predictor._mu) / predictor._sigma
    if predictor._col_weights is not None:
        x_norm = x_norm * predictor._col_weights
    h1, h2 = predictor.hidden
    predictor._model = Sequential(
        [
            Linear(x.shape[1], h1, seed_or_rng=seeds[1], name="l1"),
            ReLU(),
            Linear(h1, h2, seed_or_rng=seeds[2], name="l2"),
            ReLU(),
            Linear(h2, 1, seed_or_rng=seeds[3], name="out"),
        ]
    )
    predictor.train_history = loop_fit(
        predictor._model,
        x_norm,
        labels.reshape(-1, 1),
        bce_with_logits,
        PerParamAdam(predictor._model.params(), lr=predictor.lr),
        epochs=predictor.epochs,
        batch_size=predictor.batch_size,
        seed_or_rng=rng,
    )
    predictor._graph = graph


# ----------------------------------------------------------- observed graph
def rebuild_extract_observed(
    netlist: Netlist,
) -> tuple[ObservedGraph, list[MuxQuery]]:
    """Observed graph via ``add_node``/``add_edge``, re-testing every gate."""
    key_set = set(netlist.key_inputs)
    graph = ObservedGraph()

    def is_key_mux(name: str) -> bool:
        gate = netlist.gates.get(name)
        return (
            gate is not None
            and gate.gtype is GateType.MUX
            and gate.fanins[0] in key_set
        )

    for sig in netlist.inputs:
        graph.add_node(sig, "PI", gate=False)
    for gate in netlist.gates.values():
        if not is_key_mux(gate.name):
            graph.add_node(gate.name, gate.gtype.value, gate=True)

    mux_consumers: dict[str, list[str]] = {}
    for gate in netlist.gates.values():
        if is_key_mux(gate.name):
            continue
        g_idx = graph.index[gate.name]
        for src in gate.fanins:
            if src in key_set:
                if gate.gtype.value in KEYGATE_KIND_BIT:
                    graph.keygate_kinds[g_idx] = gate.gtype.value
                continue
            if is_key_mux(src):
                mux_consumers.setdefault(src, []).append(gate.name)
                continue
            graph.add_edge(graph.index[src], g_idx)

    queries: list[MuxQuery] = []
    for gate in netlist.gates.values():
        if not is_key_mux(gate.name):
            continue
        sel, d0, d1 = gate.fanins
        consumers = tuple(mux_consumers.get(gate.name, ()))
        if is_key_mux(d0) or is_key_mux(d1):
            continue
        queries.append(
            MuxQuery(mux=gate.name, key_name=sel, d0=d0, d1=d1, consumers=consumers)
        )
    graph.compute_levels()
    return graph, queries
