"""Feature engineering for the MuxLink link predictors.

Two feature families:

* :func:`subgraph_feature_matrix` — per-node features for the GNN
  (gate-type one-hot ⊕ DRNL one-hot ⊕ scaled degree);
* :func:`link_feature_matrix` — fixed-length descriptors of candidate
  links for the fast MLP predictor (endpoint types, degrees, common-
  neighbour statistics, bounded distance, neighbourhood type histograms),
  one vectorised pass over a whole batch of pairs; observed edges are
  masked analytically, so extraction never mutates the graph.

Plus :func:`make_training_pairs`, the self-supervised sampler: positives
are observed wires, negatives are non-adjacent (signal, gate) pairs drawn
to match the direction convention of real wires.
"""

from __future__ import annotations

import math
import numbers
from itertools import chain

import numpy as np

from repro.attacks.muxlink.graph import ObservedGraph
from repro.attacks.muxlink.subgraph import EnclosingSubgraph
from repro.errors import AttackError
from repro.utils.rng import derive_rng

#: Fixed gate-type vocabulary (index = one-hot position).
GATE_TYPE_VOCAB: list[str] = [
    "PI",
    "BUF",
    "NOT",
    "AND",
    "NAND",
    "OR",
    "NOR",
    "XOR",
    "XNOR",
    "MUX",
    "CONST0",
    "CONST1",
]
_TYPE_INDEX = {t: i for i, t in enumerate(GATE_TYPE_VOCAB)}
N_TYPES = len(GATE_TYPE_VOCAB)


def type_index(gtype: str) -> int:
    """Vocabulary index of a gate-type string (unknown types -> PI slot)."""
    return _TYPE_INDEX.get(gtype, 0)


def graph_type_indices(graph: ObservedGraph) -> np.ndarray:
    """Per-node :func:`type_index` array, cached on the graph.

    Gate types never change after construction; only adjacency is ever
    masked/restored, so the cache needs no invalidation beyond a length
    check (nodes are append-only).
    """
    gtypes = graph.gtypes
    cached = getattr(graph, "_gtype_idx", None)
    if cached is None or len(cached) != len(gtypes):
        cached = np.fromiter(
            (type_index(t) for t in gtypes), dtype=np.intp, count=len(gtypes)
        )
        graph._gtype_idx = cached
    return cached


#: extra per-node feature slots beyond type/DRNL one-hots: log-degree plus
#: clipped level offsets to the two link endpoints.
SUBGRAPH_EXTRA_FEATURES = 3


def subgraph_feature_dim(max_label: int = 8) -> int:
    """Width of :func:`subgraph_feature_matrix` rows."""
    return N_TYPES + max_label + 1 + SUBGRAPH_EXTRA_FEATURES


def subgraph_feature_matrix(
    graph: ObservedGraph, sub: EnclosingSubgraph, max_label: int = 8
) -> np.ndarray:
    """Per-node GNN features: type one-hot ⊕ DRNL one-hot ⊕ degree/levels.

    The level offsets to the candidate driver (position 0) and consumer
    (position 1) give the GNN the same locality signal the MLP features
    encode, without which D-MUX decoys are nearly indistinguishable.
    """
    n = sub.n_nodes
    feats = np.zeros((n, subgraph_feature_dim(max_label)), dtype=np.float64)
    lvl_u = graph.levels[sub.node_ids[0]]
    lvl_v = graph.levels[sub.node_ids[1]]
    for pos, nid in enumerate(sub.node_ids):
        feats[pos, type_index(graph.gtypes[nid])] = 1.0
        feats[pos, N_TYPES + int(sub.drnl[pos])] = 1.0
        feats[pos, -3] = np.log1p(graph.degree(nid))
        feats[pos, -2] = np.clip(graph.levels[nid] - lvl_u, -4, 4) / 4.0
        feats[pos, -1] = np.clip(graph.levels[nid] - lvl_v, -4, 4) / 4.0
    return feats


def subgraph_feature_matrix_stack(
    graph: ObservedGraph,
    subs: list[EnclosingSubgraph],
    max_label: int = 8,
) -> np.ndarray:
    """Row-stacked :func:`subgraph_feature_matrix` for a batch of subgraphs.

    One vectorised pass over the concatenated node lists instead of a
    Python loop per node: one-hots via fancy indexing, degrees read from
    the CSR snapshot, level offsets via per-graph repeats. The
    elementwise ops (``log1p``/``clip``) match the scalar builder, so
    each block equals its per-subgraph matrix.
    """
    if not subs:
        return np.zeros((0, subgraph_feature_dim(max_label)))
    gtype_idx = graph_type_indices(graph)
    indptr, _ = graph.csr()
    degrees = np.diff(indptr)
    levels = np.asarray(graph.levels, dtype=np.int64)
    counts = np.array([sub.n_nodes for sub in subs], dtype=np.int64)
    offsets = np.zeros(len(subs), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    ids = np.concatenate(
        [np.asarray(sub.node_ids, dtype=np.int64) for sub in subs]
    )
    drnl = np.concatenate([sub.drnl for sub in subs]).astype(np.intp)
    n_total = ids.size
    feats = np.zeros((n_total, subgraph_feature_dim(max_label)))
    rows = np.arange(n_total)
    feats[rows, gtype_idx[ids]] = 1.0
    feats[rows, N_TYPES + drnl] = 1.0
    feats[:, -3] = np.log1p(degrees[ids])
    node_levels = levels[ids]
    lvl_u = np.repeat(levels[ids[offsets]], counts)
    lvl_v = np.repeat(levels[ids[offsets + 1]], counts)
    feats[:, -2] = np.clip(node_levels - lvl_u, -4, 4) / 4.0
    feats[:, -1] = np.clip(node_levels - lvl_v, -4, 4) / 4.0
    return feats


#: width of a :func:`link_feature_matrix` row (the keygate-free prefix)
LINK_FEATURE_DIM = N_TYPES * 2 + 3 + 3 + 6 + 7 + 2 + N_TYPES * 2

#: key-gate kind vocabulary for the opt-in ``keygate_cols`` columns.
KEYGATE_KIND_VOCAB: list[str] = ["XOR", "XNOR", "AND", "OR"]
_KEYGATE_INDEX = {k: i for i, k in enumerate(KEYGATE_KIND_VOCAB)}
N_KEYGATE_KINDS = len(KEYGATE_KIND_VOCAB)


def link_feature_dim(keygate_cols: bool = False) -> int:
    """Row width of the link descriptors.

    With ``keygate_cols`` the byte-identical :data:`LINK_FEATURE_DIM`
    prefix is followed by two per-endpoint key-gate-kind one-hots, so
    ``xor``/``and_or`` insertions become visible to the predictors.
    """
    return LINK_FEATURE_DIM + (2 * N_KEYGATE_KINDS if keygate_cols else 0)


def feature_group_slices(keygate_cols: bool = False) -> dict[str, slice]:
    """Named column groups of a link descriptor (for feature weighting).

    Slices partition the full row; group names are the vocabulary used by
    the MLP predictor's ``feature_weights`` knob and the attacker-genome
    ``feature_weight_*`` fields.
    """
    b = 0
    groups: dict[str, slice] = {}
    for name, width in (
        ("types", 2 * N_TYPES),
        ("degrees", 3),
        ("common", 3),
        ("distance", 6),
        ("level_delta", 7),
        ("levels", 2),
        ("hist", 2 * N_TYPES),
    ):
        groups[name] = slice(b, b + width)
        b += width
    if keygate_cols:
        groups["keygate"] = slice(b, b + 2 * N_KEYGATE_KINDS)
    return groups


def _reach2(adj: list[set[int]], src: int, skip: int) -> tuple[set[int], set[int]]:
    """Nodes at distance 1, and at distance 1 or 2, from ``src``.

    The edge ``src``–``skip``, if present, is left out. Only the first
    hop can cross that edge: from any neighbour ``w ≠ skip`` a second
    hop never uses it.
    """
    hop1 = adj[src]
    if skip in hop1:
        hop1 = hop1 - {skip}
    return hop1, hop1.union(*[adj[w] for w in hop1])


def link_feature_vector(
    graph: ObservedGraph, u: int, v: int, keygate_cols: bool = False
) -> np.ndarray:
    """Descriptor of the single candidate link ``u → v``.

    One row of :func:`link_feature_matrix`, which documents the layout
    and the masking of observed edges.
    """
    return link_feature_matrix(graph, [(u, v)], keygate_cols=keygate_cols)[0]


def link_feature_matrix(
    graph: ObservedGraph,
    pairs: list[tuple[int, int]],
    keygate_cols: bool = False,
) -> np.ndarray:
    """Descriptors of candidate links ``u → v``, one row per pair.

    Layout: [type(u) | type(v) | log-degrees(u, v, min) | CN, Jaccard,
    Adamic-Adar | distance one-hot (1..5+) | level-delta one-hot |
    scaled levels | neighbour-type hist(u) | neighbour-type hist(v)].
    ``keygate_cols`` appends two key-gate-kind one-hots after that
    prefix, leaving the first :data:`LINK_FEATURE_DIM` columns
    byte-identical to the historical extractor.

    A pair that is an observed edge is described with that edge masked
    (the SEAL convention: the link being predicted must not be visible
    to its own features). The mask is applied analytically and the graph
    is never mutated: both endpoint degrees drop by one, each endpoint's
    neighbour-type counts lose the other endpoint's type, and the common
    neighbours — hence CN, Jaccard and the Adamic-Adar sum, with the
    same set iteration order — are unchanged. Distances come from the
    radius-2 neighbourhoods of both endpoints (with the masked edge
    skipped), which settle every distance up to 4 exactly; unmasked
    neighbourhoods are cached per call. Every row is bit-identical to
    masking the edge in place and extracting the pair on its own.
    """
    n = len(pairs)
    out = np.zeros((n, link_feature_dim(keygate_cols)), dtype=np.float64)
    if not pairs:
        return out
    levels = graph.levels
    adj = graph.adj
    max_level = max(max(levels), 1)
    gtype_idx = graph_type_indices(graph)
    reach: dict[int, tuple[set[int], set[int]]] = {}
    inv_log_deg: dict[int, float] = {}

    def reach_of(node: int, peer: int, edge: bool) -> tuple[set[int], set[int]]:
        if edge:  # masked: depends on the peer, so not cached
            return _reach2(adj, node, peer)
        r = reach.get(node)
        if r is None:
            r = reach[node] = _reach2(adj, node, peer)
        return r

    masked = np.zeros(n, dtype=bool)
    deg_u = np.empty(n, dtype=np.int64)
    deg_v = np.empty(n, dtype=np.int64)
    n_common = np.empty(n, dtype=np.int64)
    adamic_adar = np.empty(n, dtype=np.float64)
    dist_slot = np.empty(n, dtype=np.intp)
    for row, (u, v) in enumerate(pairs):
        adj_u, adj_v = adj[u], adj[v]
        edge = v in adj_u
        masked[row] = edge
        deg_u[row] = len(adj_u) - edge
        deg_v[row] = len(adj_v) - edge
        # Neither endpoint is its own neighbour, so masking u–v leaves
        # this set — and the order it is built in — unchanged.
        common = adj_u & adj_v
        n_common[row] = len(common)
        aa = 0
        for w in common:
            if len(adj[w]) > 1:
                term = inv_log_deg.get(w)
                if term is None:
                    term = inv_log_deg[w] = 1.0 / np.log1p(len(adj[w]))
                aa = aa + term
        adamic_adar[row] = aa
        # Distinct endpoints are never adjacent once the pair is masked,
        # so the distance is 2 exactly when they share a neighbour.
        if u == v:
            dist_slot[row] = 0
        elif common:
            dist_slot[row] = 2
        else:
            hop1_u, within2_u = reach_of(u, v, edge)
            _, within2_v = reach_of(v, u, edge)
            if not hop1_u.isdisjoint(within2_v):
                dist_slot[row] = 3
            elif not within2_u.isdisjoint(within2_v):
                dist_slot[row] = 4
            else:
                dist_slot[row] = 5  # farther than 4 hops

    pu = np.fromiter((u for u, _ in pairs), dtype=np.intp, count=n)
    pv = np.fromiter((v for _, v in pairs), dtype=np.intp, count=n)
    rows = np.arange(n)
    tu, tv = gtype_idx[pu], gtype_idx[pv]
    out[rows, tu] = 1.0
    out[rows, N_TYPES + tv] = 1.0
    base = 2 * N_TYPES
    out[:, base + 0] = np.log1p(deg_u)
    out[:, base + 1] = np.log1p(deg_v)
    out[:, base + 2] = np.log1p(np.minimum(deg_u, deg_v))
    base += 3
    # |u ∪ v| = deg(u) + deg(v) − |u ∩ v|; int/int division rounds the
    # exact quotient just as the set-based ratio does.
    n_union = deg_u + deg_v - n_common
    out[:, base + 0] = n_common
    np.divide(n_common, n_union, out=out[:, base + 1], where=n_union > 0)
    out[:, base + 2] = adamic_adar
    base += 3
    out[rows, base + dist_slot] = 1.0  # slots: 0(unused),1,2,3,4,5=farther
    base += 6
    # level(v) - level(u) around the ideal wire delta of 1, slots
    # [Δ<=-2, Δ=-1, Δ=0, Δ=1, Δ=2, Δ=3, Δ>=4]: true wires sit at Δ≈1,
    # D-MUX decoys spread widely — the strongest oracle-less signal.
    lev = np.asarray(levels, dtype=np.int64)
    lev_u, lev_v = lev[pu], lev[pv]
    out[rows, base + np.clip(lev_v - lev_u + 2, 0, 6)] = 1.0
    base += 7
    out[:, base + 0] = lev_u / max_level
    out[:, base + 1] = lev_v / max_level
    base += 2

    # Neighbour-type histograms: integer counts per distinct endpoint,
    # the masked endpoint's type taken back out, over the (masked)
    # degree — exact counts, so each ratio rounds as the scalar one.
    nodes, inverse = np.unique(np.concatenate([pu, pv]), return_inverse=True)
    node_deg = np.fromiter(
        (len(adj[i]) for i in nodes), dtype=np.int64, count=nodes.size
    )
    nbrs = np.fromiter(
        chain.from_iterable(adj[i] for i in nodes),
        dtype=np.intp,
        count=int(node_deg.sum()),
    )
    owner = np.repeat(np.arange(nodes.size), node_deg)
    counts = np.bincount(
        owner * N_TYPES + gtype_idx[nbrs], minlength=nodes.size * N_TYPES
    ).reshape(nodes.size, N_TYPES).astype(np.float64)
    for end, peer_type, deg in (
        (inverse[:n], tv, deg_u),
        (inverse[n:], tu, deg_v),
    ):
        hist = counts[end]
        hist[masked, peer_type[masked]] -= 1.0
        np.divide(
            hist,
            deg[:, None],
            out=out[:, base : base + N_TYPES],
            where=deg[:, None] > 0,
        )
        base += N_TYPES

    if keygate_cols:
        kinds = graph.keygate_kinds
        for row, (u, v) in enumerate(pairs):
            ku = kinds.get(u)
            if ku is not None:
                out[row, LINK_FEATURE_DIM + _KEYGATE_INDEX[ku]] = 1.0
            kv = kinds.get(v)
            if kv is not None:
                out[row, LINK_FEATURE_DIM + N_KEYGATE_KINDS + _KEYGATE_INDEX[kv]] = 1.0
    return out


def check_training_budget(
    n_train: int, epochs: int, lr: float, batch_size: int | None = None
) -> None:
    """Reject predictor hyper-parameters no fit can train with, naming the field.

    :func:`make_training_pairs` draws ``n_train // 2`` wires of each
    label, so fewer than two samples leave nothing to learn from.
    ``batch_size`` is checked only for predictors that take one.
    """
    counts = {"n_train": n_train, "epochs": epochs}
    if batch_size is not None:
        counts["batch_size"] = batch_size
    for field_name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise AttackError(f"{field_name} must be an integer, got {value!r}")
    if n_train < 2:
        raise AttackError(
            f"n_train must be >= 2 (one wire sample per label), got {n_train}"
        )
    if epochs < 1:
        raise AttackError(f"epochs must be >= 1, got {epochs}")
    if batch_size is not None and batch_size < 1:
        raise AttackError(f"batch_size must be >= 1, got {batch_size}")
    if (
        isinstance(lr, bool)
        or not isinstance(lr, numbers.Real)
        or not 0 < lr < math.inf
    ):
        raise AttackError(f"lr must be a finite number > 0, got {lr!r}")


def make_training_pairs(
    graph: ObservedGraph,
    n_samples: int,
    seed_or_rng=None,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Self-supervised training pairs: (pairs, labels).

    Half positives (observed wires), half negatives (non-adjacent pairs
    whose target is a gate node, mirroring the candidate-link shape).
    ``n_samples`` is a target; the actual count may be lower on tiny
    graphs.
    """
    rng = derive_rng(seed_or_rng)
    edges = graph.directed_edges
    if not edges:
        return [], np.zeros(0)
    n_pos = min(n_samples // 2, len(edges))
    pos_idx = rng.choice(len(edges), size=n_pos, replace=False)
    positives = [edges[int(i)] for i in pos_idx]

    # Negatives mirror the D-MUX decoy construction: the false candidate of
    # a MUX pairs the *driver of one real wire* with the *consumer of
    # another*. Training on uniformly random non-edges would mis-match the
    # test distribution and weaken the attack.
    negatives: list[tuple[int, int]] = []
    attempts = 0
    while len(negatives) < n_pos and attempts < 50 * n_pos:
        attempts += 1
        u, _ = edges[int(rng.integers(0, len(edges)))]
        _, v = edges[int(rng.integers(0, len(edges)))]
        if u == v or graph.has_edge(u, v):
            continue
        negatives.append((u, v))

    pairs = positives + negatives
    labels = np.array([1.0] * len(positives) + [0.0] * len(negatives))
    order = rng.permutation(len(pairs))
    pairs = [pairs[int(i)] for i in order]
    return pairs, labels[order]
