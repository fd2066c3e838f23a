"""GNN link predictor internals: hand-derived gradients vs finite differences."""

import gc

import numpy as np
import pytest

from repro.attacks.muxlink import gnn as gnn_module
from repro.attacks.muxlink.gnn import (
    GnnLinkPredictor,
    _BlockDiagAdj,
    _GraphConvStack,
    normalized_adjacency,
)
from repro.attacks.muxlink.graph import ObservedGraph, extract_observed
from repro.attacks.muxlink.subgraph import (
    extract_enclosing_subgraph,
    extract_enclosing_subgraphs,
)
from repro.circuits import load_circuit
from repro.ec.genotype import random_genotype
from repro.locking import lock_with_genes
from repro.registry import PRIMITIVES
from oracles import rebuild_fit, scalar_fit, scalar_score_link, scalar_score_links


def test_normalized_adjacency_rows_sum_to_one():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    s = normalized_adjacency(adj)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert s.shape == (3, 3)
    # Isolated node: only the self-loop contributes.
    iso = normalized_adjacency(np.zeros((2, 2)))
    assert np.allclose(iso, np.eye(2))


def test_graph_conv_stack_shapes():
    rng = np.random.default_rng(0)
    stack = _GraphConvStack(5, (7, 3), seed_or_rng=1)
    x = rng.normal(size=(4, 5))
    s = normalized_adjacency((rng.random((4, 4)) > 0.5).astype(float))
    s = normalized_adjacency(((s + s.T) > 0).astype(float))
    h = stack.forward(s, x)
    assert h.shape == (4, 10)  # 7 + 3 concatenated
    assert stack.out_dim == 10


def test_graph_conv_stack_gradients_match_finite_differences():
    """The hand-derived backward pass of the conv stack must agree with a
    central-difference approximation on every weight matrix."""
    rng = np.random.default_rng(3)
    n, f = 5, 4
    adj = (rng.random((n, n)) > 0.6).astype(float)
    adj = ((adj + adj.T) > 0).astype(float)
    np.fill_diagonal(adj, 0)
    s = normalized_adjacency(adj)
    x = rng.normal(size=(n, f))
    stack = _GraphConvStack(f, (6, 3), seed_or_rng=5)

    def loss_of_output(h):
        return float((h**2).sum())

    h = stack.forward(s, x)
    for p in stack.params():
        p.zero_grad()
    stack.backward(2 * h)

    eps = 1e-6
    for p in stack.params():
        analytic = p.grad.copy()
        numeric = np.zeros_like(p.value)
        it = np.nditer(p.value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = p.value[idx]
            p.value[idx] = original + eps
            plus = loss_of_output(stack.forward(s, x))
            p.value[idx] = original - eps
            minus = loss_of_output(stack.forward(s, x))
            p.value[idx] = original
            numeric[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        rel = float(np.max(np.abs(analytic - numeric) / denom))
        assert rel < 1e-5, f"{p.name}: gradient error {rel}"


def _ring_graph(n=12):
    g = ObservedGraph()
    for i in range(n):
        g.add_node(f"n{i}", "AND" if i % 2 else "NAND", gate=True)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    g.compute_levels()
    return g


def test_gnn_end_to_end_gradient_descent_reduces_loss():
    g = _ring_graph()
    predictor = GnnLinkPredictor(
        hidden_dims=(8, 4), mlp_hidden=8, hops=2, epochs=10, n_train=16, lr=1e-2
    )
    predictor.fit(g, seed_or_rng=7)
    assert len(predictor.train_history) == 10
    assert predictor.train_history[-1] < predictor.train_history[0], (
        f"training loss did not decrease: {predictor.train_history}"
    )


def test_gnn_score_is_deterministic_after_fit():
    g = _ring_graph()
    predictor = GnnLinkPredictor(hidden_dims=(6,), epochs=2, n_train=10)
    predictor.fit(g, seed_or_rng=1)
    assert predictor.score_link(0, 5) == predictor.score_link(0, 5)


def test_gnn_requires_fit():
    predictor = GnnLinkPredictor()
    with pytest.raises(Exception):
        predictor.score_link(0, 1)


def test_gnn_subgraph_pipeline_on_disconnected_pair():
    """Scoring a pair with no connecting path must still work (DRNL 0s)."""
    g = ObservedGraph()
    a = g.add_node("a", "AND", gate=True)
    b = g.add_node("b", "OR", gate=True)
    c = g.add_node("c", "NOT", gate=True)
    d = g.add_node("d", "NAND", gate=True)
    g.add_edge(a, b)
    g.add_edge(c, d)
    g.compute_levels()
    sub = extract_enclosing_subgraph(g, a, d, hops=2)
    assert sub.n_nodes >= 2
    predictor = GnnLinkPredictor(hidden_dims=(4,), epochs=1, n_train=4)
    predictor.fit(g, seed_or_rng=2)
    assert np.isfinite(predictor.score_link(a, d))


# ----------------------------------------------------------- batched path
def _random_graph(n=60, n_edges=150, seed=0):
    rng = np.random.default_rng(seed)
    g = ObservedGraph()
    types = ["AND", "OR", "NAND", "NOR", "XOR", "INV"]
    for i in range(n):
        g.add_node(f"n{i}", types[int(rng.integers(0, len(types)))], gate=True)
    for _ in range(n_edges):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            g.add_edge(u, v)
    g.compute_levels()
    return g


def _sample_pairs(g, k, seed=1):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < k:
        u, v = int(rng.integers(0, g.n_nodes)), int(rng.integers(0, g.n_nodes))
        if u != v:
            pairs.append((u, v))
    return pairs


def test_batched_extraction_equals_scalar():
    g = _random_graph()
    # mix of random pairs, true edges, and a disconnected pair
    pairs = _sample_pairs(g, 20)
    pairs += [tuple(g.directed_edges[0]), tuple(g.directed_edges[7])]
    iso = g.add_node("iso", "AND", gate=True)
    g.compute_levels()
    pairs.append((0, iso))
    batched = extract_enclosing_subgraphs(g, pairs, hops=2, max_nodes=40)
    for (u, v), got in zip(pairs, batched):
        want = extract_enclosing_subgraph(g, u, v, hops=2, max_nodes=40)
        assert got.node_ids == want.node_ids
        assert np.array_equal(got.adj, want.adj)
        assert np.array_equal(got.drnl, want.drnl)


def test_block_diag_operator_matches_dense():
    g = _random_graph(n=30, n_edges=70, seed=3)
    subs = extract_enclosing_subgraphs(g, _sample_pairs(g, 5, seed=4), hops=2)
    sizes = {sub.n_nodes for sub in subs}
    assert len(sizes) > 1, "want a ragged batch"
    op = _BlockDiagAdj.from_subgraphs(subs)
    blocks = [normalized_adjacency(sub.adj) for sub in subs]
    n_total = sum(b.shape[0] for b in blocks)
    dense = np.zeros((n_total, n_total))
    at = 0
    for b in blocks:
        dense[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n_total, 6))
    assert np.allclose(op @ x, dense @ x)
    assert np.allclose(op.T @ x, dense.T @ x)
    assert op.T.T is op


def test_batched_logits_match_scalar_on_ragged_batch():
    """No padding/block-diag leakage: every logit in a ragged batch equals
    the same link scored alone through the scalar oracle."""
    g = _random_graph(seed=5)
    predictor = GnnLinkPredictor(
        hidden_dims=(8, 4), mlp_hidden=8, epochs=2, n_train=30
    )
    predictor.fit(g, seed_or_rng=9)
    pairs = _sample_pairs(g, 17, seed=6)  # odd count, ragged sizes
    batched = predictor.score_links(pairs)
    scalar = scalar_score_links(predictor, pairs)
    assert batched.shape == (17,)
    assert np.allclose(batched, scalar, rtol=0, atol=1e-9)


def test_batched_backward_matches_finite_differences():
    """FD check through the full batched pipeline: block-diagonal conv,
    segment readout, MLP head — every parameter."""
    g = _random_graph(n=25, n_edges=60, seed=7)
    predictor = GnnLinkPredictor(hidden_dims=(5, 3), mlp_hidden=4)
    predictor._graph = g
    predictor._build(11)
    subs = extract_enclosing_subgraphs(
        g, _sample_pairs(g, 4, seed=8), hops=2, max_nodes=20
    )

    def loss_now():
        logits, _ = predictor._forward_batch(subs, train=True)
        return float((logits**2).sum()), logits

    _, logits = loss_now()
    for p in predictor.params():
        p.zero_grad()
    predictor._forward_batch(subs, train=True)
    predictor._backward_batch(2.0 * logits, predictor._forward_batch(subs, train=True)[1])

    eps = 1e-6
    for p in predictor.params():
        analytic = p.grad.copy()
        numeric = np.zeros_like(p.value)
        it = np.nditer(p.value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = p.value[idx]
            p.value[idx] = original + eps
            plus, _ = loss_now()
            p.value[idx] = original - eps
            minus, _ = loss_now()
            p.value[idx] = original
            numeric[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        rel = float(np.max(np.abs(analytic - numeric) / denom))
        assert rel < 1e-5, f"{p.name}: gradient error {rel}"


def test_training_parity_auto_vs_off():
    """Batched training and scoring against the per-sample scalar oracle
    (the retired ``batch="off"`` pipeline)."""
    g = _random_graph(seed=10)
    auto = GnnLinkPredictor(hidden_dims=(6, 3), epochs=3, n_train=24)
    off = GnnLinkPredictor(hidden_dims=(6, 3), epochs=3, n_train=24)
    auto.fit(g, seed_or_rng=13)
    scalar_fit(off, g, seed_or_rng=13)
    assert np.allclose(auto.train_history, off.train_history, atol=1e-9)
    pairs = _sample_pairs(g, 10, seed=14)
    assert np.allclose(
        auto.score_links(pairs), scalar_score_links(off, pairs), atol=1e-9
    )


def test_score_link_is_a_one_link_batch():
    g = _ring_graph()
    predictor = GnnLinkPredictor(hidden_dims=(6,), epochs=1, n_train=10)
    predictor.fit(g, seed_or_rng=3)
    assert predictor.score_link(0, 5) == predictor.score_links([(0, 5)])[0]
    assert np.isclose(
        predictor.score_link(0, 5), scalar_score_link(predictor, 0, 5),
        rtol=0, atol=1e-9,
    )
    empty = predictor.score_links([])
    assert empty.shape == (0,) and empty.dtype == np.float64


# ------------------------------------------------------ hoisted training
def _locked_c432_graph():
    base = load_circuit("c432_syn")
    genotype = random_genotype(
        base, 12, np.random.default_rng(4),
        alphabet=tuple(sorted(PRIMITIVES.available())),
    )
    graph, queries = extract_observed(lock_with_genes(base, genotype).netlist)
    pairs = [
        (graph.index[d], graph.index[c])
        for q in queries
        for d in (q.d0, q.d1)
        for c in q.consumers
    ]
    return graph, pairs


def _random_graph_case():
    g = _random_graph(seed=10)
    return g, _sample_pairs(g, 15, seed=14)


@pytest.mark.parametrize(
    "case, kwargs",
    [
        (_random_graph_case, dict(hidden_dims=(6, 3), epochs=3, n_train=30)),
        (_locked_c432_graph, dict(epochs=2, n_train=50)),
    ],
    ids=["random-graph", "c432-ragged"],
)
def test_hoisted_fit_is_bitwise_the_rebuild_loop(case, kwargs):
    """Slicing per-epoch permutations of the per-fit operator, features
    and first-layer ``s @ x`` changes no bit of training or scoring."""
    graph, pairs = case()
    hoisted = GnnLinkPredictor(**kwargs)
    rebuilt = GnnLinkPredictor(**kwargs)
    hoisted.fit(graph, seed_or_rng=13)
    n_samples = rebuild_fit(rebuilt, graph, seed_or_rng=13)
    assert n_samples % 8, "want a ragged last minibatch"
    assert np.array_equal(hoisted.train_history, rebuilt.train_history)
    for got, want in zip(hoisted.params(), rebuilt.params(), strict=True):
        assert np.array_equal(got.value, want.value), got.name
    assert np.array_equal(
        hoisted.score_links(pairs), rebuilt.score_links(pairs)
    )


def test_fit_normalizes_each_training_adjacency_once(monkeypatch):
    calls = {"adj": 0, "subs": 0}
    real_adj = gnn_module.normalized_adjacency
    real_extract = gnn_module.extract_enclosing_subgraphs

    def counting_adj(adj):
        calls["adj"] += 1
        return real_adj(adj)

    def counting_extract(*args, **kwargs):
        subs = real_extract(*args, **kwargs)
        calls["subs"] += len(subs)
        return subs

    monkeypatch.setattr(gnn_module, "normalized_adjacency", counting_adj)
    monkeypatch.setattr(
        gnn_module, "extract_enclosing_subgraphs", counting_extract
    )
    predictor = GnnLinkPredictor(hidden_dims=(6, 3), epochs=4, n_train=24)
    predictor.fit(_random_graph(seed=10), seed_or_rng=13)
    assert calls["subs"] > 0
    assert calls["adj"] == calls["subs"]


def test_fit_leaves_no_block_diag_reference_cycles():
    """Per-step operators link to their transpose one way only, so no
    epoch's arrays wait on the cyclic collector."""
    predictor = GnnLinkPredictor(hidden_dims=(6, 3), epochs=2, n_train=24)
    graph = _random_graph(seed=10)
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        predictor.fit(graph, seed_or_rng=13)
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, _BlockDiagAdj)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert cyclic == []
