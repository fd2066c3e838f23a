"""MuxLink building blocks: observed graph, DRNL subgraphs, features."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    loop_mlp_fit,
    rebuild_extract_observed,
    scalar_link_feature_matrix,
)
from repro.attacks.muxlink import extract_observed
from repro.attacks.muxlink.features import (
    LINK_FEATURE_DIM,
    N_KEYGATE_KINDS,
    feature_group_slices,
    link_feature_dim,
    link_feature_matrix,
    link_feature_vector,
    make_training_pairs,
    subgraph_feature_dim,
    subgraph_feature_matrix,
    type_index,
)
from repro.attacks.muxlink.graph import (
    KEYGATE_KIND_BIT,
    ObservedGraph,
    extract_keygates,
)
from repro.attacks.muxlink.mlp_predictor import MlpLinkPredictor
from repro.attacks.muxlink.subgraph import (
    drnl_from_distances,
    extract_enclosing_subgraph,
)
from repro.circuits import load_circuit
from repro.errors import LockingError
from repro.locking import DMuxLocking, RandomLogicLocking
from repro.netlist.gates import GateType


# ----------------------------------------------------------- observed graph
def test_extract_removes_key_machinery(dmux_locked):
    graph, queries = extract_observed(dmux_locked.netlist)
    assert len(queries) == 16  # 8 shared-key genes -> 16 MUXes
    node_set = set(graph.nodes)
    for key in dmux_locked.netlist.key_inputs:
        assert key not in node_set
    for gate in dmux_locked.netlist.gates.values():
        if gate.gtype is GateType.MUX:
            assert gate.name not in node_set


def test_queries_reference_real_candidates(dmux_locked):
    graph, queries = extract_observed(dmux_locked.netlist)
    truth = {}
    for rec in dmux_locked.insertions:
        for site in rec.sites:
            truth[site.mux] = site
    for q in queries:
        site = truth[q.mux]
        assert {q.d0, q.d1} == {site.true_src, site.false_src}
        assert q.consumers == (site.consumer,)
        assert q.key_name == site.key_name
        # The locked pin itself is open: a candidate edge may only appear in
        # the observed graph if the candidate *also* drives the consumer on
        # another, unlocked pin.
        consumer_gate = dmux_locked.netlist.gates[q.consumers[0]]
        c = graph.index[q.consumers[0]]
        for cand in (q.d0, q.d1):
            if cand not in consumer_gate.fanins:
                assert not graph.has_edge(graph.index[cand], c)


def test_unlocked_circuit_has_no_queries(c17):
    graph, queries = extract_observed(c17)
    assert queries == []
    assert graph.n_nodes == 11  # 5 PIs + 6 gates
    assert len(graph.directed_edges) == 12  # 6 gates x 2 fanins


def test_levels_computed(dmux_locked):
    graph, _ = extract_observed(dmux_locked.netlist)
    assert len(graph.levels) == graph.n_nodes
    assert max(graph.levels) > 0
    # PIs that drive something sit at level 0.
    for sig in dmux_locked.netlist.inputs:
        if sig in graph.index:
            has_in = any(v == graph.index[sig] for _, v in graph.directed_edges)
            if not has_in:
                assert graph.levels[graph.index[sig]] == 0


def test_edge_remove_restore():
    g = ObservedGraph()
    a = g.add_node("a", "PI", gate=False)
    b = g.add_node("b", "AND", gate=True)
    g.add_edge(a, b)
    assert g.has_edge(a, b)
    assert g.remove_undirected(a, b)
    assert not g.has_edge(a, b)
    g.restore_undirected(a, b)
    assert g.has_edge(a, b)
    assert not g.remove_undirected(b, 0) or True  # removing absent edge is False
    assert g.add_node("a", "PI", gate=False) == a, "add_node is idempotent"


# ------------------------------------------------------------------- DRNL
def test_drnl_endpoint_labels():
    du = np.array([0, -1, 1, 2])
    dv = np.array([1, 0, 1, 1])
    labels = drnl_from_distances(du, dv, max_label=8)
    assert labels[0] == 1 and labels[1] == 1  # endpoints
    # (1,1): d=2 -> 1 + 1 + 1*(1+0-1) = 2
    assert labels[2] == 2
    # (2,1): d=3 -> 1 + 1 + 1*(1+1-1) = 3
    assert labels[3] == 3


def test_drnl_unreachable_and_cap():
    du = np.array([5, -1])
    dv = np.array([5, 3])
    labels = drnl_from_distances(du, dv, max_label=4)
    assert labels[0] == 4  # capped
    assert labels[1] == 0  # unreachable from u


def _path_graph(n=6):
    g = ObservedGraph()
    prev = None
    for i in range(n):
        idx = g.add_node(f"n{i}", "AND" if i else "PI", gate=bool(i))
        if prev is not None:
            g.add_edge(prev, idx)
        prev = idx
    g.compute_levels()
    return g


def test_enclosing_subgraph_excludes_candidate_edge():
    g = _path_graph()
    sub = extract_enclosing_subgraph(g, 2, 3, hops=2)
    # Candidate edge (2,3) exists in g but must be excluded from sub.adj.
    pos = {nid: i for i, nid in enumerate(sub.node_ids)}
    assert sub.adj[pos[2], pos[3]] == 0.0
    # ... and restored in the parent graph afterwards.
    assert g.has_edge(2, 3)
    assert sub.node_ids[0] == 2 and sub.node_ids[1] == 3
    assert sub.adj.shape == (sub.n_nodes, sub.n_nodes)
    assert np.array_equal(sub.adj, sub.adj.T)
    assert np.all(np.diag(sub.adj) == 0)


def test_enclosing_subgraph_hops_bound():
    g = _path_graph(10)
    sub = extract_enclosing_subgraph(g, 4, 5, hops=1)
    # 1 hop around nodes 4,5 (edge removed): {3,4} ∪ {5,6}
    assert set(sub.node_ids) == {3, 4, 5, 6}


def test_enclosing_subgraph_max_nodes_truncation():
    g = ObservedGraph()
    hub = g.add_node("hub", "AND", gate=True)
    spoke0 = g.add_node("s0", "OR", gate=True)
    g.add_edge(hub, spoke0)
    for i in range(1, 50):
        s = g.add_node(f"s{i}", "OR", gate=True)
        g.add_edge(hub, s)
    g.compute_levels()
    sub = extract_enclosing_subgraph(g, hub, spoke0, hops=2, max_nodes=10)
    assert sub.n_nodes == 10


# ----------------------------------------------------------------- features
def test_link_feature_vector_shape(dmux_locked):
    graph, queries = extract_observed(dmux_locked.netlist)
    q = queries[0]
    vec = link_feature_vector(graph, graph.index[q.d0], graph.index[q.consumers[0]])
    assert vec.shape == (LINK_FEATURE_DIM,)
    assert np.all(np.isfinite(vec))


def test_positive_features_mask_the_edge(dmux_locked):
    """Feature extraction must not leak 'distance 1' for existing wires."""
    graph, _ = extract_observed(dmux_locked.netlist)
    u, v = graph.directed_edges[0]
    vec = link_feature_vector(graph, u, v)
    # Distance one-hot block: slots base..base+5; slot 1 means distance 1,
    # which is impossible once the candidate edge itself is masked.
    base = 2 * 12 + 3 + 3
    assert vec[base + 1] == 0.0
    assert graph.has_edge(u, v), "edge must be restored"


def test_subgraph_feature_matrix_shape(dmux_locked):
    graph, queries = extract_observed(dmux_locked.netlist)
    q = queries[0]
    sub = extract_enclosing_subgraph(
        graph, graph.index[q.d0], graph.index[q.consumers[0]], hops=2
    )
    feats = subgraph_feature_matrix(graph, sub, max_label=8)
    assert feats.shape == (sub.n_nodes, subgraph_feature_dim(8))
    # Exactly one type bit and one DRNL bit per node.
    assert np.all(feats[:, :12].sum(axis=1) == 1.0)
    assert np.all(feats[:, 12 : 12 + 9].sum(axis=1) == 1.0)


# ------------------------------------------------------- key-gate features
def test_keygate_cols_pure_mux_prefix_byte_identical(dmux_locked):
    """Golden pin: on a pure-MUX netlist the widened feature rows carry
    the classic 69 columns byte-for-byte, and the 8 key-gate columns
    stay all-zero — the default path cannot drift."""
    graph, queries = extract_observed(dmux_locked.netlist)
    q = queries[0]
    u, v = graph.index[q.d0], graph.index[q.consumers[0]]
    plain = link_feature_vector(graph, u, v)
    wide = link_feature_vector(graph, u, v, keygate_cols=True)
    assert wide.shape == (LINK_FEATURE_DIM + 2 * N_KEYGATE_KINDS,)
    assert np.array_equal(wide[:LINK_FEATURE_DIM], plain)
    assert np.all(wide[LINK_FEATURE_DIM:] == 0.0)

    pairs, _ = make_training_pairs(graph, 40, seed_or_rng=3)
    plain_m = link_feature_matrix(graph, pairs)
    wide_m = link_feature_matrix(graph, pairs, keygate_cols=True)
    assert np.array_equal(wide_m[:, :LINK_FEATURE_DIM], plain_m)
    assert np.all(wide_m[:, LINK_FEATURE_DIM:] == 0.0)


def test_keygate_cols_one_hot_on_keygates(rll_locked):
    graph, _ = extract_observed(rll_locked.netlist)
    assert graph.keygate_kinds, "RLL key gates must be annotated"
    node, kind = next(iter(graph.keygate_kinds.items()))
    assert kind in KEYGATE_KIND_BIT
    peer = (node + 1) % graph.n_nodes
    vec = link_feature_vector(graph, node, peer, keygate_cols=True)
    u_cols = vec[LINK_FEATURE_DIM : LINK_FEATURE_DIM + N_KEYGATE_KINDS]
    assert u_cols.sum() == 1.0, "endpoint u gets exactly one kind bit"


def test_extract_keygates_matches_insertions(rll_locked):
    sites = extract_keygates(rll_locked.netlist)
    assert len(sites) == 8
    truth = dict(rll_locked.key)
    for site in sites:
        assert KEYGATE_KIND_BIT[site.kind] == truth[site.key_name]


def test_feature_group_slices_partition():
    for keygate_cols in (False, True):
        slices = feature_group_slices(keygate_cols=keygate_cols)
        dim = link_feature_dim(keygate_cols=keygate_cols)
        covered = sorted(
            i for s in slices.values() for i in range(s.start, s.stop)
        )
        assert covered == list(range(dim)), "groups must tile the row"
        assert ("keygate" in slices) == keygate_cols
    assert link_feature_dim() == LINK_FEATURE_DIM


def test_type_index_fallback():
    assert type_index("AND") == 3
    assert type_index("UNKNOWN_TYPE") == 0


def test_make_training_pairs_balance(dmux_locked):
    graph, _ = extract_observed(dmux_locked.netlist)
    pairs, labels = make_training_pairs(graph, 100, seed_or_rng=1)
    assert len(pairs) == len(labels)
    n_pos = int(labels.sum())
    assert n_pos == 50
    assert len(pairs) - n_pos == 50
    edge_set = set(graph.directed_edges)
    for (u, v), label in zip(pairs, labels):
        if label == 1.0:
            assert (u, v) in edge_set
        else:
            assert not graph.has_edge(u, v)


def test_make_training_pairs_deterministic(dmux_locked):
    graph, _ = extract_observed(dmux_locked.netlist)
    a = make_training_pairs(graph, 60, seed_or_rng=2)
    b = make_training_pairs(graph, 60, seed_or_rng=2)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


# ------------------------------------------- analytic masking vs oracles
def _locked_graph(name: str, scheme: str, seed: int):
    """Observed graph of ``name`` locked by ``scheme`` (None if no sites)."""
    locker = DMuxLocking("shared") if scheme == "dmux" else RandomLogicLocking()
    try:
        locked = locker.lock(load_circuit(name), 4, seed_or_rng=seed)
    except LockingError:
        return None, []
    return extract_observed(locked.netlist)


@settings(max_examples=30, deadline=None)
@given(
    name=st.one_of(
        st.builds(
            "rand_{}_{}".format,
            st.integers(min_value=20, max_value=160),
            st.integers(min_value=0, max_value=10**6),
        ),
        st.sampled_from(["c432_syn", "c880_syn", "c1355_syn"]),
    ),
    scheme=st.sampled_from(["dmux", "rll"]),
    seed=st.integers(min_value=0, max_value=10**6),
    keygate_cols=st.booleans(),
    data=st.data(),
)
def test_link_feature_matrix_is_the_masking_oracle(
    name, scheme, seed, keygate_cols, data
):
    """Every row equals masking the edge in place and extracting the pair
    alone: edges both ways, non-edges, u == v, duplicates, query links."""
    if name.endswith("_syn"):
        scheme = "dmux"
    graph, queries = _locked_graph(name, scheme, seed)
    if graph is None or not graph.directed_edges:
        return
    edges = graph.directed_edges
    n = graph.n_nodes
    picked = data.draw(
        st.lists(st.integers(0, len(edges) - 1), min_size=1, max_size=25)
    )
    pairs = [edges[i] for i in picked]
    pairs += [(v, u) for u, v in pairs[:8]]
    pairs += data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=25,
        )
    )
    pairs += [(u, u) for u, _ in pairs[:3]] + pairs[:4]
    for q in queries:
        for c in q.consumers:
            pairs += [(graph.index[q.d0], graph.index[c]),
                      (graph.index[q.d1], graph.index[c])]
    pairs += make_training_pairs(graph, 60, seed_or_rng=seed)[0]
    version = graph._adj_version
    adjacency = [list(s) for s in graph.adj]

    fast = link_feature_matrix(graph, pairs, keygate_cols=keygate_cols)

    assert graph._adj_version == version, "extraction must not mask in place"
    assert [list(s) for s in graph.adj] == adjacency
    ref = scalar_link_feature_matrix(graph, pairs, keygate_cols=keygate_cols)
    assert np.array_equal(fast, ref)
    u, v = pairs[0]
    assert np.array_equal(
        link_feature_vector(graph, u, v, keygate_cols=keygate_cols), ref[0]
    )


@pytest.mark.parametrize(
    "name, scheme, kwargs",
    [
        ("rand_150_5", "dmux", {"epochs": 6, "n_train": 200, "batch_size": 48}),
        ("c432_syn", "dmux", {"epochs": 4}),
        (
            "rand_120_3",
            "rll",
            {
                "epochs": 5,
                "n_train": 150,
                "batch_size": 32,
                "keygate_cols": True,
                "feature_weights": {"hist": 2.0, "distance": 0.5},
            },
        ),
    ],
    ids=["rand-ragged", "c432-default-batch", "keygate-weighted"],
)
def test_mlp_fit_is_bitwise_the_oracle_loop(name, scheme, kwargs):
    """Analytic masking + the slice-per-step loop + flat Adam train the
    same weights as scalar masking + the gather loop + per-param Adam."""
    graph, queries = _locked_graph(name, scheme, 7)
    fast = MlpLinkPredictor(**kwargs)
    ref = MlpLinkPredictor(**kwargs)
    fast.fit(graph, 11)
    loop_mlp_fit(ref, graph, 11)

    assert fast.train_history == ref.train_history
    for p, q in zip(fast._model.params(), ref._model.params(), strict=True):
        assert np.array_equal(p.value, q.value), p.name
    pairs = make_training_pairs(graph, 80, seed_or_rng=2)[0]
    for q in queries:
        pairs += [(graph.index[q.d0], graph.index[c]) for c in q.consumers]
    assert np.array_equal(fast.score_links(pairs), ref.score_links(pairs))


def test_mlp_fit_never_masks_the_graph(dmux_locked):
    graph, _ = extract_observed(dmux_locked.netlist)
    version = graph._adj_version
    adjacency = [list(s) for s in graph.adj]
    MlpLinkPredictor(epochs=2, n_train=120).fit(graph, 3)
    assert graph._adj_version == version
    assert [list(s) for s in graph.adj] == adjacency


@pytest.mark.parametrize(
    "name, scheme",
    [
        ("c17", None),
        ("rand_150_5", "dmux"),
        ("rand_150_5", "rll"),
        ("c1355_syn", "dmux"),
        ("c7552_syn", "dmux"),
    ],
)
def test_extract_observed_is_the_rebuild_builder(name, scheme):
    """Same nodes, adjacency insertion order, wires, levels, key-gate
    kinds, queries and adjacency version as add_node/add_edge."""
    netlist = load_circuit(name)
    if scheme == "dmux":
        netlist = DMuxLocking("shared").lock(netlist, 8, seed_or_rng=4).netlist
    elif scheme == "rll":
        netlist = RandomLogicLocking().lock(netlist, 8, seed_or_rng=4).netlist
    fast, fast_q = extract_observed(netlist)
    ref, ref_q = rebuild_extract_observed(netlist)

    assert fast.nodes == ref.nodes
    assert list(fast.index.items()) == list(ref.index.items())
    assert fast.gtypes == ref.gtypes
    assert fast.is_gate == ref.is_gate
    assert [list(s) for s in fast.adj] == [list(s) for s in ref.adj]
    assert fast.directed_edges == ref.directed_edges
    assert fast.levels == ref.levels
    assert list(fast.keygate_kinds.items()) == list(ref.keygate_kinds.items())
    assert fast._adj_version == ref._adj_version
    assert fast_q == ref_q
    if scheme == "rll":
        assert fast.keygate_kinds, "RLL key gates must be annotated"
    elif scheme == "dmux":
        assert fast_q, "D-MUX sites must become queries"
