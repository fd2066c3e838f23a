"""The maintained topological index and the queries built on it.

``Netlist.has_path`` prunes its search with a topological index that a
plain netlist builds from its order and a copy-on-write view maintains
with the Pearce–Kelly dynamic topological sort
(:mod:`repro.netlist.order`). Every answer must equal the unbounded
breadth-first search kept in ``tests/oracles.py``, on every genotype
path of the GA, on cyclic netlists and across pickling. The Kahn sort
and the input-name set are checked against their earlier forms too.
"""

from __future__ import annotations

import contextlib
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from oracles import bfs_has_path, deque_topological_order
from repro.circuits import load_circuit
from repro.ec.genotype import genotype_is_valid, random_genotype, repair_genotype
from repro.errors import NetlistError
from repro.locking.genome_lock import lock_with_genes
from repro.locking.primitives import primitive_for_gene
from repro.netlist import GateType, Netlist, parse_bench
from repro.netlist.cow import CowNetlist
from repro.netlist.order import GAP, TopoIndex
from repro.utils.rng import derive_rng

#: The pickled state of a netlist: no derived cache travels in it.
PICKLED_KEYS = {
    "name",
    "inputs",
    "key_inputs",
    "outputs",
    "gates",
    "_topo_cache",
    "_fanout_cache",
    "_lockable_cache",
}

MUTATORS = (
    "add_input",
    "add_key_input",
    "add_gate",
    "remove_gate",
    "rewire_pin",
    "widen_gate",
)


def assert_order_exact(netlist: Netlist) -> None:
    """The view's maintained index labels every signal uniquely, and
    every edge ``u → v`` has ``ord[u] < ord[v]``."""
    index = netlist._order_cache
    assert index is not None
    ord_ = index.ord
    assert set(ord_) == set(netlist.signals())
    assert len(set(ord_.values())) == len(ord_)
    for gate in netlist.gates.values():
        for src in gate.fanins:
            assert ord_[src] < ord_[gate.name], (src, gate.name)


@contextlib.contextmanager
def checked_queries():
    """Compare every ``has_path`` answer with the oracle, and check the
    view's index after every mutator; yields the number of queries."""
    answered = [0]
    original = Netlist.has_path

    def has_path(self, src, dst):
        got = original(self, src, dst)
        assert got == bfs_has_path(self, src, dst), (src, dst)
        answered[0] += 1
        return got

    def checked(method):
        def mutate(self, *args):
            result = method(self, *args)
            assert_order_exact(self)
            return result

        return mutate

    saved = {name: CowNetlist.__dict__[name] for name in MUTATORS}
    Netlist.has_path = has_path
    for name, method in saved.items():
        setattr(CowNetlist, name, checked(method))
    try:
        yield answered
    finally:
        Netlist.has_path = original
        for name, method in saved.items():
            setattr(CowNetlist, name, method)


def _view_with_genes(base: Netlist, genes) -> CowNetlist:
    view = CowNetlist.from_base(base)
    for idx, gene in enumerate(genes):
        primitive_for_gene(gene).apply_gene(view, gene, f"k{idx}")
    return view


def _sample_pairs(netlist: Netlist, count: int, seed: int):
    signals = list(netlist.signals())
    rng = derive_rng(seed)
    picks = rng.integers(0, len(signals), size=(count, 2))
    return [(signals[a], signals[b]) for a, b in picks]


# ----------------------------------------------------------------------
# has_path against the oracle on every genotype path
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    gates=st.integers(min_value=40, max_value=160),
    seed=st.integers(min_value=0, max_value=10**6),
    alphabet=st.sampled_from([("mux",), ("mux", "xor")]),
)
def test_has_path_matches_oracle_on_genotype_paths(gates, seed, alphabet):
    circuit = load_circuit(f"rand_{gates}_{seed % 50}")
    key_length = max(2, gates // 20)
    with checked_queries() as answered:
        genes = random_genotype(circuit, key_length, seed, alphabet=alphabet)
        assert genotype_is_valid(circuit, genes)
        # Reversed, the genes meet a different workspace, so repair
        # re-checks (and may re-sample) each of them.
        shuffled = list(reversed(genes))
        repaired = repair_genotype(circuit, shuffled, seed + 1)
        genotype_is_valid(circuit, shuffled)
        locked = lock_with_genes(circuit, repaired)
        for src, dst in _sample_pairs(locked.netlist, 40, seed):
            locked.netlist.has_path(src, dst)
    assert answered[0] >= 40


def test_has_path_matches_oracle_on_a_large_view():
    base = load_circuit("c1355_syn")
    with checked_queries() as answered:
        genes = random_genotype(base, 16, 5, alphabet=("mux", "xor"))
        view = lock_with_genes(base, genes).netlist
        for src, dst in _sample_pairs(view, 200, 5):
            view.has_path(src, dst)
    assert answered[0] > 200


def test_view_index_is_private_to_the_view():
    base = load_circuit("rand_150_5")
    base_labels = dict(base._order_index().ord)
    genes = random_genotype(base, 8, 2)
    view = _view_with_genes(base, genes)
    assert_order_exact(view)
    assert base._order_index().ord == base_labels
    assert view._order_cache is not base._order_cache


def test_plain_netlist_drops_its_index_on_mutation(tiny):
    index = tiny._order_index()
    assert tiny._order_index() is index
    tiny.add_input("d")
    assert tiny._order_cache is None
    assert tiny.has_path("d", "g_or") is False
    assert tiny.has_path("a", "g_or") is True


def test_new_gate_sits_just_above_its_highest_fanin():
    index = TopoIndex(["a", "b", "g"])
    index.place("m", ["a", "b"])
    assert index.ord["m"] == GAP + 1
    index.place("m2", ["b"])
    assert index.ord["m2"] == GAP + 2
    index.place("k", [])
    index.place("k2", [])
    assert index.ord["k"] == -1 and index.ord["k2"] == -2
    index.place("n", ["k2"])
    assert index.ord["n"] == -1 + 2  # -1 is k's and 0 is a's


def test_backward_edge_reorders_only_its_region():
    n = Netlist("two_chains")
    n.add_input("a")
    n.add_gate("g1", GateType.NOT, ["a"])
    n.add_gate("g2", GateType.NOT, ["g1"])
    n.add_gate("h1", GateType.NOT, ["a"])
    n.add_gate("h2", GateType.AND, ["h1", "a"])
    n.add_gate("top", GateType.OR, ["g2", "h2"])
    view = CowNetlist.from_base(n)
    ord_ = view._order_cache.ord
    # Kahn order g1, h1, g2, h2, top, after the input.
    assert [ord_[s] for s in ("a", "g1", "h1", "g2", "h2", "top")] == [
        0, GAP, 2 * GAP, 3 * GAP, 4 * GAP, 5 * GAP
    ]
    view.widen_gate("top", "h1")  # already forward: nothing moves
    assert ord_["top"] == 5 * GAP and ord_["h1"] == 2 * GAP
    # h2 -> g1 runs backward: g1's descendants below h2 (g1, g2) and
    # h2's ancestors above g1 (h1, h2) swap blocks; a and top stay.
    view.rewire_pin("g1", 0, "h2")
    assert_order_exact(view)
    assert [ord_[s] for s in ("a", "h1", "h2", "g1", "g2", "top")] == [
        0, GAP, 2 * GAP, 3 * GAP, 4 * GAP, 5 * GAP
    ]
    assert view.has_path("h1", "g2") and not view.has_path("g2", "h1")


# ----------------------------------------------------------------------
# cycles: answers as the oracle, never a raise or a hang
# ----------------------------------------------------------------------
def _close_a_cycle(netlist: Netlist) -> None:
    """Rewire some gate's first pin to one of its consumers."""
    fanouts = netlist.fanouts()
    for name, gate in netlist.gates.items():
        if gate.fanins and fanouts[name]:
            netlist.rewire_pin(name, 0, fanouts[name][0][0])
            return
    raise AssertionError("no gate with a consumer")


@pytest.mark.parametrize("kind", ["view", "plain"])
def test_cyclic_netlist_answers_as_the_oracle(rand100, kind):
    netlist = CowNetlist.from_base(rand100) if kind == "view" else rand100.copy()
    _close_a_cycle(netlist)
    assert netlist._order_cache is None
    assert netlist._order_index() is None
    with pytest.raises(NetlistError, match="combinational cycle"):
        netlist.topological_order()
    for src, dst in _sample_pairs(netlist, 300, 11):
        assert netlist.has_path(src, dst) == bfs_has_path(netlist, src, dst)
    # Further mutations of the cyclic netlist neither raise nor rebuild.
    netlist.add_key_input("k_late")
    netlist.add_gate("g_late", GateType.AND, ["k_late", next(iter(netlist.gates))])
    assert netlist.has_path("k_late", "g_late")


# ----------------------------------------------------------------------
# pickling
# ----------------------------------------------------------------------
def test_view_pickled_mid_genotype_answers_identically():
    base = load_circuit("c432_syn")
    genes = random_genotype(base, 8, 3, alphabet=("mux", "xor"))
    view = _view_with_genes(base, genes[:4])
    assert view._order_cache is not None
    assert set(view.__getstate__()) == PICKLED_KEYS | {"_owned"}
    blob = pickle.dumps(view)
    assert b"TopoIndex" not in blob
    back = pickle.loads(blob)
    assert back._order_cache is None
    pairs = _sample_pairs(view, 150, 3)
    assert [back.has_path(*p) for p in pairs] == [view.has_path(*p) for p in pairs]
    for idx, gene in enumerate(genes[4:], start=4):
        for wire in gene.wires:
            assert back.has_path(*reversed(wire)) == view.has_path(*reversed(wire))
        primitive_for_gene(gene).apply_gene(view, gene, f"k{idx}")
        primitive_for_gene(gene).apply_gene(back, gene, f"k{idx}")
    assert_order_exact(back)
    for src, dst in pairs + _sample_pairs(view, 150, 4):
        expected = bfs_has_path(view, src, dst)
        assert view.has_path(src, dst) == back.has_path(src, dst) == expected


def test_pool_payload_carries_no_index():
    circuit = load_circuit("c432_syn")
    lean = pickle.dumps(circuit)
    circuit.has_path(circuit.inputs[0], circuit.outputs[0])
    assert circuit._order_cache is not None
    assert set(circuit.__getstate__()) == PICKLED_KEYS
    assert pickle.dumps(circuit) == lean


# ----------------------------------------------------------------------
# the Kahn sort and the input-name set
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["c17", "c432_syn", "c1355_syn", "c7552_syn", "rand_150_5", "rand_60_3"]
)
def test_topological_order_matches_the_deque_sort(name):
    base = load_circuit(name)
    assert base.topological_order() == deque_topological_order(base)
    view = _view_with_genes(
        base, random_genotype(base, 4 if name == "c17" else 8, 1, alphabet=("mux", "xor"))
    )
    assert view.topological_order() == deque_topological_order(view)


@pytest.mark.parametrize("kind", ["view", "plain"])
def test_cyclic_error_message_matches_the_deque_sort(rand100, kind):
    netlist = CowNetlist.from_base(rand100) if kind == "view" else rand100.copy()
    _close_a_cycle(netlist)
    with pytest.raises(NetlistError) as expected:
        deque_topological_order(netlist)
    with pytest.raises(NetlistError) as got:
        netlist.topological_order()
    assert str(got.value) == str(expected.value)


def _answers_is_signal_as_before(netlist: Netlist) -> None:
    names = list(netlist.signals()) + ["nope", "", "G1_missing", "k_new"]
    for name in names:
        expected = (
            name in netlist.gates
            or name in netlist.inputs
            or name in netlist.key_inputs
        )
        assert netlist.is_signal(name) is expected
        assert (name in netlist) is expected


def test_is_signal_through_construction_copy_view_and_pickle(c17):
    direct = Netlist("direct")
    direct.add_input("a")
    direct.add_key_input("k0")
    direct.add_gate("g", GateType.AND, ["a", "k0"])
    for netlist in (direct, c17):
        _answers_is_signal_as_before(netlist)
        dup = netlist.copy()
        dup.add_key_input("k_new")
        _answers_is_signal_as_before(dup)
        _answers_is_signal_as_before(netlist)
        assert not netlist.is_signal("k_new")
        view = CowNetlist.from_base(netlist)
        view.add_input("k_new")
        _answers_is_signal_as_before(view)
        assert not netlist.is_signal("k_new")
        for blob in (pickle.dumps(netlist), pickle.dumps(view)):
            back = pickle.loads(blob)
            _answers_is_signal_as_before(back)
            back.add_key_input("k_after")
            _answers_is_signal_as_before(back)
    parsed = parse_bench("INPUT(a)\nKEYINPUT(k)\nOUTPUT(g)\ng = XOR(a, k)\n")
    _answers_is_signal_as_before(parsed)
