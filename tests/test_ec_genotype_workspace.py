"""Breeding on the copy-on-write workspace matches the plain-copy loop.

:mod:`repro.ec.genotype` applies genes to a
:class:`~repro.netlist.cow.CowNetlist` view that keeps the base's
lockable-wire pool and checks acyclicity once per genotype. The
reference functions below are the earlier implementation — every gene
applied to a plain ``original.copy()``, whose mutations drop every cache
and whose primitives check acyclicity after each gene — kept here only
as a test oracle. The genes must come out identical, RNG draw for draw.
"""

from __future__ import annotations

import pickle

import pytest

from repro.circuits import load_circuit
from repro.ec.genotype import (
    _sample_any,
    _sample_kind,
    genotype_is_valid,
    random_genotype,
    repair_genotype,
)
from repro.ec.operators import MutationConfig, mutate
from repro.errors import EvolutionError, NetlistError
from repro.locking.dmux import free_wires, lockable_wires
from repro.locking.primitives import (
    XorPrimitive,
    get_primitive,
    primitive_for_gene,
    resolve_alphabet,
)
from repro.netlist import GateType, Netlist, parse_bench
from repro.netlist import bench as bench_module
from repro.netlist.cow import CowNetlist
from repro.registry import PRIMITIVES, available_primitives
from repro.utils.rng import derive_rng

THREE_GATE_BENCH = """
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G22)
G10 = NAND(G1, G3)
G11 = NAND(G3, G2)
G22 = NAND(G10, G11)
"""


# ----------------------------------------------------------------------
# the plain-copy reference
# ----------------------------------------------------------------------
def ref_random_genotype(original, key_length, seed_or_rng=None, alphabet=None):
    names = resolve_alphabet(alphabet)
    rng = derive_rng(seed_or_rng)
    work = original.copy()
    genes, used = [], set()
    for idx in range(key_length):
        kind = _sample_kind(names, rng)
        gene = _sample_any(work, names, kind, rng, used)
        if gene is None:
            raise EvolutionError(f"no site for gene {idx}")
        primitive_for_gene(gene).apply_gene(work, gene, f"__tmp_k{idx}")
        used.update(gene.wires)
        genes.append(gene)
    return genes


def ref_repair_genotype(original, genes, seed_or_rng=None):
    rng = derive_rng(seed_or_rng)
    kind_order = tuple(dict.fromkeys(g.kind for g in genes))
    work = original.copy()
    used, repaired = set(), []
    for idx, gene in enumerate(genes):
        primitive = primitive_for_gene(gene)
        conflict = any(w in used for w in gene.wires)
        if conflict or not primitive.applicable(work, gene):
            gene = _sample_any(work, kind_order, primitive.kind, rng, used)
            if gene is None:
                raise EvolutionError(f"repair failed at gene {idx}")
        primitive_for_gene(gene).apply_gene(work, gene, f"__tmp_k{idx}")
        used.update(gene.wires)
        repaired.append(gene)
    return repaired


def ref_genotype_is_valid(original, genes):
    work = original.copy()
    used = set()
    for gene in genes:
        if any(w in used for w in gene.wires):
            return False
        primitive = primitive_for_gene(gene)
        if not primitive.applicable(work, gene):
            return False
        primitive.apply_gene(work, gene, f"__tmp_k{len(used)}")
        used.update(gene.wires)
    return True


ALPHABETS = [(kind,) for kind in available_primitives()] + [
    tuple(available_primitives())
]
MUTATION = MutationConfig(flip_key=0.1, relocate=0.3, reroute_partner=0.3)


@pytest.fixture(scope="module", params=["c432_syn", "c1908_syn"])
def circuit(request) -> Netlist:
    return load_circuit(request.param)


@pytest.mark.parametrize("alphabet", ALPHABETS, ids="+".join)
def test_workspace_breeding_matches_plain_copy_reference(circuit, alphabet):
    gates = dict(circuit.gates)
    for seed in (0, 1, 2):
        genes = random_genotype(circuit, 8, seed, alphabet=alphabet)
        assert genes == ref_random_genotype(circuit, 8, seed, alphabet=alphabet)
        assert genotype_is_valid(circuit, genes)
        rng = derive_rng(100 + seed)
        for step in range(3):
            child = mutate(circuit, genes, MUTATION, rng, alphabet=alphabet)
            assert genotype_is_valid(circuit, child) == ref_genotype_is_valid(
                circuit, child
            )
            repaired = repair_genotype(circuit, child, 1000 * seed + step)
            assert repaired == ref_repair_genotype(
                circuit, child, 1000 * seed + step
            )
            assert genotype_is_valid(circuit, repaired)
            genes = repaired
    # Breeding never mutates the circuit it breeds on.
    assert circuit.gates == gates


def test_reference_sees_invalid_genotypes_too(circuit):
    """The mutate chains above must also exercise the invalid branch."""
    genes = random_genotype(circuit, 6, 5, alphabet=ALPHABETS[-1])
    clash = genes[:-1] + [genes[0].with_key(genes[0].k ^ 1)]
    assert not genotype_is_valid(circuit, clash)
    assert not ref_genotype_is_valid(circuit, clash)
    assert repair_genotype(circuit, clash, 7) == ref_repair_genotype(
        circuit, clash, 7
    )


# ----------------------------------------------------------------------
# the pool contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", available_primitives())
def test_pool_contract_holds_for_every_primitive(kind):
    """Applying a gene removes exactly its own wires from the pool.

    After each of k insertions on a plain copy, a fresh scan filtered by
    the applied genes' wires equals the base pool so filtered — which is
    what the breeding workspace samples from.
    """
    base = load_circuit("c432_syn")
    base_pool = lockable_wires(base)
    primitive = get_primitive(kind)
    rng = derive_rng(11)
    work = base.copy()
    view = CowNetlist.from_base(base)
    used: set = set()
    for idx in range(12):
        gene = primitive.sample(work, rng, used_pins=used)
        assert gene is not None
        primitive.apply_gene(work, gene, f"k{idx}")
        primitive.apply_gene(view, gene, f"k{idx}")
        used.update(gene.wires)
        assert work._lockable_cache is None  # the copy scans afresh
        fresh = [w for w in lockable_wires(work) if w not in used]
        assert fresh == [w for w in base_pool if w not in used]
        assert free_wires(view, used) == fresh
    assert lockable_wires(view) is base_pool


# ----------------------------------------------------------------------
# cache hygiene
# ----------------------------------------------------------------------
def _small() -> Netlist:
    n = Netlist("small")
    for name in ("a", "b", "c"):
        n.add_input(name)
    n.add_gate("g1", GateType.AND, ["a", "b"])
    n.add_gate("g2", GateType.OR, ["g1", "c"])
    n.add_gate("g3", GateType.NAND, ["g2", "a"])
    n.add_gate("spare", GateType.NOT, ["c"])
    n.add_output("g3")
    return n


MUTATORS = {
    "add_input": lambda n: n.add_input("d"),
    "add_key_input": lambda n: n.add_key_input("keyinput0"),
    "add_gate": lambda n: n.add_gate("g4", GateType.XOR, ["g3", "b"]),
    "remove_gate": lambda n: n.remove_gate("spare"),
    "rewire_pin": lambda n: n.rewire_pin("g3", 1, "b"),
    "widen_gate": lambda n: n.widen_gate("g2", "b"),
    "replace_fanin": lambda n: n.replace_fanin("g2", "c", "a"),
}


def test_pool_is_a_cached_tuple():
    n = _small()
    pool = lockable_wires(n)
    assert isinstance(pool, tuple)
    assert lockable_wires(n) is pool


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_every_mutator_drops_the_pool(mutator):
    n = _small()
    before = lockable_wires(n)
    MUTATORS[mutator](n)
    assert n._lockable_cache is None
    after = lockable_wires(n)
    assert after == lockable_wires(n.copy())
    if mutator not in ("add_input", "add_key_input"):
        assert after != before


def test_add_output_leaves_the_pool_valid():
    n = _small()
    lockable_wires(n)
    n.add_output("g2")
    assert lockable_wires(n) == lockable_wires(n.copy())


def test_bench_parser_direct_insert_drops_the_pool(monkeypatch):
    class EagerNetlist(Netlist):
        """Caches the pool after every declaration, so it is filled
        (and empty) when the parser inserts the gates directly."""

        def add_input(self, name):
            super().add_input(name)
            lockable_wires(self)

    monkeypatch.setattr(bench_module, "Netlist", EagerNetlist)
    parsed = parse_bench(THREE_GATE_BENCH, "three_gate")
    assert isinstance(parsed, EagerNetlist)
    assert lockable_wires(parsed)
    assert lockable_wires(parsed) == lockable_wires(parsed.copy())


def test_netlist_pickle_drops_derived_caches():
    n = load_circuit("c432_syn")
    lean = len(pickle.dumps(n))
    order = n.topological_order()
    n.fanouts()
    lockable_wires(n)
    blob = pickle.dumps(n)
    assert len(blob) == lean
    back = pickle.loads(blob)
    assert back._topo_cache is None
    assert back._fanout_cache is None
    assert back._lockable_cache is None
    assert back.structurally_equal(n)
    assert back.topological_order() == order
    assert lockable_wires(back) == lockable_wires(n)


def test_cow_netlist_pickle_round_trip_rebuilds_fanouts():
    base = load_circuit("c432_syn")
    genes = random_genotype(base, 4, 3, alphabet=ALPHABETS[-1])
    view = CowNetlist.from_base(base)
    for idx, gene in enumerate(genes):
        primitive_for_gene(gene).apply_gene(view, gene, f"k{idx}")
    back = pickle.loads(pickle.dumps(view))
    assert isinstance(back, CowNetlist)
    assert back.structurally_equal(view)
    assert back._lockable_cache is None
    plain = view.copy()
    assert back.fanouts() == plain.fanouts()
    assert back.topological_order() == plain.topological_order()
    # The unpickled view owns its fanout map: mutating it must keep the
    # map exact without touching anything else.
    extra = random_genotype(plain, 1, 4, alphabet=("mux",))[0]
    primitive_for_gene(extra).apply_gene(back, extra, "k_extra")
    primitive_for_gene(extra).apply_gene(plain, extra, "k_extra")
    assert _sorted_fanouts(back) == _sorted_fanouts(plain)
    assert _sorted_fanouts(view) == _sorted_fanouts(view.copy())


def _sorted_fanouts(netlist: Netlist) -> dict:
    return {s: sorted(c) for s, c in netlist.fanouts().items()}


# ----------------------------------------------------------------------
# the per-genotype acyclicity check
# ----------------------------------------------------------------------
class _CyclicXor(XorPrimitive):
    """An XOR primitive that loops its key gate back onto the consumer
    — exactly the fault the per-genotype check exists to catch."""

    def apply_gene(self, netlist, gene, key_name):
        record = super().apply_gene(netlist, gene, key_name)
        netlist.rewire_pin(record.keygate, 0, gene.g)
        return record


@pytest.fixture
def cyclic_xor():
    original = PRIMITIVES.get("xor")
    PRIMITIVES.register("xor", _CyclicXor, replace=True)
    try:
        yield
    finally:
        PRIMITIVES.register("xor", original, replace=True)


@pytest.mark.parametrize(
    "call",
    ["random_genotype", "repair_genotype", "genotype_is_valid"],
)
def test_cyclic_genotype_raises_one_line_evolution_error(
    rand100, cyclic_xor, call
):
    genes = ref_random_genotype(rand100, 2, 0, alphabet=("mux",))
    xor_gene = get_primitive("xor").gene_cls(*genes[0].wires[0], 0)
    calls = {
        "random_genotype": lambda: random_genotype(
            rand100, 2, 0, alphabet=("xor",)
        ),
        "repair_genotype": lambda: repair_genotype(rand100, [xor_gene], 0),
        "genotype_is_valid": lambda: genotype_is_valid(rand100, [xor_gene]),
    }
    with pytest.raises(EvolutionError) as info:
        calls[call]()
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith(f"{rand100.name}: {call} built a cyclic netlist")
    assert not isinstance(info.value, NetlistError)
    assert info.value.__suppress_context__
