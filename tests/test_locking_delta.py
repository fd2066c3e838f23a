"""Re-locking on the copy-on-write view: ``lock_with_genes`` and
``DeltaRelocker`` must be indistinguishable from the plain-copy oracle —
structure, key, scheme, insertions, fanouts and topological order all
identical."""

from functools import partial

import numpy as np
import pytest

from repro.circuits import load_circuit
from repro.errors import LockingError
from repro.locking import DeltaRelocker, DMuxLocking, MuxGene, lock_with_genes
from repro.locking.dmux import lockable_wires
from repro.locking.genome_lock import genes_from_locked
from repro.ec.genotype import random_genotype
from repro.netlist import validate_netlist
from repro.netlist.cow import CowNetlist
from repro.registry import PRIMITIVES

from oracles import scratch_lock_with_genes


def _assert_same_lock(delta, scratch):
    assert delta.netlist.structurally_equal(scratch.netlist)
    assert delta.netlist.name == scratch.netlist.name
    assert delta.key.names == scratch.key.names
    assert delta.key.bits == scratch.key.bits
    assert delta.scheme == scratch.scheme
    assert delta.insertions == scratch.insertions
    assert delta.netlist.topological_order() == scratch.netlist.topological_order()
    assert delta.netlist.fanouts() == scratch.netlist.fanouts()
    # The view must not hand on the base's lockable-wire pool.
    assert lockable_wires(delta.netlist) == lockable_wires(scratch.netlist)


def test_delta_matches_scratch_dmux_genes(rand100):
    locked = DMuxLocking("shared").lock(rand100, 8, seed_or_rng=13)
    genes = genes_from_locked(locked)
    relocker = DeltaRelocker(rand100)
    delta = relocker.lock(genes)
    scratch = scratch_lock_with_genes(rand100, genes)
    validate_netlist(delta.netlist)
    _assert_same_lock(delta, scratch)
    _assert_same_lock(lock_with_genes(rand100, genes), scratch)


@pytest.mark.parametrize("kind", sorted(PRIMITIVES.available()))
def test_delta_matches_scratch_every_primitive(rand100, kind):
    rng = np.random.default_rng(17)
    prim = PRIMITIVES.create(kind)
    genes = [prim.sample(rand100, rng) for _ in range(6)]
    scratch = scratch_lock_with_genes(rand100, genes)
    _assert_same_lock(lock_with_genes(rand100, genes), scratch)
    _assert_same_lock(DeltaRelocker(rand100).lock(genes), scratch)


@pytest.mark.parametrize("seed", [0, 5, 21])
def test_delta_matches_scratch_mixed_alphabet(seed):
    base = load_circuit("rand_150_5")
    rng = np.random.default_rng(seed)
    genotype = random_genotype(
        base, 12, rng, alphabet=tuple(sorted(PRIMITIVES.available()))
    )
    scratch = scratch_lock_with_genes(base, genotype)
    _assert_same_lock(lock_with_genes(base, genotype), scratch)
    _assert_same_lock(DeltaRelocker(base).lock(genotype), scratch)


def test_relocker_is_reusable_and_base_untouched(rand100):
    before_gates = dict(rand100.gates)
    before_fanouts = {k: list(v) for k, v in rand100.fanouts().items()}
    relocker = DeltaRelocker(rand100)
    rng = np.random.default_rng(3)
    for _ in range(4):
        relocker.lock(random_genotype(rand100, 4, rng))
    assert dict(rand100.gates) == before_gates
    assert {k: list(v) for k, v in rand100.fanouts().items()} == before_fanouts


def test_delta_error_messages_match_scratch(rand100):
    relocker = DeltaRelocker(rand100)
    locked = DMuxLocking("shared").lock(rand100, 4, seed_or_rng=5)
    genes = genes_from_locked(locked)
    ghost = MuxGene("ghost_a", "ghost_b", "ghost_c", "ghost_d", 0)
    for bad, message in (
        ([], "at least one gene"),
        (genes + [genes[0]], "reuses wire"),
        ([ghost], "gene 0 inapplicable"),
    ):
        for lock in (relocker.lock, partial(lock_with_genes, rand100),
                     partial(scratch_lock_with_genes, rand100)):
            with pytest.raises(LockingError, match=message):
                lock(bad)


def test_cow_view_mutations_do_not_leak_to_base(rand100):
    from repro.netlist import GateType

    view = CowNetlist.from_base(rand100)
    sig = rand100.outputs[0]
    consumers_before = list(rand100.fanouts().get(sig, []))
    view.add_gate("cow_extra", GateType.BUF, [sig])
    assert rand100.fanouts().get(sig, []) == consumers_before
    assert "cow_extra" not in rand100.gates
    assert ("cow_extra", 0) in view.fanouts()[sig]
