"""Stateful property test: arbitrary mutation sequences keep invariants.

Hypothesis drives random sequences of netlist operations (add input/key
input/gate, remove an unused gate, rewire, widen, mark output) and checks
after every step that the netlist stays structurally valid, acyclic and
self-consistent — the guarantees the locking transformations and the GA's
repair logic rely on. The same machine runs on a plain ``Netlist`` and on
a copy-on-write view, whose maintained topological index must stay exact
and whose reachability answers must match the unbounded search.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from oracles import bfs_has_path
from repro.errors import NetlistError
from repro.netlist import GateType, Netlist, validate_netlist
from repro.netlist.cow import CowNetlist

_BINARY_TYPES = [GateType.AND, GateType.NAND, GateType.OR, GateType.XOR]


class NetlistMachine(RuleBasedStateMachine):
    # A view keeps its topological index across mutations; a plain
    # netlist drops it and rebuilds it on the next query.
    maintains_index = False

    def __init__(self) -> None:
        super().__init__()
        self.netlist = self.make_netlist()
        self.counter = 0

    @staticmethod
    def make_netlist() -> Netlist:
        netlist = Netlist("stateful")
        netlist.add_input("seed_input")
        return netlist

    # ------------------------------------------------------------- helpers
    def _fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _signals(self) -> list[str]:
        return list(self.netlist.signals())

    # --------------------------------------------------------------- rules
    @rule()
    def add_input(self) -> None:
        self.netlist.add_input(self._fresh("in"))

    @rule()
    def add_key_input(self) -> None:
        self.netlist.add_key_input(self._fresh("key"))

    @rule(data=st.data())
    def add_unary_gate(self, data) -> None:
        src = data.draw(st.sampled_from(self._signals()))
        gtype = data.draw(st.sampled_from([GateType.NOT, GateType.BUF]))
        self.netlist.add_gate(self._fresh("g"), gtype, [src])

    @rule(data=st.data())
    def add_binary_gate(self, data) -> None:
        signals = self._signals()
        a = data.draw(st.sampled_from(signals))
        b = data.draw(st.sampled_from(signals))
        gtype = data.draw(st.sampled_from(_BINARY_TYPES))
        self.netlist.add_gate(self._fresh("g"), gtype, [a, b])

    @precondition(lambda self: len(self.netlist.gates) > 0)
    @rule(data=st.data())
    def rewire_safely(self, data) -> None:
        """Rewire a random pin to a random *non-descendant* source."""
        gate_name = data.draw(st.sampled_from(sorted(self.netlist.gates)))
        gate = self.netlist.gates[gate_name]
        pin = data.draw(st.integers(min_value=0, max_value=len(gate.fanins) - 1))
        candidates = [
            s for s in self._signals()
            if not self.netlist.has_path(gate_name, s)
        ]
        if not candidates:
            return
        new_src = data.draw(st.sampled_from(candidates))
        self.netlist.rewire_pin(gate_name, pin, new_src)

    @precondition(lambda self: len(self.netlist.gates) > 0)
    @rule(data=st.data())
    def widen_nary_gate(self, data) -> None:
        nary = [
            n for n, g in self.netlist.gates.items() if g.gtype in _BINARY_TYPES
        ]
        if not nary:
            return
        gate_name = data.draw(st.sampled_from(sorted(nary)))
        src = data.draw(st.sampled_from(self._signals()))
        if self.netlist.has_path(gate_name, src):
            return
        self.netlist.widen_gate(gate_name, src)

    @precondition(lambda self: len(self.netlist.gates) > 0)
    @rule(data=st.data())
    def remove_unused_gate(self, data) -> None:
        fanouts = self.netlist.fanouts()
        unused = [
            n for n in self.netlist.gates
            if not fanouts[n] and n not in self.netlist.outputs
        ]
        if unused:
            self.netlist.remove_gate(data.draw(st.sampled_from(sorted(unused))))

    @rule(data=st.data())
    def has_path_matches_oracle(self, data) -> None:
        signals = self._signals()
        for _ in range(8):
            src = data.draw(st.sampled_from(signals))
            dst = data.draw(st.sampled_from(signals))
            expected = bfs_has_path(self.netlist, src, dst)
            assert self.netlist.has_path(src, dst) == expected

    @precondition(lambda self: len(self.netlist.gates) > 0)
    @rule(data=st.data())
    def mark_output(self, data) -> None:
        candidates = [
            g for g in self.netlist.gates if g not in self.netlist.outputs
        ]
        if candidates:
            self.netlist.add_output(data.draw(st.sampled_from(sorted(candidates))))

    @rule()
    def copy_is_equal_and_independent(self) -> None:
        dup = self.netlist.copy()
        assert dup.structurally_equal(self.netlist)
        dup.add_input(self._fresh("dupin"))
        assert not dup.structurally_equal(self.netlist)

    # ---------------------------------------------------------- invariants
    @invariant()
    def always_valid(self) -> None:
        validate_netlist(self.netlist, require_outputs=False)

    @invariant()
    def topo_order_respects_dependencies(self) -> None:
        order = self.netlist.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for gate in self.netlist.gates.values():
            for src in gate.fanins:
                if src in position:
                    assert position[src] < position[gate.name]

    @invariant()
    def order_index_respects_dependencies(self) -> None:
        if self.maintains_index:
            assert self.netlist._order_cache is not None
        index = self.netlist._order_index()
        assert index is not None
        assert set(index.ord) == set(self.netlist.signals())
        assert len(set(index.ord.values())) == len(index.ord)
        for gate in self.netlist.gates.values():
            for src in gate.fanins:
                assert index.ord[src] < index.ord[gate.name]

    @invariant()
    def fanouts_match_fanins(self) -> None:
        count_from_fanouts = sum(
            len(v) for v in self.netlist.fanouts().values()
        )
        count_from_fanins = sum(
            len(g.fanins) for g in self.netlist.gates.values()
        )
        assert count_from_fanouts == count_from_fanins

    @invariant()
    def levels_are_consistent(self) -> None:
        levels = self.netlist.levels()
        for gate in self.netlist.gates.values():
            if gate.fanins:
                assert levels[gate.name] == 1 + max(
                    levels[s] for s in gate.fanins
                )


class CowNetlistMachine(NetlistMachine):
    """The same rules on a copy-on-write view, whose fanout map and
    topological index are patched per mutation instead of rebuilt."""

    maintains_index = True

    @staticmethod
    def make_netlist() -> Netlist:
        return CowNetlist.from_base(NetlistMachine.make_netlist())


for _machine in (NetlistMachine, CowNetlistMachine):
    _machine.TestCase.settings = settings(
        max_examples=25, stateful_step_count=30, deadline=None
    )
TestNetlistStateful = NetlistMachine.TestCase
TestCowNetlistStateful = CowNetlistMachine.TestCase


def test_rewire_to_descendant_is_detectable():
    """The machine avoids cycles via has_path; confirm the guard matters."""
    n = Netlist("guard")
    n.add_input("a")
    n.add_gate("g1", GateType.NOT, ["a"])
    n.add_gate("g2", GateType.NOT, ["g1"])
    n.rewire_pin("g1", 0, "g2")  # creates a cycle
    try:
        n.topological_order()
    except NetlistError:
        return
    raise AssertionError("cycle went undetected")
