"""The :class:`Netlist` container: a combinational gate-level DAG.

Signals are identified by name. A signal is either a primary input, a key
input (for locked designs), or the output of exactly one gate. Primary
outputs are a subset of signal names. The class offers the small set of
mutation primitives that locking schemes need — adding inputs/gates and
rewiring a consumer pin — plus the graph queries (topological order,
fanouts, reachability, levels) that simulation, SAT encoding and the
attacks are built on.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import networkx as nx

from repro.errors import NetlistError
from repro.netlist.gates import Gate, GateType
from repro.netlist.order import TopoIndex


class Netlist:
    """A named combinational netlist.

    Parameters
    ----------
    name:
        Human-readable design name (propagated to ``.bench`` output).

    Notes
    -----
    Mutation invalidates the cached topological order, fanout map,
    topological index (see :mod:`repro.netlist.order`) and lockable-wire
    pool (see :func:`repro.locking.dmux.lockable_wires`); caches are
    rebuilt lazily on the next query and never pickled. The set of input
    and key-input names is kept up to date by the mutators instead. All
    mutating methods validate their arguments eagerly so a netlist can
    never hold a dangling reference, but acyclicity is only enforced when
    a topological order is requested (or via
    :func:`repro.netlist.validate.validate_netlist`), because locking
    transformations check reachability *before* inserting.
    """

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self.inputs: list[str] = []
        self.key_inputs: list[str] = []
        self.outputs: list[str] = []
        self.gates: dict[str, Gate] = {}
        self._input_names: set[str] = set()
        self._topo_cache: list[str] | None = None
        self._fanout_cache: dict[str, list[tuple[str, int]]] | None = None
        self._order_cache: TopoIndex | None = None
        self._lockable_cache: tuple[tuple[str, str], ...] | None = None

    def __getstate__(self) -> dict:
        # Derived caches are rebuilt on demand; shipping them would grow
        # the pickle a process pool sends to every worker by half again.
        state = self.__dict__.copy()
        state["_topo_cache"] = None
        state["_fanout_cache"] = None
        state["_lockable_cache"] = None
        del state["_input_names"], state["_order_cache"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._input_names = set(self.inputs) | set(self.key_inputs)
        self._order_cache = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def all_inputs(self) -> list[str]:
        """Primary inputs followed by key inputs (simulation order)."""
        return self.inputs + self.key_inputs

    def signals(self) -> Iterator[str]:
        """Iterate every signal name: inputs, key inputs, then gate outputs."""
        yield from self.inputs
        yield from self.key_inputs
        yield from self.gates

    def is_signal(self, name: str) -> bool:
        """True if ``name`` names an input, key input, or gate output."""
        return name in self.gates or name in self._input_names

    def __contains__(self, name: str) -> bool:
        return self.is_signal(name)

    def __len__(self) -> int:
        """Number of gates (inputs are not counted)."""
        return len(self.gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.name!r}, inputs={len(self.inputs)}, "
            f"keys={len(self.key_inputs)}, outputs={len(self.outputs)}, "
            f"gates={len(self.gates)})"
        )

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def _check_fresh(self, name: str) -> None:
        if not name:
            raise NetlistError("signal names must be non-empty")
        if self.is_signal(name):
            raise NetlistError(f"signal {name!r} already exists")

    def add_input(self, name: str) -> None:
        """Declare a new primary input signal."""
        self._check_fresh(name)
        self.inputs.append(name)
        self._input_names.add(name)
        self._invalidate()

    def add_key_input(self, name: str) -> None:
        """Declare a new key input signal (locked designs only)."""
        self._check_fresh(name)
        self.key_inputs.append(name)
        self._input_names.add(name)
        self._invalidate()

    def add_output(self, name: str) -> None:
        """Mark existing signal ``name`` as a primary output."""
        if not self.is_signal(name):
            raise NetlistError(f"cannot mark unknown signal {name!r} as output")
        if name in self.outputs:
            raise NetlistError(f"signal {name!r} is already an output")
        self.outputs.append(name)

    def add_gate(
        self, name: str, gtype: GateType, fanins: Iterable[str]
    ) -> Gate:
        """Create gate ``name = gtype(*fanins)``; every fanin must exist."""
        self._check_fresh(name)
        fanins = tuple(fanins)
        for src in fanins:
            if not self.is_signal(src):
                raise NetlistError(f"gate {name!r}: unknown fanin {src!r}")
        gate = Gate(name, gtype, fanins)
        self.gates[name] = gate
        self._invalidate()
        return gate

    def remove_gate(self, name: str) -> None:
        """Delete gate ``name``; it must be unused (no consumers, not a PO)."""
        if name not in self.gates:
            raise NetlistError(f"no gate named {name!r}")
        consumers = self.fanouts().get(name, [])
        if consumers:
            users = ", ".join(g for g, _ in consumers[:5])
            raise NetlistError(f"cannot remove {name!r}: still drives {users}")
        if name in self.outputs:
            raise NetlistError(f"cannot remove {name!r}: it is a primary output")
        del self.gates[name]
        self._invalidate()

    def rewire_pin(self, gate_name: str, pin: int, new_src: str) -> None:
        """Redirect fanin ``pin`` of ``gate_name`` to signal ``new_src``."""
        if gate_name not in self.gates:
            raise NetlistError(f"no gate named {gate_name!r}")
        if not self.is_signal(new_src):
            raise NetlistError(f"unknown signal {new_src!r}")
        self.gates[gate_name] = self.gates[gate_name].with_fanin(pin, new_src)
        self._invalidate()

    def widen_gate(self, gate_name: str, new_src: str) -> None:
        """Append ``new_src`` as an extra fanin of an n-ary gate.

        Only valid for gate types without a fanin upper bound (AND/OR/
        NAND/NOR/XOR/XNOR); raises for fixed-arity gates.
        """
        if gate_name not in self.gates:
            raise NetlistError(f"no gate named {gate_name!r}")
        if not self.is_signal(new_src):
            raise NetlistError(f"unknown signal {new_src!r}")
        gate = self.gates[gate_name]
        self.gates[gate_name] = Gate(
            gate.name, gate.gtype, gate.fanins + (new_src,)
        )
        self._invalidate()

    def replace_fanin(self, gate_name: str, old_src: str, new_src: str) -> int:
        """Replace every occurrence of ``old_src`` in ``gate_name``'s fanins.

        Returns the number of pins rewired (a gate may consume the same
        signal on several pins, e.g. ``AND(a, a)`` after optimisation).
        """
        if gate_name not in self.gates:
            raise NetlistError(f"no gate named {gate_name!r}")
        gate = self.gates[gate_name]
        pins = [i for i, src in enumerate(gate.fanins) if src == old_src]
        if not pins:
            raise NetlistError(
                f"gate {gate_name!r} has no fanin {old_src!r} to replace"
            )
        for pin in pins:
            self.rewire_pin(gate_name, pin, new_src)
        return len(pins)

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._fanout_cache = None
        self._order_cache = None
        self._lockable_cache = None

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------
    def fanouts(self) -> dict[str, list[tuple[str, int]]]:
        """Map each signal to the ``(consumer_gate, pin)`` pairs it drives."""
        if self._fanout_cache is None:
            fanout: dict[str, list[tuple[str, int]]] = {s: [] for s in self.signals()}
            for gate in self.gates.values():
                for pin, src in enumerate(gate.fanins):
                    fanout[src].append((gate.name, pin))
            self._fanout_cache = fanout
        return self._fanout_cache

    def fanout_count(self, signal: str) -> int:
        """Number of consumer pins driven by ``signal``."""
        return len(self.fanouts().get(signal, []))

    def topological_order(self) -> list[str]:
        """Gate names in dependency order (fanins before consumers).

        Raises :class:`NetlistError` if the netlist contains a
        combinational cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        fanouts = self.fanouts()
        indeg = dict.fromkeys(self.gates, 0)
        for name in self.gates:
            for consumer, _pin in fanouts[name]:
                indeg[consumer] += 1
        # FIFO from the sorted roots: the growing list is its own queue.
        order = sorted([name for name, d in indeg.items() if not d])
        push = order.append
        for name in order:
            for consumer, _pin in fanouts[name]:
                d = indeg[consumer] - 1
                indeg[consumer] = d
                if not d:
                    push(consumer)
        if len(order) != len(self.gates):
            stuck = sorted(set(self.gates) - set(order))[:5]
            raise NetlistError(
                f"combinational cycle detected involving gates near {stuck}"
            )
        self._topo_cache = order
        return order

    def check_acyclic(self) -> None:
        """Assert the netlist is a DAG (raises :class:`NetlistError`).

        The locking primitives call this after every insertion as a
        defensive guard. Subclasses that maintain acyclicity invariants
        incrementally (see :class:`repro.netlist.cow.CowNetlist`) may
        override it with a cheaper check and validate once at the end.
        """
        self.topological_order()

    def levels(self) -> dict[str, int]:
        """Logic level of each signal: inputs at 0, gates at 1 + max(fanins)."""
        level: dict[str, int] = dict.fromkeys(self._input_names, 0)
        for name in self.topological_order():
            gate = self.gates[name]
            if gate.fanins:
                level[name] = 1 + max(level[src] for src in gate.fanins)
            else:
                level[name] = 0
        return level

    def depth(self) -> int:
        """Maximum logic level over all signals (0 for gate-free netlists)."""
        lv = self.levels()
        return max(lv.values(), default=0)

    def _order_index(self) -> TopoIndex | None:
        """The topological index, or ``None`` while the netlist is cyclic."""
        if self._order_cache is None:
            try:
                order = self.topological_order()
            except NetlistError:
                return None
            self._order_cache = TopoIndex(
                [*self.inputs, *self.key_inputs, *order]
            )
        return self._order_cache

    def has_path(self, src: str, dst: str) -> bool:
        """True if a directed path ``src`` ⇝ ``dst`` exists (src == dst counts).

        Used by MUX insertion to reject pairings that would create a
        combinational cycle. Every signal on such a path is labelled
        below ``dst`` in the topological index, so the answer is
        ``False`` at once when ``dst`` is labelled below ``src``, and the
        search otherwise visits only consumers labelled below ``dst``. A
        cyclic netlist has no index and is searched without that bound.
        """
        if not self.is_signal(src) or not self.is_signal(dst):
            raise NetlistError(f"has_path: unknown signal {src!r} or {dst!r}")
        if src == dst:
            return True
        index = self._order_index()
        ord_ = limit = None
        if index is not None:
            ord_ = index.ord
            limit = ord_[dst]
            if limit < ord_[src]:
                return False
        fanouts = self.fanouts()
        seen = {src}
        stack = [src]
        while stack:
            for consumer, _pin in fanouts[stack.pop()]:
                if consumer == dst:
                    return True
                if consumer not in seen and (
                    limit is None or ord_[consumer] < limit
                ):
                    seen.add(consumer)
                    stack.append(consumer)
        return False

    def transitive_fanin(self, signal: str) -> set[str]:
        """All signals (including inputs) on which ``signal`` depends."""
        if not self.is_signal(signal):
            raise NetlistError(f"unknown signal {signal!r}")
        seen: set[str] = set()
        stack = [signal]
        while stack:
            sig = stack.pop()
            gate = self.gates.get(sig)
            if gate is None:
                continue
            for src in gate.fanins:
                if src not in seen:
                    seen.add(src)
                    stack.append(src)
        return seen

    def to_networkx(self) -> nx.DiGraph:
        """Directed graph view: one node per signal, edges fanin → gate.

        Node attributes: ``kind`` (``"input"``/``"key"``/``"gate"``) and
        ``gtype`` (gate-type string, ``"PI"``/``"KEY"`` for inputs). Edge
        attribute ``pin`` records the consumer pin index.
        """
        g = nx.DiGraph(name=self.name)
        for s in self.inputs:
            g.add_node(s, kind="input", gtype="PI")
        for s in self.key_inputs:
            g.add_node(s, kind="key", gtype="KEY")
        for gate in self.gates.values():
            g.add_node(gate.name, kind="gate", gtype=gate.gtype.value)
        for gate in self.gates.values():
            for pin, src in enumerate(gate.fanins):
                g.add_edge(src, gate.name, pin=pin)
        return g

    # ------------------------------------------------------------------
    # Copying / equality
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Netlist":
        """Deep, independent copy (gates are immutable so lists suffice)."""
        dup = Netlist(name or self.name)
        dup.inputs = list(self.inputs)
        dup.key_inputs = list(self.key_inputs)
        dup._input_names = set(self._input_names)
        dup.outputs = list(self.outputs)
        dup.gates = dict(self.gates)
        return dup

    def structurally_equal(self, other: "Netlist") -> bool:
        """Exact structural equality: same inputs/outputs/gates (names included)."""
        return (
            self.inputs == other.inputs
            and self.key_inputs == other.key_inputs
            and self.outputs == other.outputs
            and self.gates == other.gates
        )

    # ------------------------------------------------------------------
    # Naming helpers
    # ------------------------------------------------------------------
    def fresh_name(self, prefix: str) -> str:
        """Return a signal name starting with ``prefix`` not yet in use."""
        if not self.is_signal(prefix):
            return prefix
        i = 0
        while self.is_signal(f"{prefix}_{i}"):
            i += 1
        return f"{prefix}_{i}"
